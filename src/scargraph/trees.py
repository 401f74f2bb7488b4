"""Rooted d-ary trees and their radial (level-constant) spectra.

A d-ary tree of depth D has a root with d+1 children, every other internal
vertex with d children, and all leaves at depth D.  Its radial eigenvectors
are constant on levels, so they are governed by the (D+1)-dimensional level
quotient matrix; everything here is computed from that quotient, never from
the full tree.  scipy's tridiagonal solver is imported on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import MAX_VERTICES, Graph, _graph_from_half_edges


def level_sizes(d: int, depth: int) -> list:
    """[1, d+1, (d+1)d, ..., (d+1)d^(depth-1)]."""
    return [1] + [(d + 1) * d ** (i - 1) for i in range(1, depth + 1)]


def tree_size(d: int, depth: int) -> int:
    return sum(level_sizes(d, depth))


def interior_size(d: int, depth: int) -> int:
    """Number of non-leaf vertices of a depth-``depth`` d-ary tree."""
    if depth == 0:
        return 0
    return tree_size(d, depth - 1)


@dataclass
class DaryTree:
    d: int
    depth: int
    graph: Graph
    levels: list            # per-level vertex index arrays, root first
    root: int = 0

    @property
    def leaves(self) -> np.ndarray:
        return self.levels[-1]


def tree_layout(d: int, depth: int, first: int = 0):
    """Level-order ids of a depth-``depth`` d-ary tree numbered from
    ``first``: the per-level id arrays, root first, and the parent id of
    every non-root vertex in id order (vertex first+1+k has parent[k])."""
    sizes = level_sizes(d, depth)
    offsets = first + np.concatenate([[0], np.cumsum(sizes)])
    levels = [np.arange(offsets[i], offsets[i + 1]) for i in range(depth + 1)]
    parent = [offsets[i - 1] + np.arange(sizes[i]) // (d + 1 if i == 1 else d)
              for i in range(1, depth + 1)]
    return levels, np.concatenate([np.zeros(0, np.int64)] + parent)


def build_dary_tree(d: int, depth: int) -> DaryTree:
    """Level-order indexed d-ary tree of the given depth."""
    if d < 2:
        raise ValueError("branching d must be at least 2")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    # levels at least double, so a depth of MAX_VERTICES' bit length never fits
    if depth >= MAX_VERTICES.bit_length() or tree_size(d, depth) > MAX_VERTICES:
        raise ValueError(f"depth {depth} gives more than {MAX_VERTICES} vertices")
    levels, parent = tree_layout(d, depth)
    n = len(parent) + 1
    g = _graph_from_half_edges(n, parent, np.arange(1, n))
    return DaryTree(d, depth, g, levels)


def quotient_matrix(d: int, depth: int) -> np.ndarray:
    """Level quotient of the depth-``depth`` d-ary tree.

    Row i holds the counts of neighbors one level up (always 1) and one
    level down (d+1 from the root, d elsewhere); its eigenvalues are exactly
    the radial eigenvalues of the tree.
    """
    if d < 2:
        raise ValueError("branching d must be at least 2")
    q = np.zeros((depth + 1, depth + 1))
    for i in range(depth):
        q[i, i + 1] = d + 1 if i == 0 else d
        q[i + 1, i] = 1.0
    return q


def _symmetrized_offdiag(d: int, depth: int) -> np.ndarray:
    # conjugating by diag(sqrt(level size)) makes the quotient symmetric
    return np.sqrt([d + 1] + [d] * (depth - 1))[:depth]


@dataclass
class RadialSpectrum:
    """The depth+1 radial eigenvalues with their level profiles.

    ``profiles[k]`` holds (f_0, ..., f_D) for ``eigenvalues[k]``; profiles are
    normalized so the lifted tree vector has unit l2 norm, with f_0 > 0.
    """
    depth: int
    eigenvalues: np.ndarray      # ascending
    profiles: np.ndarray         # shape (depth+1, depth+1)


def radial_spectrum(d: int, depth: int) -> RadialSpectrum:
    """Eigen-decomposition of the symmetrized level quotient.

    A unit eigenvector w of the symmetrized quotient un-symmetrizes to the
    profile f_i = w_i / sqrt(n_i), whose lift to the tree is automatically a
    unit vector.
    """
    if d < 2:
        raise ValueError("branching d must be at least 2")
    from scipy.linalg import eigh_tridiagonal
    w, vecs = eigh_tridiagonal(np.zeros(depth + 1), _symmetrized_offdiag(d, depth))
    sq = np.sqrt(np.array(level_sizes(d, depth), dtype=float))
    profiles = (vecs / sq[:, None]).T
    # the root entry of a radial eigenvector is never 0; fix its sign
    signs = np.sign(profiles[:, 0])
    profiles = profiles * signs[:, None]
    return RadialSpectrum(depth, w, profiles)


def lift_radial(tree: DaryTree, profile) -> np.ndarray:
    """Tree vector assigning profile[level(x)] to every vertex x."""
    profile = np.asarray(profile, dtype=float)
    if len(profile) != tree.depth + 1:
        raise ValueError(
            f"profile length {len(profile)} != depth+1 = {tree.depth + 1}")
    v = np.empty(tree.graph.n)
    for i, lay in enumerate(tree.levels):
        v[lay] = profile[i]
    return v


@dataclass
class NearestRadial:
    found: bool
    depth: int
    eigenvalue: float
    gap: float


def nearest_radial_eigenvalue(d: int, target: float, tol: float,
                              max_depth: int = 40) -> NearestRadial:
    """Smallest depth in 1..max_depth whose radial spectrum approaches
    ``target`` within ``tol``; reports the best approach honestly otherwise.

    Radial eigenvalues over all depths are dense in (-2 sqrt(d), 2 sqrt(d)),
    so increasing max_depth eventually succeeds for any interior target.
    """
    if abs(target) >= 2 * np.sqrt(d):
        raise ValueError("target must lie strictly inside (-2 sqrt d, 2 sqrt d)")
    best = NearestRadial(False, 0, 0.0, np.inf)
    for depth in range(1, max_depth + 1):
        w = radial_spectrum(d, depth).eigenvalues
        i = int(np.argmin(np.abs(w - target)))
        gap = abs(float(w[i]) - target)
        if gap < best.gap:
            best = NearestRadial(False, depth, float(w[i]), gap)
        if gap <= tol:
            return NearestRadial(True, depth, float(w[i]), gap)
    return best


def level_mass_profile(v, tree: DaryTree) -> np.ndarray:
    """Per-level squared l2 masses of a tree vector."""
    v = np.asarray(v, dtype=float)
    if len(v) != tree.graph.n:
        raise ValueError("vector length must match tree size")
    return np.array([float(np.sum(v[lay] ** 2)) for lay in tree.levels])


def adjacent_level_mass_ratios(v, tree: DaryTree) -> np.ndarray:
    """(mass_i + mass_{i+1}) / v(root)^2 for consecutive levels.

    Meaningful for lifted radial eigenvectors, whose root entry is nonzero.
    """
    masses = level_mass_profile(v, tree)
    root2 = float(np.asarray(v)[tree.root] ** 2)
    return np.array([(masses[i] + masses[i + 1]) / root2
                     for i in range(tree.depth)])
