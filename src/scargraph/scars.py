"""Carving trees out of a regular base graph and gluing replacements on,
producing (d+1)-regular graphs with fully localized adjacency eigenvectors.

One site: take the radius-r ball around a root u of the base H (a tree T1
when the girth allows), match its leaves L1 to distinct distance-(r+1)
partners L2 and delete the matching; glue a fresh tree T2 onto L1 by the
girth-improving leaf pairing, and a fresh tree T3 onto L2.  The result is
(d+1)-regular again, and for every radial eigenvalue of the depth-(r-1)
tree it carries an exact eigenvector supported on the interiors of T1 and
T2 only.  Several sites glued at pairwise distance > 4r give the same
eigenvalues with multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import (MAX_VERTICES, ConstructionError, Graph, _hop_distances,
                     _neighbours, ball, bfs_distances, girth, is_regular)
from .pairing import (_SwapState, _attach_tree, _run_swaps, girth_required,
                      girth_target)
from .trees import interior_size, radial_spectrum, tree_size

GLUE_RETRIES = 3      # seeds glue() tries, seed + 1000003 * attempt


@dataclass
class ScarSite:
    """One gluing site: the carved tree, its matched boundary, and (after
    gluing) the vertex levels of the two replacement trees."""
    root: int
    r: int
    d: int
    t1_levels: list                  # interior levels 0..r-1 of the carved tree
    leaves: np.ndarray               # L1: level-r vertices of the carved tree
    partners: np.ndarray             # L2: matched distance-(r+1) partners
    removed_matching: np.ndarray     # the deleted edges (leaf, partner)
    t2_levels: list | None = None    # set by glue(); level 0 is the new root
    t3_levels: list | None = None

    @property
    def v1(self) -> np.ndarray:
        return np.concatenate(self.t1_levels)

    @property
    def v2(self) -> np.ndarray:
        return np.concatenate(self.t2_levels)

    @property
    def interface(self) -> np.ndarray:
        """L1 union L2, where the gluing meets the base graph."""
        return np.concatenate([self.leaves, self.partners])


@dataclass
class ScarredGraph:
    graph: Graph
    base_size: int
    d: int
    r: int
    sites: list
    seed: int
    seeds_used: list = field(default_factory=list)
    girth: int | None = None         # measured by glue()


def expected_vertex_count(m: int, d: int, r: int, k: int) -> int:
    """m + 2k * (interior size of a depth-r d-ary tree)."""
    return m + 2 * k * interior_size(d, r)


def carve_site(h: Graph, u: int, r: int) -> ScarSite:
    """Carve the radius-r tree around u and match its leaves to distinct
    distance-(r+1) partners (each leaf's lowest-index outward neighbor)."""
    if r < 1:
        raise ValueError("carving radius r must be at least 1")
    deg = is_regular(h)
    if deg is None or deg < 3:
        raise ValueError("base graph must be (d+1)-regular with d >= 2")
    d = deg - 1
    b = ball(h, u, r + 1)
    if not b.is_tree:
        raise ValueError(
            f"radius-{r + 1} ball around {u} is not a tree; base girth too small")
    t1_levels = [np.array(lay, dtype=np.int64) for lay in b.layers[:r]]
    leaves = np.array(b.layers[r], dtype=np.int64)
    # each leaf's lowest-index neighbour on level r+1, or h.n if none
    nbrs, deg = _neighbours(h.indptr, h.indices, leaves)
    outward = np.where(np.isin(nbrs, b.layers[r + 1]), nbrs, h.n)
    partners = np.minimum.reduceat(outward, np.cumsum(deg) - deg).astype(np.int64)
    if (partners == h.n).any():
        raise ConstructionError(
            f"leaf {leaves[np.argmax(partners == h.n)]} has no "
            f"distance-{r + 1} neighbor in a regular graph")
    if len(np.unique(partners)) != len(partners):
        raise ConstructionError(
            "matched partners collide although the (r+1)-ball is a tree")
    matching = np.column_stack([leaves, partners])
    return ScarSite(u, r, d, t1_levels, leaves, partners, matching)


def greedy_packing(g: Graph, min_dist: int, limit=None) -> np.ndarray:
    """Greedy maximal set of vertices at pairwise distance >= min_dist, or
    its first ``limit`` picks.

    First fit over vertex ids: each pick covers its radius-(min_dist-1)
    ball, found by one graphs._hop_distances call, and the next pick is the
    first id not yet covered.  Maximality makes every vertex fall within
    min_dist of the set, so on a (d+1)-regular graph the set has at least
    m(d-1)/((d+1)d^min_dist) members.
    """
    if is_regular(g) is None:
        raise ValueError("greedy_packing requires a regular graph")
    if min_dist < 1:
        raise ValueError("min_dist must be at least 1")
    free = np.ones(g.n, dtype=bool)
    picks = []
    v = 0
    while v < g.n and free[v] and len(picks) != limit:
        picks.append(v)
        free &= _hop_distances(g.indptr, g.indices, [v], min_dist - 1) < 0
        v += int(np.argmax(free[v:]))
    return np.array(picks, dtype=np.int64)


def _check_site_separation(h: Graph, sites, r: int):
    roots = [s.root for s in sites]
    for i, u in enumerate(roots):
        dist = bfs_distances(h, u, cap=4 * r)
        for v in roots[i + 1:]:
            if dist[v] >= 0:
                raise ValueError(
                    f"site roots {u} and {v} are at distance {int(dist[v])}"
                    f" <= 4r = {4 * r}; sites must be farther apart")


def glue(h: Graph, sites, seed: int = 0) -> ScarredGraph:
    """Delete each site's matching and glue replacement trees T2 (onto the
    carved leaves) and T3 (onto the matched partners), choosing both leaf
    bijections by the girth-improving swap loop run on the growing ambient
    graph.  The final girth is measured and must reach the pairing bound;
    unlucky seeds are retried.  Zero sites is multi_glue(h, 0, r)."""
    sites = list(sites)
    if not sites:
        raise ValueError("glue needs at least one site")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    r, d = sites[0].r, sites[0].d
    if any(s.r != r or s.d != d for s in sites):
        raise ValueError("all sites must share the same d and r")
    _check_site_separation(h, sites, r)
    last_error = None
    for attempt in range(GLUE_RETRIES):
        attempt_seed = seed + 1000003 * attempt
        try:
            sg = _glue_once(h, sites, d, r, attempt_seed)
            sg.seed = seed
            return sg
        except ConstructionError as exc:
            last_error = exc
    raise ConstructionError(
        f"gluing failed girth checks after {GLUE_RETRIES} seeds: {last_error}")


def _glue_once(h: Graph, sites, d: int, r: int, seed: int) -> ScarredGraph:
    rng = np.random.default_rng(seed)
    # the base edges (u < v) minus every site's matching, by key u * n + v
    base = h.edges()
    cut = np.concatenate([s.removed_matching for s in sites])
    keep = ~np.isin(base[:, 0] * h.n + base[:, 1],
                    cut.min(axis=1) * h.n + cut.max(axis=1))
    parts = [base[keep]]

    next_id = h.n
    plans = []
    out_sites = []
    for s in sites:
        t2, slots2, t2sp, t2_levels, next_id = _attach_tree(
            d, r, s.leaves, next_id, rng)
        t3, slots3, t3sp, t3_levels, next_id = _attach_tree(
            d, r, s.partners, next_id, rng)
        parts += [t2, t3]
        plans.append((s, slots2, t2sp, slots3, t3sp))
        out_sites.append(replace(s, t2_levels=t2_levels, t3_levels=t3_levels))

    state = _SwapState(next_id, np.concatenate(parts))
    target = girth_target(d, (d + 1) * d ** (r - 1))
    guaranteed = girth_required(d, r)
    for s, slots2, t2sp, slots3, t3sp in plans:
        _run_swaps(state, s.leaves, slots2, t2sp, target, guaranteed)
        # T3: no counting guarantee through the ambient graph, so pure
        # accept-if-improving local search (a depth-1 tree needs none)
        _run_swaps(state, s.partners, slots3, t3sp, target, 0)

    g = state.to_graph()
    if is_regular(g) != d + 1:
        raise ConstructionError("glued graph is not (d+1)-regular")
    measured = girth(g)
    if measured < guaranteed:
        raise ConstructionError(
            f"glued girth {measured} below required {guaranteed}")
    return ScarredGraph(g, h.n, d, r, out_sites, seed, [seed], int(measured))


def _check_depth(r: int):
    """Refuse a site depth r outside [0, MAX_VERTICES' bit length)."""
    if not 0 <= r < MAX_VERTICES.bit_length():
        raise ValueError(f"r must lie in [0, {MAX_VERTICES.bit_length()})")


def multi_glue(h: Graph, k_sites: int, r: int, seed: int = 0) -> ScarredGraph:
    """Carve and glue k sites rooted at a greedy packing of pairwise
    distance >= 4r+1; zero sites returns the base unchanged.  For any k, r
    must lie in [0, MAX_VERTICES' bit length), as sites grow like d^r."""
    if k_sites < 0:
        raise ValueError("site count must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    _check_depth(r)
    deg = is_regular(h)
    if deg is None or deg < 3:
        raise ValueError("base graph must be (d+1)-regular with d >= 2")
    if k_sites == 0:
        return ScarredGraph(h, h.n, deg - 1, r, [], seed, [seed], None)
    # a packing that stops short of k_sites is the whole maximal packing
    roots = greedy_packing(h, 4 * r + 1, k_sites)
    if len(roots) < k_sites:
        raise ConstructionError(
            f"insufficient packing: {len(roots)} roots at pairwise distance"
            f" >= {4 * r + 1}, need {k_sites}")
    sites = [carve_site(h, int(u), r) for u in roots]
    return glue(h, sites, seed)


def localized_eigenvector(sg: ScarredGraph, site_id: int,
                          lam: float) -> np.ndarray:
    """Unit eigenvector of the glued graph with radial eigenvalue ``lam`` of
    the depth-(r-1) tree: the lifted profile on the carved interior, its
    negative on the replacement interior, zero elsewhere.  It is exact by
    construction; its certificate records its residual and judges it."""
    site = sg.sites[site_id]
    spec = radial_spectrum(site.d, site.r - 1)
    gaps = np.abs(spec.eigenvalues - lam)
    k = int(np.argmin(gaps))
    if gaps[k] > 1e-9:
        raise ValueError(
            f"{lam} is not a radial eigenvalue of the depth-{site.r - 1} tree")
    profile = spec.profiles[k]
    nu = np.zeros(sg.graph.n)
    for i in range(site.r):
        nu[site.t1_levels[i]] = profile[i]
        nu[site.t2_levels[i]] = -profile[i]
    nu /= math.sqrt(2.0)
    return nu


def odd_level_witness(site: ScarSite) -> np.ndarray:
    """Vertices on levels r-1, r-3, ... of the carved and replacement trees;
    for r > 1 this set expands by less than (d+1)/2."""
    if site.t2_levels is None:
        raise ValueError("site has not been glued yet")
    parts = []
    for i in range(site.r - 1, -1, -2):
        parts.append(site.t1_levels[i])
        parts.append(site.t2_levels[i])
    return np.sort(np.concatenate(parts))


def interface_quadratic_bound(sg: ScarredGraph, gvec):
    """Quadratic-form audit for a unit vector orthogonal to all-ones:
    |g A g| against 2 sqrt(d) + (sqrt(d)+1) * (interface mass) + 2nk(d+1)/m,
    where n bounds the per-site count of new vertices."""
    gvec = np.asarray(gvec, dtype=float)
    d, r = sg.d, sg.r
    lhs = abs(float(gvec @ (sg.graph.csr() @ gvec)))
    interface_mass = 0.0
    for s in sg.sites:
        interface_mass += float(np.sum(gvec[s.interface] ** 2))
    n_bound = tree_size(d, r)
    rhs = (2.0 * math.sqrt(d) + (math.sqrt(d) + 1.0) * interface_mass
           + (d + 1.0) * 2.0 * n_bound * len(sg.sites) / sg.base_size)
    return lhs, rhs
