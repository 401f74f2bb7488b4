"""Eigenvalue machinery: extreme eigenvalues with certified residuals, the
tree quadratic-form bound, the Kahale-style layered growth checker and the
interface test functions.  Long-vector norms and dots use scipy.linalg.blas,
the OpenBLAS pool ARPACK runs on, not numpy's separately bundled pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import blas, eigh

from .graphs import (MAX_VERTICES, Graph, _hop_distances, _neighbours,
                     is_connected, is_regular)
from .trees import DaryTree

DENSE_CUTOFF = 320      # dense eigh up to here; Lanczos is faster beyond
LANCZOS_TOL = 1e-10     # relative accuracy ARPACK asks of each Ritz value
LANCZOS_SEED = 0        # seeds the Lanczos start vector, so runs repeat
KAHALE_TOL = 1e-9       # slack on kahale_check's inequalities


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


@dataclass
class SpectralSummary:
    lambda_top: float
    lambda2_abs: float
    method: str                      # "dense" | "iterative"
    iterations: int
    residual_bound: float
    pairs: list                      # (eigenvalue, residual 2-norm) extremes
    lambda2_vector: np.ndarray | None = None  # None: Lanczos, not regular


def residual(g: Graph, v, lam: float):
    """(max-norm, 2-norm) of A v - lam v via one sparse multiply."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("vector must be nonzero")
    r = g.csr() @ v - lam * v
    return float(np.abs(r).max()), norm2(r)


def norm2(x) -> float:
    """2-norm of a float vector on scipy's BLAS, the pool ARPACK uses."""
    return math.sqrt(blas.ddot(x, x)) if len(x) else 0.0


def extreme_eigenvalues(g: Graph, how_many: int = 2) -> SpectralSummary:
    """Extreme adjacency eigenvalues with certified residuals.

    Dense symmetric solve up to DENSE_CUTOFF (320) vertices; beyond that
    implicitly restarted Lanczos to relative accuracy LANCZOS_TOL from a
    start vector seeded with LANCZOS_SEED.  On a connected regular graph
    lambda2_abs is the Ritz value of one Lanczos solve deflated of the
    all-ones eigenvector, so it never reports the trivial eigenvalue.  The
    two paths break even near 320 vertices (between 320 and 384 on random
    3-regular graphs, between 256 and 320 on 14-regular ones), and at 2448
    vertices Lanczos is about 100x faster.  Callers that need every
    eigenvector (CLI qe, test oracles) call scipy's eigh themselves.

    ``pairs`` lists how_many eigenpairs per spectrum end, each with its
    residual, largest first; above the cutoff a regular graph's deflated
    Ritz pair follows them.  how_many=0 lists no ends: ``pairs`` then holds
    only the top pair and the lambda2_abs pair.  Above the cutoff a regular
    graph then runs no end solve, and its top pair is (degree, residual of
    the all-ones vector), exact.  ``lambda2_vector`` is the unit eigenvector
    of the lambda2_abs pair.  A non-regular graph above the cutoff has none,
    and lists at least two pairs per end, as its lambda2_abs is read off
    the ends.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if g.n <= DENSE_CUTOFF:
        return _extreme_dense(g, how_many)
    return _extreme_iterative(g, how_many)


def _extreme_dense(g: Graph, how_many: int) -> SpectralSummary:
    w, vecs = eigh(g.csr().toarray())
    i2 = 0 if g.n == 1 or abs(w[0]) >= abs(w[-2]) else g.n - 2
    lam2 = abs(float(w[i2])) if g.n > 1 else 0.0
    k = min(how_many, g.n)
    # k pairs per end; with none asked, the top pair and the lambda2 pair
    picks = set(range(g.n - k, g.n)) | set(range(k)) or {g.n - 1, i2}
    pairs = [(float(w[i]), residual(g, vecs[:, i], w[i])[1])
             for i in sorted(picks, reverse=True)]
    return SpectralSummary(float(w[-1]), lam2, "dense", 0,
                           max(r for _, r in pairs), pairs, vecs[:, i2])


def _extreme_iterative(g: Graph, how_many) -> SpectralSummary:
    a = g.csr()
    n = g.n
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    count = [0]

    def mv(x):
        count[0] += 1
        return a @ x

    def deflated(x):
        # A on the complement of all-ones, a regular graph's top eigenvector
        y = mv(x - x.mean())
        return y - y.mean()

    deg = is_regular(g)
    # lambda2 of a non-regular graph is read off the ends: two pairs each
    k = min(how_many if deg is not None else max(2, how_many), n - 2)
    if k:
        pairs = []
        for which in ("LA", "SA"):
            w, vv = _lanczos(mv, n, k, which, v0)
            pairs += [(float(lam), residual(g, vec, lam)[1])
                      for lam, vec in zip(w, vv.T)]
        pairs.sort(key=lambda p: -p[0])
    else:
        # no end solve: (deg, all-ones) is an exact eigenpair, residual 0
        pairs = [(float(deg), residual(g, np.ones(n), deg)[1] / math.sqrt(n))]
    if deg is None:
        lam2, v2 = max(abs(pairs[1][0]), abs(pairs[-1][0])), None
    else:
        w, vv = _lanczos(deflated, n, 1, "LM", v0)
        v2 = vv[:, 0] - vv[:, 0].mean()
        v2 /= norm2(v2)
        lam2 = abs(float(w[0]))
        lam = blas.ddot(v2, a @ v2)
        pairs.append((lam, residual(g, v2, lam)[1]))
    res = max(r for _, r in pairs)
    return SpectralSummary(pairs[0][0], lam2, "iterative", count[0], res,
                           pairs, lambda2_vector=v2)


def _lanczos(matvec, n, k, which, v0):
    """eigsh on the n x n operator ``matvec``: k Ritz pairs at ``which``."""
    maxiter = int(50 * math.sqrt(n)) + 100
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        return spla.eigsh(op, k=k, which=which, v0=v0, tol=LANCZOS_TOL,
                          maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"Lanczos ({which}) did not converge within "
                               f"{maxiter} iterations") from exc


def second_eigenvector(g: Graph):
    """(lambda, unit vector) attaining the nontrivial spectral radius of a
    connected regular graph, the lambda2 pair of extreme_eigenvalues(g, 0);
    raises EigensolverError when Lanczos does not converge."""
    s = extreme_eigenvalues(g, 0)
    if s.lambda2_vector is None:
        raise ValueError("graph must be regular")
    return s.pairs[-1][0], s.lambda2_vector


def spectral_threshold(d: int):
    """(theorem bound (3/sqrt 2) sqrt d, sharper bound (3d-1)/sqrt(2d-1)).

    The sharper constant b = (3d-1)/sqrt(d(2d-1)) satisfies
    b < 3/sqrt(2) < 3 for every d >= 2.
    """
    if not 2 <= d < MAX_VERTICES:
        raise ValueError(f"d must be at least 2 and below {MAX_VERTICES}")
    theorem = 3.0 / math.sqrt(2.0) * math.sqrt(d)
    proposition = (3.0 * d - 1.0) / math.sqrt(2.0 * d - 1.0)
    assert proposition < theorem < 3.0 * math.sqrt(d)
    return theorem, proposition


@dataclass
class QuadraticBound:
    lhs: float
    rhs: float
    ok: bool


def tree_quadratic_bound_check(tree: DaryTree, f) -> QuadraticBound:
    """|f^T A_T f| <= 2 sqrt(d) sum_W f^2 + sqrt(d) sum_L f^2 on a d-ary tree
    (W = non-leaves, L = leaves); holds for every f."""
    f = np.asarray(f, dtype=float)
    if len(f) != tree.graph.n:
        raise ValueError("vector length must match tree size")
    lhs = abs(float(f @ (tree.graph.csr() @ f)))
    sd = math.sqrt(tree.d)
    leaves = tree.leaves
    leaf_mass = float(np.sum(f[leaves] ** 2))
    total = float(np.sum(f ** 2))
    rhs = 2.0 * sd * (total - leaf_mass) + sd * leaf_mass
    return QuadraticBound(lhs, rhs, lhs <= rhs + 1e-12)


# -- layered growth checker ---------------------------------------------------

@dataclass
class KahaleInstance:
    """Layer structure around a vertex set X with a per-layer positive
    test function s and a growth rate mu."""
    h: int
    layers: list                 # X_0..X_h as vertex index arrays
    s: np.ndarray                # per-vertex values, 0 outside the layers
    mu: float


def kahale_instance(g: Graph, X, h: int, s_by_layer, mu: float) -> KahaleInstance:
    """Build layers X_i = vertices at distance i from X and spread the
    per-layer s values onto them."""
    if h < 1:
        raise ValueError("h must be at least 1")
    if len(s_by_layer) < h + 1:
        raise ValueError("need s values for layers 0..h")
    dist = _hop_distances(g.indptr, g.indices, list(X), h)
    layers = [np.nonzero(dist == i)[0] for i in range(h + 1)]
    s = np.zeros(g.n)
    for i, lay in enumerate(layers):
        s[lay] = s_by_layer[i]
    return KahaleInstance(h, layers, s, mu)


@dataclass
class KahaleVerdict:
    condition1: bool
    condition2: bool
    condition3: bool
    condition3_margin: float       # min over checked v of |mu| s(v) - As(v)
    premise_ok: bool | None = None
    ratio_lo: float | None = None  # layer h-1 mass ratio of the test vector
    ratio_hi: float | None = None  # layer h mass ratio
    conclusion: bool | None = None

    @property
    def conditions_ok(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3


def kahale_check(g: Graph, inst: KahaleInstance, test_vec=None,
                 test_mu: float | None = None) -> KahaleVerdict:
    """Verify the three layered-growth conditions, and, given an (exact)
    eigenvector as test_vec, the outward mass-ratio conclusion.

    Condition 1 (layer regularity) is checked for the layer pairs
    (h-1, h-1), (h-1, h), (h, h-1), (h, h) only.  Condition 3 checks
    A s <= |mu| s on every vertex within distance h-1 of X.  Condition 3
    and the conclusion allow slack KAHALE_TOL, the eigenvector premise 1e-6.
    """
    h = inst.h
    layers = inst.layers
    if any(len(lay) == 0 for lay in layers):
        raise ValueError("inconsistent layers: some layer up to h is empty")
    near = np.concatenate(layers[:h])         # distance <= h-1
    cond1 = True
    for i in (h - 1, h):
        nbrs, deg = _neighbours(g.indptr, g.indices, layers[i])
        rows = np.repeat(np.arange(len(layers[i])), deg)
        for j in (h - 1, h):
            # the neighbours each vertex of layer i has in layer j
            counts = np.bincount(rows, weights=np.isin(nbrs, layers[j]),
                                 minlength=len(layers[i]))
            cond1 = cond1 and bool((counts == counts[0]).all())

    svals = [inst.s[lay] for lay in layers]
    cond2 = all(np.ptp(sv) == 0 for sv in (svals[h - 1], svals[h]))
    positive = all((sv > 0).all() for sv in svals)

    As = g.csr() @ inst.s
    margin = float((abs(inst.mu) * inst.s[near] - As[near]).min())
    cond3 = positive and margin >= -KAHALE_TOL

    verdict = KahaleVerdict(cond1, cond2, cond3, margin)
    if test_vec is not None:
        gv = np.asarray(test_vec, dtype=float)
        mu_g = abs(test_mu) if test_mu is not None else abs(inst.mu)
        Ag = g.csr() @ gv
        premise = float(np.abs(np.abs(Ag[near]) - mu_g * np.abs(gv[near])).max())
        verdict.premise_ok = premise <= 1e-6
        num_hi = float(np.sum(gv[layers[h]] ** 2))
        den_hi = float(np.sum(inst.s[layers[h]] ** 2))
        num_lo = float(np.sum(gv[layers[h - 1]] ** 2))
        den_lo = float(np.sum(inst.s[layers[h - 1]] ** 2))
        verdict.ratio_lo = num_lo / den_lo
        verdict.ratio_hi = num_hi / den_hi
        verdict.conclusion = verdict.ratio_hi >= verdict.ratio_lo - KAHALE_TOL
    return verdict


# -- interface test-function sequence -----------------------------------------

@dataclass
class TestFunctionSequence:
    """The layer values s_i (and ratio drivers x_i) that are super-harmonic
    for growth rate (b + epsilon) sqrt(d) around the carved tree pair.

    b = (3d-1)/sqrt(d(2d-1)) and c = sqrt((2d-1)/d) satisfy c + 1/c = b.
    s_i = c^i d^(-i/2) up to layer r, then the decay steepens: the ratio
    between consecutive scaled terms follows x_1 = 1/c,
    x_{i+1} = min(b + eps - 1/x_i, c), which is nondecreasing and reaches c
    after at most ceil(1/eps) steps.
    """
    b: float
    c: float
    x: np.ndarray              # x_1 .. x_{length+1}
    s: np.ndarray              # s_0 .. s_{r+1+length}
    checks: dict


def kahale_sequence(d: int, epsilon: float, r: int, length: int = 0
                    ) -> TestFunctionSequence:
    if d < 2:
        raise ValueError("d must be at least 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if r < 1:
        raise ValueError("r must be at least 1")
    b = (3.0 * d - 1.0) / math.sqrt(d * (2.0 * d - 1.0))
    c = math.sqrt((2.0 * d - 1.0) / d)
    sd = math.sqrt(d)

    nx = length + 1
    x = np.empty(max(nx, 1))
    x[0] = 1.0 / c
    for i in range(1, nx):
        x[i] = min(b + epsilon - 1.0 / x[i - 1], c)

    s = np.empty(r + 2 + length)
    for i in range(r + 1):
        s[i] = c ** i * d ** (-i / 2.0)
    alpha = c ** (r - 1)
    s[r + 1] = alpha * d ** (-(r + 1) / 2.0)
    for i in range(1, length + 1):
        alpha *= x[i - 1]          # alpha_i = alpha_{i-1} x_i
        s[r + 1 + i] = alpha * d ** (-(r + 1 + i) / 2.0)

    mu = (b + epsilon) * sd
    checks = {
        "c_plus_inverse_is_b": abs(c + 1.0 / c - b),
        "root_level": (c / sd) * (d + 1) <= mu + 1e-12,
        "interior_levels": (1.0 / c + c) <= b + epsilon + 1e-12,
        "level_r_identity": abs(2.0 / c + (d - 1.0) / (d * c) - b),
        "beyond_r": all(1.0 / x[i] + x[i + 1] <= b + epsilon + 1e-12
                        for i in range(nx - 1)),
        "x_nondecreasing": bool((np.diff(x) >= -1e-15).all()),
        "x_reaches_c": bool(all(abs(x[i] - c) <= 1e-12
                                for i in range(math.ceil(1.0 / epsilon), nx))),
    }
    return TestFunctionSequence(b, c, x, s, checks)
