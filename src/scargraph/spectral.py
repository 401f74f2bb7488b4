"""Eigenvalue machinery: extreme eigenvalues with certified residuals, the
tree quadratic-form bound, the Kahale-style layered growth checker and the
interface test functions.  lambda2 of a regular graph above DENSE_CUTOFF
comes from the plain three-term Lanczos recurrence, which keeps no basis;
the spectrum's ends stay on ARPACK.  Long-vector norms and dots use
scipy.linalg.blas, the OpenBLAS pool ARPACK runs on, not numpy's separately
bundled pool; the recurrence's dots run over fixed blocks, so lambda2 does
not depend on the thread count.  Each function imports the scipy names it
uses when it runs, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (MAX_VERTICES, Graph, _hop_distances, _neighbours,
                     is_connected, is_regular)
from .trees import DaryTree

DENSE_CUTOFF = 320      # dense eigh up to here; Lanczos is faster beyond
LANCZOS_TOL = 1e-10     # relative accuracy asked of each Ritz value
LANCZOS_SEED = 0        # seeds the Lanczos start vector, so runs repeat
DOT_BLOCK = 8192        # _blocked_dot's block, a single-threaded ddot
KAHALE_TOL = 1e-9       # slack on kahale_check's inequalities


class EigensolverError(RuntimeError):
    """Iterative eigensolver failed to converge."""


class DisconnectedGraphError(ValueError):
    """A spectral solve was asked of a disconnected graph, which has no
    spectral gap; callers that test connectivity catch it."""


@dataclass
class SpectralSummary:
    lambda_top: float
    lambda2_abs: float
    method: str                      # "dense" | "iterative"
    iterations: int
    residual_bound: float
    pairs: list                      # (eigenvalue, residual 2-norm) extremes


def residual(g: Graph, v, lam: float):
    """(max-norm, 2-norm) of A v - lam v via one sparse multiply."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("vector must be nonzero")
    r = g.csr() @ v - lam * v
    return float(np.abs(r).max()), norm2(r)


def norm2(x) -> float:
    """2-norm of a float vector on scipy's BLAS, the pool ARPACK uses."""
    from scipy.linalg import blas
    return math.sqrt(blas.ddot(x, x)) if len(x) else 0.0


def _blocked_dot(x, y) -> float:
    """x . y as a sum of ddots over fixed blocks of DOT_BLOCK entries,
    each below OpenBLAS's 10000-entry threading cutoff, so it does not
    depend on the thread count, as a threaded ddot's rounding does."""
    from scipy.linalg import blas
    return sum(blas.ddot(x[i:i + DOT_BLOCK], y[i:i + DOT_BLOCK])
               for i in range(0, len(x), DOT_BLOCK))


def extreme_eigenvalues(g: Graph, how_many: int = 2) -> SpectralSummary:
    """Extreme adjacency eigenvalues with certified residuals.

    Dense symmetric solve up to DENSE_CUTOFF (320) vertices; beyond that
    Lanczos to relative accuracy LANCZOS_TOL from a start vector seeded
    with LANCZOS_SEED.  On a connected regular graph lambda2_abs is the
    larger-magnitude end of one run of the three-term recurrence
    (_three_term) on A deflated of the all-ones eigenvector, so it never
    reports the trivial eigenvalue; the run sums no Ritz vector, which
    second_eigenvector does in a second run.  The spectrum's ends
    (how_many > 0, and every non-regular graph) are ARPACK's implicitly
    restarted Lanczos (eigsh), which keeps the k orthogonal pairs per end
    that the recurrence cannot.  ``iterations`` counts the matvecs of the
    end solves and of the one run.  The two paths broke even near 320
    vertices with ARPACK for lambda2 (between 320 and 384 on random
    3-regular graphs, between 256 and 320 on 14-regular ones), and at 2448
    vertices Lanczos was about 100x faster.  Callers that need every
    eigenvector (CLI qe, test oracles) call scipy's eigh themselves.

    ``pairs`` lists only pairs with a measured residual: how_many
    eigenpairs per spectrum end, largest first.  how_many=0 lists no ends:
    ``pairs`` then holds the top pair, followed on the dense path by the
    lambda2_abs pair.  Above the cutoff a regular graph then runs no end
    solve, and its top pair is (degree, residual of the all-ones vector),
    exact.  Above the cutoff a regular graph's lambda2_abs is a Ritz value
    without a pair; ``residual_bound``, the largest listed residual, then
    also covers its Lanczos error estimate beta_k |s_k|.  A non-regular
    graph above the cutoff lists at least two pairs per end, as its
    lambda2_abs is read off the ends.  A disconnected graph raises
    DisconnectedGraphError.
    """
    _check_connected(g)
    if g.n <= DENSE_CUTOFF:
        return _extreme_dense(g, how_many)
    return _extreme_iterative(g, how_many)


def _check_connected(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("empty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("graph must be connected")


def _dense(g: Graph):
    """(ascending eigenvalues, eigenvector columns, index of lambda2_abs's
    eigenvalue) from one dense eigh."""
    from scipy.linalg import eigh
    w, vecs = eigh(g.csr().toarray())
    i2 = 0 if g.n == 1 or abs(w[0]) >= abs(w[-2]) else g.n - 2
    return w, vecs, i2


def _extreme_dense(g: Graph, how_many: int) -> SpectralSummary:
    w, vecs, i2 = _dense(g)
    lam2 = abs(float(w[i2])) if g.n > 1 else 0.0
    k = min(how_many, g.n)
    # k pairs per end; with none asked, the top pair and the lambda2 pair
    picks = set(range(g.n - k, g.n)) | set(range(k)) or {g.n - 1, i2}
    pairs = [(float(w[i]), residual(g, vecs[:, i], w[i])[1])
             for i in sorted(picks, reverse=True)]
    return SpectralSummary(float(w[-1]), lam2, "dense", 0,
                           max(r for _, r in pairs), pairs)


def _lanczos_start(n: int):
    """(seeded start vector, step limit) of a Lanczos solve on n vertices."""
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    return v0, int(50 * math.sqrt(n)) + 100


def _extreme_iterative(g: Graph, how_many) -> SpectralSummary:
    a = g.csr()
    n = g.n
    v0, maxiter = _lanczos_start(n)
    count = [0]

    def mv(x):
        count[0] += 1
        return a @ x

    deg = is_regular(g)
    # lambda2 of a non-regular graph is read off the ends: two pairs each
    k = min(how_many if deg is not None else max(2, how_many), n - 2)
    if k:
        pairs = []
        for which in ("LA", "SA"):
            w, vv = _lanczos(mv, k, which, v0, maxiter)
            pairs += [(float(lam), residual(g, vec, lam)[1])
                      for lam, vec in zip(w, vv.T)]
        pairs.sort(key=lambda p: -p[0])
    else:
        # no end solve: (deg, all-ones) is an exact eigenpair, residual 0
        pairs = [(float(deg), residual(g, np.ones(n), deg)[1] / math.sqrt(n))]
    res = max(r for _, r in pairs)
    if deg is None:
        lam2 = max(abs(pairs[1][0]), abs(pairs[-1][0]))
    else:
        theta, _, estimate = _deflated_end(_deflated_run(mv, v0), maxiter)
        lam2, res = abs(theta), max(res, estimate)
    return SpectralSummary(pairs[0][0], lam2, "iterative", count[0], res,
                           pairs)


def _deflated_run(matvec, v0):
    """A fresh _three_term run on A deflated of the all-ones vector, a
    regular graph's top eigenvector, from the unit deflated part of v0;
    ``matvec`` is x -> A x.  Equal arguments give equal runs."""
    start = v0 - v0.mean()
    start /= math.sqrt(_blocked_dot(start, start))

    def deflated(x):
        y = matvec(x - x.mean())
        y -= y.mean()
        return y
    return _three_term(deflated, start)


def _three_term(matvec, q):
    """Plain Lanczos on the symmetric operator ``matvec`` from the unit
    vector q: yields (alpha_j, beta_j, q_j) for j = 1, 2, ... with
    A q_j = beta_{j-1} q_{j-1} + alpha_j q_j + beta_j q_{j+1}.  It keeps
    q_{j-1}, q_j and A q_j only: no basis, no reorthogonalization.  The
    caller stops at a breakdown (beta_j = 0)."""
    from scipy.linalg import blas
    prev, beta = np.zeros_like(q), 0.0
    while True:
        w = matvec(q)
        blas.daxpy(prev, w, a=-beta)
        alpha = _blocked_dot(q, w)
        blas.daxpy(q, w, a=-alpha)
        beta = math.sqrt(_blocked_dot(w, w))
        yield alpha, beta, q
        w /= beta
        prev, q = q, w


def _deflated_end(run, maxiter):
    """(theta, s, estimate): the larger-magnitude end of the tridiagonal
    T_k that k steps of the _three_term ``run`` give, its unit eigenvector
    (length k, so k is the step count) and its error estimate
    beta_k |s_k|.

    Every 10 steps, and at a breakdown, both ends of T_k are solved; the
    run stops once each end's error estimate is at most LANCZOS_TOL times
    the larger end's magnitude.  Without reorthogonalization converged
    values get ghost copies, but an extreme one stays accurate (Paige
    1976), so the ends need no basis.  Raises EigensolverError after
    maxiter steps."""
    from scipy.linalg import eigh_tridiagonal
    alpha, beta, big = [], [], 0.0
    for a_j, b_j, _ in run:
        # big: T_j's largest entry, at most the larger end's magnitude, so
        # a beta_j at most LANCZOS_TOL times it meets every estimate
        big = max(big, abs(a_j), beta[-1] if beta else 0.0)
        alpha.append(a_j)
        beta.append(b_j)
        k = len(alpha)
        if k % 10 and b_j > LANCZOS_TOL * big and k < maxiter:
            continue
        ends = [eigh_tridiagonal(alpha, beta[:-1], select="i",
                                 select_range=(i, i)) for i in (0, k - 1)]
        tol = LANCZOS_TOL * max(abs(w[0]) for w, _ in ends)
        if all(b_j * abs(s[-1, 0]) <= tol for _, s in ends):
            w, s = max(ends, key=lambda e: abs(e[0][0]))
            return float(w[0]), s[:, 0], b_j * abs(s[-1, 0])
        if k >= maxiter:
            raise EigensolverError("Lanczos (LM) did not converge within "
                                   f"{maxiter} iterations")


def _lanczos(matvec, k, which, v0, maxiter):
    """eigsh on the operator ``matvec``: k Ritz pairs at ``which``, for the
    spectrum's ends."""
    import scipy.sparse.linalg as spla
    n = len(v0)
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        return spla.eigsh(op, k=k, which=which, v0=v0, tol=LANCZOS_TOL,
                          maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"Lanczos ({which}) did not converge within "
                               f"{maxiter} iterations") from exc


def second_eigenvector(g: Graph):
    """(lambda, unit vector) attaining the nontrivial spectral radius of a
    connected regular graph, |lambda| = extreme_eigenvalues' lambda2_abs:
    the dense eigh's pair, or above DENSE_CUTOFF the Rayleigh quotient of
    the Ritz vector sum_j s_j q_j, which a second run of the recurrence
    sums; raises EigensolverError when Lanczos does not converge."""
    from scipy.linalg import blas
    _check_connected(g)
    if g.n <= DENSE_CUTOFF:
        w, vecs, i2 = _dense(g)
        return float(w[i2]), vecs[:, i2]
    if is_regular(g) is None:
        raise ValueError("graph must be regular")
    a = g.csr()
    v0, maxiter = _lanczos_start(g.n)
    _, s, _ = _deflated_end(_deflated_run(a.dot, v0), maxiter)
    v = np.zeros(g.n)
    for sj, (_, _, q) in zip(s, _deflated_run(a.dot, v0)):
        blas.daxpy(q, v, a=sj)
    v -= v.mean()
    v /= norm2(v)
    return blas.ddot(v, a @ v), v


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
