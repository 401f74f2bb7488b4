"""Ramanujan base graphs: the quaternion Cayley-graph family over PSL(2, q),
an external edge-list loader, and the validator that decides which carving
radii a measured base actually supports."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import MAX_VERTICES, Graph, build_graph, girth, is_bipartite, \
    is_regular, load_edge_list
from .spectral import DisconnectedGraphError, extreme_eigenvalues

load_graph = load_edge_list
RAMANUJAN_TOL = 1e-8     # slack on the measured lambda2 <= 2 sqrt(d)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def legendre_symbol(a: int, p: int) -> int:
    """1 if a is a nonzero square mod p, -1 if not, 0 if p divides a."""
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def sqrt_minus_one(q: int) -> int:
    """A square root of -1 mod q (q prime, q = 1 mod 4), found by powering
    random candidates from a fixed seed, so the root (and every LPS graph)
    is reproducible; nonresidues succeed, so a few tries suffice."""
    rng = np.random.default_rng(0)
    for _ in range(128):
        z = int(rng.integers(2, q))
        i = pow(z, (q - 1) // 4, q)
        if (i * i) % q == q - 1:
            return i
    raise RuntimeError(f"no sqrt(-1) mod {q} found; is q = 1 mod 4 prime?")


def quaternion_generators(p: int) -> list:
    """Integer quaternions (a0, a1, a2, a3) with a0^2+a1^2+a2^2+a3^2 = p,
    a0 positive odd, the rest even; for p = 1 mod 4 there are exactly p+1."""
    lim = int(math.isqrt(p))
    evens = range(-(lim - lim % 2), lim + 1, 2)
    sols = []
    for a0 in range(1, lim + 1, 2):
        rest = p - a0 * a0
        for a1 in evens:
            if a1 * a1 > rest:
                continue
            for a2 in evens:
                if a1 * a1 + a2 * a2 > rest:
                    continue
                for a3 in evens:
                    if a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p:
                        sols.append((a0, a1, a2, a3))
    return sols


@dataclass
class LpsParams:
    """Parameters of the quaternion Cayley graph: primes p, q = 1 mod 4 with
    q > 2 sqrt(p); the graph is (p+1)-regular on PSL(2,q) when p is a square
    mod q (the non-bipartite branch this package supports)."""
    p: int
    q: int
    legendre: int = field(init=False)

    def __post_init__(self):
        # size checks first, so that no huge p or q reaches trial division
        n = self.q * (self.q ** 2 - 1) // 2
        if n > MAX_VERTICES:
            raise ValueError(f"q = {self.q} gives {n} vertices > {MAX_VERTICES}")
        if self.q * self.q <= 4 * self.p:
            raise ValueError(f"need q > 2 sqrt(p), got q = {self.q}")
        if not _is_prime(self.p) or self.p % 4 != 1:
            raise ValueError(f"p = {self.p} must be a prime = 1 mod 4")
        if not _is_prime(self.q) or self.q % 4 != 1:
            raise ValueError(f"q = {self.q} must be a prime = 1 mod 4")
        if self.p == self.q:
            raise ValueError("p and q must be distinct")
        self.legendre = legendre_symbol(self.p, self.q)


def _canon(m: np.ndarray, q: int) -> np.ndarray:
    """Projective representatives of the rows (a, b, c, d) of ``m`` mod q,
    scaled so the first nonzero of (a, b) is 1; faithful on PSL in PGL."""
    inv = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)])
    m = m % q
    return m * np.where(m[:, 0] != 0, inv[m[:, 0]], inv[m[:, 1]])[:, None] % q


def generator_matrices(p: int, q: int) -> list:
    """The canonical projective generator matrices: the quaternion
    solutions mapped through a square root of -1 mod q."""
    iq = sqrt_minus_one(q)
    a0, a1, a2, a3 = np.array(quaternion_generators(p)).reshape(-1, 4).T
    m = np.column_stack([a0 + iq * a1, a2 + iq * a3, -a2 + iq * a3,
                         a0 - iq * a1])
    return [tuple(g) for g in _canon(m, q).tolist()]


def lps_graph(p: int, q: int) -> Graph:
    """The (p+1)-regular quaternion Cayley graph on PSL(2, q).

    Vertices are the q(q^2-1)/2 projective matrices with square determinant;
    generators come from the p+1 quaternion solutions mapped through a square
    root of -1 mod q.  Only the non-bipartite case (p a square mod q) is
    generated; the bipartite case is rejected with guidance.
    """
    if LpsParams(p, q).legendre != 1:
        raise ValueError(
            f"p = {p} is not a square mod q = {q}: that branch is bipartite "
            f"on all of PGL(2, q); pick another q (e.g. one with (p|q) = 1)")
    gens = generator_matrices(p, q)
    if len(gens) != p + 1:
        raise RuntimeError(
            f"found {len(gens)} quaternion solutions, expected p+1 = {p + 1}")
    if len(set(gens)) != p + 1:
        raise RuntimeError("generator matrices collide; q too small?")

    # PSL(2, q): matrices (1, b, c, d) with det d - bc a nonzero square,
    # then (0, 1, c, d) with det -c one, each in lexicographic order
    square = np.zeros(q, dtype=bool)
    square[np.arange(1, q) ** 2 % q] = True
    b, c, dd = np.indices((q, q, q)).reshape(3, -1)
    c2, d2 = np.indices((q - 1, q)).reshape(2, -1) + [[1], [0]]
    verts = np.concatenate([
        np.column_stack([np.ones_like(b), b, c, dd])[square[(dd - b * c) % q]],
        np.column_stack([0 * c2, np.ones_like(c2), c2, d2])[square[-c2 % q]]])
    n = q * (q * q - 1) // 2
    if len(verts) != n:
        raise RuntimeError(f"enumerated {len(verts)} PSL elements, expected {n}")
    # each vertex times each generator, located among the sorted vertices
    place = q ** np.arange(3, -1, -1)
    codes = verts @ place
    order = np.argsort(codes)
    a, b, c, dd = verts.T
    ends = []
    for e, f, gg, hh in gens:
        w = _canon(np.column_stack([a * e + b * gg, a * f + b * hh,
                                    c * e + dd * gg, c * f + dd * hh]), q) @ place
        ends.append(order[np.minimum(np.searchsorted(codes[order], w), n - 1)])
        if (codes[ends[-1]] != w).any():
            raise RuntimeError("a generator maps a vertex outside PSL(2, q)")
    i, j = np.tile(np.arange(n), p + 1), np.concatenate(ends)
    if (i == j).any():
        raise RuntimeError("generator fixes a vertex; not simple")
    # the generators are inverse-closed, so each edge is met from both ends
    g = build_graph(n, np.column_stack([i, j])[i < j])
    if is_regular(g) != p + 1:
        raise RuntimeError("Cayley graph is not (p+1)-regular")
    return g


@dataclass
class BaseReport:
    """Measured facts about a candidate base graph and the checks they
    imply for carving radius r."""
    n: int
    degree: int | None
    bipartite: bool
    girth: float
    lambda2_abs: float
    ramanujan_ok: bool
    girth_ok_for_r: int | None   # largest radius the girth admits; None if acyclic
    checks: dict

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        out = dict(n=self.n, degree=self.degree, bipartite=self.bipartite,
                   girth=(None if self.girth == math.inf else int(self.girth)),
                   lambda2_abs=(None if self.lambda2_abs == math.inf
                                else self.lambda2_abs),
                   ramanujan_ok=self.ramanujan_ok,
                   girth_ok_for_r=self.girth_ok_for_r, checks=self.checks)
        return json.dumps(out, sort_keys=True, allow_nan=False)


def validate_base(g: Graph, d: int, r: int) -> BaseReport:
    """Check, by measurement, everything the gluing construction needs from
    a base: (d+1)-regularity, non-bipartiteness, girth > 4r (site margin),
    girth > 2(r+1)+1 (tree balls), and nontrivial spectral radius within
    2 sqrt(d) + RAMANUJAN_TOL.  Failures are reported, not raised; a d no
    graph has, outside [0, MAX_VERTICES), is refused by name."""
    if not 0 <= d < MAX_VERTICES:
        raise ValueError(f"d must lie in [0, {MAX_VERTICES})")
    deg = is_regular(g)
    gv = girth(g)
    lam2, connected = math.inf, g.n > 0
    if connected:
        # the solve tests connectivity, so it is tested once
        try:
            lam2 = extreme_eigenvalues(g, how_many=0).lambda2_abs
        except DisconnectedGraphError:
            connected = False
    bip = is_bipartite(g)
    ram_ok = lam2 <= 2.0 * math.sqrt(d) + RAMANUJAN_TOL
    # the largest r with girth > max(4r, 2(r+1)+1); a forest admits any r
    rmax = None if gv == math.inf else (gv - 1) // 4 if gv > 5 else 0
    checks = {
        "regular_d_plus_1": deg == d + 1,
        "connected": connected,
        "non_bipartite": not bip,
        "girth_exceeds_4r": gv > 4 * r,
        "tree_balls_radius_r_plus_1": gv > 2 * (r + 1) + 1,
        "ramanujan_margin": ram_ok,
    }
    return BaseReport(g.n, deg, bip, gv, lam2, ram_ok, rmax, checks)
