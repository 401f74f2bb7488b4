"""Small named graphs and random regular generators used as bases,
fixtures and oracles."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, build_graph, girth

PAIRING_TRIES = 10000     # configuration-model draws before giving up
GIRTH_TRIES = 20000       # random regular graphs drawn per girth target


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(k: int) -> Graph:
    """K_{1,k}: one center adjacent to k leaves."""
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]                 # outer C5
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]        # pentagram
    edges += [(i, 5 + i) for i in range(5)]                      # spokes
    return build_graph(10, edges)


def mcgee_graph() -> Graph:
    """The (3,7)-cage: 24 vertices, 3-regular, girth 7, non-bipartite.

    LCF notation [12, 7, -7]^8 on a 24-cycle.
    """
    n = 24
    i = np.arange(n)
    j = (i + np.resize([12, 7, -7], n)) % n      # each chord from both ends
    return build_graph(n, np.concatenate([np.column_stack([i, (i + 1) % n]),
                                          np.column_stack([i, j])[i < j]]))


def random_regular_graph(n: int, degree: int, seed: int = 0) -> Graph:
    """Uniform-ish random regular graph via the configuration model,
    resampling until the pairing is simple."""
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    if degree >= n:
        raise ValueError("degree must be below n")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(PAIRING_TRIES):
        try:
            return build_graph(n, rng.permutation(stubs).reshape(-1, 2))
        except ValueError:          # a self-loop or a repeated edge
            continue
    raise RuntimeError(
        f"no simple pairing found in {PAIRING_TRIES} tries; raise n")


def random_regular_with_girth(n: int, degree: int, min_girth: int,
                              seed: int = 0) -> Graph:
    """Resample random regular graphs until the girth reaches ``min_girth``.

    Practical only while short cycles are merely Poisson-rare (min_girth
    up to ~6 for small degree); the resample count is deterministic in the
    seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(GIRTH_TRIES):
        g = random_regular_graph(n, degree, seed=int(rng.integers(2**62)))
        if girth(g) >= min_girth:
            return g
    raise RuntimeError(f"no girth-{min_girth} sample within {GIRTH_TRIES} tries")
