import dataclasses

import numpy as np
import pytest
from scipy.linalg import eigh

from scargraph.base import lps_graph
from scargraph.named import mcgee_graph, petersen_graph, random_regular_with_girth
from scargraph.scars import multi_glue


@pytest.fixture(scope="session")
def mcgee():
    return mcgee_graph()


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def lps_h():
    return lps_graph(5, 29)


@pytest.fixture(scope="session")
def mcgee_sg(mcgee):
    return multi_glue(mcgee, 1, 1, seed=7)


@pytest.fixture(scope="session")
def lps_sg(lps_h):
    return multi_glue(lps_h, 1, 1, seed=7)


@pytest.fixture(scope="session")
def lps_sg_r2(lps_h):
    return multi_glue(lps_h, 1, 2, seed=3)


@pytest.fixture(scope="session")
def cubic6():
    # small 3-regular girth-6 non-bipartite base for full-spectrum work
    return random_regular_with_girth(200, 3, 6, seed=5)


@pytest.fixture(scope="session")
def cubic6_sg2(cubic6):
    return multi_glue(cubic6, 2, 1, seed=2)


@pytest.fixture(scope="session")
def cubic6_sg2_eigh(cubic6_sg2):
    w, vecs = eigh(cubic6_sg2.graph.csr().toarray())
    return w, vecs


@pytest.fixture(scope="session")
def mcgee_sg_eigh(mcgee_sg):
    w, vecs = eigh(mcgee_sg.graph.csr().toarray())
    return w, vecs


def adjacency_lists(g):
    """Per-vertex neighbour lists of g as plain Python lists."""
    return [g.neighbors(v).tolist() for v in range(g.n)]


def timeless(cert):
    """The certificate with ``created_utc`` blanked, the one field a seeded
    build does not fix."""
    return dataclasses.replace(cert, created_utc="")


def brute_force_girth(g):
    """Exhaustive simple-cycle enumeration; cycles are counted once via
    their minimal vertex.  Only for small graphs."""
    import math
    adj = adjacency_lists(g)
    best = math.inf

    def dfs(start, v, visited, length):
        nonlocal best
        if length + 1 >= best:
            return
        for w in adj[v]:
            if w == start and length >= 2:
                best = min(best, length + 1)
            elif w > start and w not in visited:
                visited.add(w)
                dfs(start, w, visited, length + 1)
                visited.discard(w)

    for s in range(g.n):
        dfs(s, s, {s}, 0)
    return best


def random_small_graph(rng, n_max=12):
    """Erdos-Renyi-ish small simple graph for property tests."""
    from scargraph.graphs import build_graph
    n = int(rng.integers(3, n_max + 1))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                edges.append((u, v))
    return build_graph(n, edges)


def min_support_reference(v, eps):
    """(k, members) of the smallest set carrying squared mass eps, from a
    stable argsort of every entry: the rule min_support_for_mass keeps."""
    w = np.asarray(v, dtype=float) ** 2
    order = np.argsort(-w, kind="stable")
    k = min(int(np.searchsorted(np.cumsum(w[order]), eps - 1e-12)) + 1,
            len(w))
    return k, order[:k]


def cycle_through_edge_reference(lists, x, parent, cutoff):
    """1 + dist(x, parent) without the edge (x, parent), or pairing._BIG
    above ``cutoff``: a one-sided BFS from x, kept as the oracle of the
    bidirectional _cycle_through_edge."""
    from scargraph.pairing import _BIG
    if cutoff < 3:
        return _BIG
    dist = {x: 0}
    q = []
    for w in lists[x]:
        if w != parent and w not in dist:
            dist[w] = 1
            q.append(w)
    for w in q:  # breadth first: q grows while it is walked
        dw = dist[w]
        for z in lists[w]:
            if z == parent:
                return dw + 2
            if dw < cutoff - 2 and z not in dist:
                dist[z] = dw + 1
                q.append(z)
    return _BIG
