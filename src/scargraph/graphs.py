"""Immutable undirected simple graphs and the combinatorial primitives
(distances, girth, balls, expansion, cycle statistics) everything else
builds on.

Vertices are dense integer indices ``0..n-1``.  Adjacency is stored in CSR
form (an offset array plus one flat, per-vertex-sorted neighbor array) so
traversals stay cache friendly.  The CSR is the only adjacency a graph
keeps; a scipy sparse matrix is derived from it lazily and cached.  scipy
is imported on first use, inside :meth:`Graph.csr`, the cycle kernel and
the connectivity and bipartiteness tests, so importing this module loads
numpy only.  A :class:`Graph` is immutable after construction, so all
queries are safe to run concurrently.

Hop distances (:func:`bfs_distances`, :func:`ball`, :func:`is_bipartite`,
:func:`shortest_cycle_through`, the layers around a vertex set, site
packing) come from one frontier kernel, :func:`_hop_distances`: a
level-synchronous BFS from a set of sources over raw CSR arrays, one whole
level at a time.  It is the only BFS over a :class:`Graph`.  The swap
engine's mutable state (``pairing._SwapState``) is one padded neighbour
table, with no CSR and no per-vertex object, and runs its own BFS on it:
the partner search, with this kernel's level de-duplication, a
bidirectional cycle search through a movable edge, and a bit-parallel
cycle scan whose cap falls to the shortest cycle found.

Cycle statistics (:func:`girth`, :func:`bs_cycle_fraction`) come from one
kernel that counts non-backtracking walks for a chunk of sources at once,
as sparse integer matrices: ``P_1 = A[S]``, ``P_2 = P_1 A - P_0 D`` and
``P_(k+1) = P_k A - P_(k-1) (D - I)``, where row s of ``P_k`` counts the
non-backtracking walks of length k from s to each vertex and D is the
degree matrix.  Up to the first cycle near s these counts are the BFS
spheres around s, so a whole chunk of per-vertex searches costs a few
sparse products per level instead of a Python loop per edge.  ``girth``
deletes each searched chunk of sources from the graph later chunks walk
(Itai and Rodeh, 1978), which stays exact: every cycle through a searched
source is longer than the caps after its search.  It stops once the graph
left to walk is a forest, as no cycle is then left to find.
``bs_cycle_fraction`` deletes nothing, so it stops only on a forest.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INFINITE_GIRTH = math.inf
# Largest vertex count a graph may have: keeps the edge keys lo * n + hi
# well inside int64 and the offset array (8 bytes per vertex) allocatable,
# far above LPS(5, 89)'s 352440 vertices.
MAX_VERTICES = 2**26


class EdgeListFormatError(ValueError):
    """Malformed edge-list file; the message names the offending line."""


class ConstructionError(RuntimeError):
    """A construction contract (girth target, packing, regularity) failed."""


class Graph:
    """Undirected simple graph, immutable after construction.

    Use :func:`build_graph` (or the loaders in :mod:`scargraph.base`) rather
    than calling the constructor directly.
    """

    __slots__ = ("n", "indptr", "indices", "_csr")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._csr = None

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n), self.degrees())
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def csr(self) -> "scipy.sparse.csr_matrix":
        """Adjacency as a scipy CSR matrix with float64 data (cached)."""
        if self._csr is None:
            import scipy.sparse as sp
            data = np.ones(len(self.indices), dtype=np.float64)
            self._csr = sp.csr_matrix(
                (data, self.indices.copy(), self.indptr.copy()),
                shape=(self.n, self.n))
        return self._csr

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def build_graph(n: int, edges) -> Graph:
    """Canonical Graph from a vertex count and an (m, 2) array or an
    iterable of vertex pairs.

    Rejects a vertex count above ``MAX_VERTICES``, out-of-range endpoints,
    self-loops and duplicate edges.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count must be at most {MAX_VERTICES}")
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                   dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex indices")
    out, loop, repeat, lo, hi = _edge_faults(n, e)
    if out.any():
        raise ValueError(
            f"edge endpoint out of range [0, {n}): {tuple(e[out][0])}")
    if loop.any():
        raise ValueError(f"self-loop at vertex {int(e[loop][0, 0])}")
    if repeat.any():
        dup = np.flatnonzero(repeat)
        i = dup[np.argmin(lo[dup] * n + hi[dup])]
        raise ValueError(f"duplicate edge ({int(lo[i])}, {int(hi[i])})")
    return _graph_from_half_edges(n, lo, hi)


def _edge_faults(n: int, e: np.ndarray):
    """Row masks of the (m, 2) int64 array ``e``: an endpoint outside
    [0, n), a self-loop, a repeat of an earlier row's edge (by a stable sort
    of the keys lo * n + hi); then each row's ends lo <= hi.  An out-of-range
    key may equal a valid one, so only the first faulty row is reliable."""
    out = ((e < 0) | (e >= n)).any(axis=1)
    loop = e[:, 0] == e[:, 1]
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(e), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return out, loop, repeat, lo, hi


def _graph_from_half_edges(n, lo, hi) -> Graph:
    # assumes n <= MAX_VERTICES, lo < hi elementwise, no duplicates: one sort
    # of the half-edge keys src * n + dst orders the CSR by (src, dst)
    key = np.concatenate([lo * n + hi, hi * n + lo])
    key.sort()
    src, dst = np.divmod(key, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, indptr, dst.astype(np.int32))


def _neighbours(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The neighbour lists of ``rows`` in the CSR graph (indptr, indices),
    concatenated by one index array, and the length of each list."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    return indices[np.arange(ends[-1])
                   + np.repeat(starts - ends + counts, counts)], counts


def _hop_distances(indptr: np.ndarray, indices: np.ndarray, sources,
                   cap: int | None = None) -> np.ndarray:
    """Hop distance from the nearest of ``sources`` to every vertex of the
    CSR graph (indptr, indices), as int64; -1 marks vertices beyond ``cap``
    or unreachable.

    Level-synchronous: each level gathers the neighbour lists of the whole
    frontier at once, keeps the vertices not yet reached and de-duplicates
    them.  To de-duplicate in O(frontier), the position of each candidate
    is written into ``slot``; of several copies of a vertex exactly one
    finds its own position there afterwards.
    """
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    level = 0
    while frontier.size and (cap is None or level < cap):
        nbrs = _neighbours(indptr, indices, frontier)[0]
        nbrs = nbrs[dist[nbrs] < 0]
        pos = np.arange(len(nbrs))
        slot[nbrs] = pos
        frontier = nbrs[slot[nbrs] == pos]
        level += 1
        dist[frontier] = level
    return dist


def bfs_distances(g: Graph, source: int, cap: int | None = None) -> np.ndarray:
    """Hop counts from ``source`` as int64; -1 past ``cap`` or unreached."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    return _hop_distances(g.indptr, g.indices, [source], cap)


# Entries one path-count matrix may hold per chunk of sources; the chunk is
# this budget over the widest sphere the current cap lets a source reach.
_CHUNK_ENTRIES = 1 << 18


def _widest_sphere(n: int, max_degree: int, cap) -> int:
    """Upper bound on the deepest sphere a search capped at ``cap`` reaches:
    level (cap+1)//2 holds at most max_degree (max_degree-1)^(level-1)
    vertices, and never more than n."""
    if cap == INFINITE_GIRTH:
        return n
    width = max_degree
    for _ in range((int(cap) + 1) // 2 - 1):
        if width >= n:
            break
        width *= max_degree - 1
    return max(1, min(n, width))


def _first_cycle_lengths(g: Graph, cap, shrink: bool) -> np.ndarray:
    """For each source s, the first cycle length the non-backtracking path
    counts from s reveal, or 0 where none is revealed.  Every length up to
    ``cap`` is found; the last level searched may also report cap+1.

    While the radius-k ball around s induces a tree, row s of ``P_j``
    (j <= k) is the 0/1 indicator of the sphere at distance j: every
    non-backtracking walk of length j from s is the unique geodesic to its
    endpoint.  A level-k vertex then steps to its children and to its
    neighbours on level k, and the recursion cancels the steps back to
    level k-1 exactly.  So ``P_(k+1)`` is supported on levels k and k+1, and

    * it meets the support of ``P_k`` iff an edge joins two level-k
      vertices, which closes a cycle of length 2k+1 through s's ball;
    * an entry on level k+1 is the number of level-k neighbours of that
      vertex, so an entry >= 2 closes a cycle of length 2k+2.

    The odd test is made first, since an entry >= 2 on level k (two edges
    inside level k) is also an odd cycle.  No shorter cycle was missed,
    because each smaller length would have fired at an earlier level.  The
    value is thus min over the non-tree edges (x, y) of the BFS from s of
    dist(x) + dist(y) + 1: its minimum over s is the girth, and it is at
    most 2R+1 iff the radius-R ball around s contains a cycle.  Counts stay
    0/1 until the level where a source stops, so int32 cannot overflow.

    Sources run in chunks, in id order, sized from ``_CHUNK_ENTRIES``.  With
    ``shrink`` the cap drops to one below the shortest length found, after
    every level, and each finished chunk's sources are deleted, so later
    chunks walk the graph induced on the rest, with its degrees in ``D``.
    Every cycle through a searched s is at least value(s), which exceeds
    the next cap, or longer than the cap then in force; the cap only falls,
    so no cycle later sources still look for passes through s, and any
    adjacency between the rest and G keeps the minimum exact.  Only the
    minimum of the result is then meaningful.
    The search stops when the sources left are the graph left to walk
    (always so with ``shrink``, only at the start without) and that graph
    is a forest, m' = n' - components (counted only when m' < n'): every
    cycle not yet found lies in it.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    n = g.n
    lengths = np.zeros(n, dtype=np.int64)
    adj = sp.csr_matrix(
        (np.ones(len(g.indices), dtype=np.int32), g.indices, g.indptr),
        shape=(n, n))
    base = start = 0        # adj is the graph induced on ids base..n-1
    while start < n:
        m = adj.nnz // 2
        if start == base and m < n - base and m == n - base - \
                connected_components(adj, directed=False, return_labels=False):
            break           # the sources left walk a forest: no cycle left
        deg = np.diff(adj.indptr).astype(np.int32)
        size = max(1, _CHUNK_ENTRIES // _widest_sphere(
            n - base, int(deg.max(initial=0)), cap))
        rows = np.arange(start, min(n, start + size))
        start = rows[-1] + 1
        prev = sp.csr_matrix(
            (np.ones(len(rows), dtype=np.int32), rows - base,
             np.arange(len(rows) + 1)), shape=(len(rows), n - base))
        cur = adj[rows - base]
        k = 1
        while cur.nnz and 2 * k + 1 <= cap:
            back = prev.copy()
            back.data *= deg[back.indices] - (1 if k > 1 else 0)
            nxt = cur @ adj - back
            odd = nxt.multiply(cur).getnnz(axis=1) > 0
            even = np.zeros(len(rows), dtype=bool)
            at = np.nonzero(nxt.data >= 2)[0]
            even[np.searchsorted(nxt.indptr, at, side="right") - 1] = True
            even &= ~odd
            lengths[rows[even]] = 2 * k + 2
            lengths[rows[odd]] = 2 * k + 1
            hit = odd | even
            if shrink and hit.any():
                cap = min(cap, int(lengths[rows[hit]].min()) - 1)
            keep = np.nonzero(~hit & (np.diff(nxt.indptr) > 0))[0]
            prev, cur = cur, nxt
            if len(keep) < len(rows):
                prev, cur, rows = prev[keep], cur[keep], rows[keep]
            k += 1
        if shrink:
            adj = adj[start - base:, start - base:]
            base = start
    return lengths


def girth(g: Graph):
    """Length of the shortest cycle; ``math.inf`` for forests.

    The minimum over all sources of the first cycle length the
    non-backtracking path counts reveal (see :func:`_first_cycle_lengths`),
    which for the first-searched vertex of a shortest cycle is that cycle's
    length.  Once a cycle is found, later sources stop one level before
    they could only match it, and they walk the graph without the searched
    sources, so the searches grow shallower and narrower as they go, and
    stop once that graph is a forest: a forest searches no source at all.
    """
    lengths = _first_cycle_lengths(g, INFINITE_GIRTH, shrink=True)
    found = lengths[lengths > 0]
    return int(found.min()) if found.size else INFINITE_GIRTH


def shortest_cycle_through(g: Graph, v: int):
    """Shortest cycle containing v: returns (length, cycle) or (inf, None),
    the cycle starting at v.  Per neighbour w, one :func:`_hop_distances`
    search from v on the CSR without the edge (v, w); if it reaches w, the
    walk back from w steps to a neighbour one hop nearer v each time, never
    along (v, w), as dist[w] >= 2."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    src = np.repeat(np.arange(g.n), g.degrees())
    length, cycle = INFINITE_GIRTH, None
    for w in g.neighbors(v).tolist():
        keep = ((src != v) | (g.indices != w)) & ((src != w) | (g.indices != v))
        indptr = np.zeros_like(g.indptr)
        np.cumsum(np.bincount(src[keep], minlength=g.n), out=indptr[1:])
        dist = _hop_distances(indptr, g.indices[keep], [v])
        if 0 < dist[w] < length - 1:
            path = [w]
            while path[-1] != v:
                nbrs = g.neighbors(path[-1])
                path.append(int(nbrs[dist[nbrs] == dist[path[-1]] - 1][0]))
            length, cycle = len(path), [v] + path[:-1]
    return length, cycle


@dataclass
class Ball:
    """Induced subgraph on a radius-R ball, with its BFS layer structure."""
    vertices: np.ndarray        # original ids, sorted by (distance, id)
    layers: list                # original ids per distance
    subgraph: Graph
    is_tree: bool


def ball(g: Graph, v: int, radius: int) -> Ball:
    """Induced subgraph on all vertices within ``radius`` hops of v."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    dist = bfs_distances(g, v, cap=radius)
    layers = [np.sort(np.nonzero(dist == r)[0]) for r in range(radius + 1)]
    layers = [lay for lay in layers if len(lay)]
    verts = np.concatenate(layers)
    # the ball's rows in local ids; an outside end is -1, so src < dst keeps
    # each inside edge once
    local = np.full(g.n, -1, dtype=np.int64)
    local[verts] = np.arange(len(verts))
    nbrs, counts = _neighbours(g.indptr, g.indices, verts)
    src = np.repeat(np.arange(len(verts)), counts)
    dst = local[nbrs]
    keep = src < dst
    sub = build_graph(len(verts), np.column_stack([src[keep], dst[keep]]))
    # the ball is connected, so acyclic iff m = n - 1
    return Ball(verts, [lay.tolist() for lay in layers], sub,
                sub.num_edges == sub.n - 1)


def is_bipartite(g: Graph) -> bool:
    """True iff no edge joins two vertices at even hop distance from one
    root per connected component, i.e. iff the BFS parity is a 2-coloring."""
    from scipy.sparse.csgraph import connected_components
    _, labels = connected_components(g.csr(), directed=False)
    roots = np.unique(labels, return_index=True)[1]
    side = _hop_distances(g.indptr, g.indices, roots) % 2
    return not (np.repeat(side, g.degrees()) == side[g.indices]).any()


def is_regular(g: Graph):
    """Common degree if the graph is regular, else None."""
    if g.n == 0:
        return 0
    deg = g.degrees()
    d0 = int(deg[0])
    return d0 if (deg == d0).all() else None


def is_connected(g: Graph) -> bool:
    from scipy.sparse.csgraph import connected_components
    return g.n == 0 or connected_components(
        g.csr(), directed=False, return_labels=False) == 1


def vertex_expansion(g: Graph, S) -> Fraction:
    """|N(S) \\ S| / |S| with the external neighborhood convention."""
    S = np.unique(np.asarray(list(S), dtype=np.int64))
    if not S.size:
        raise ValueError("S must be nonempty")
    if S[0] < 0 or S[-1] >= g.n:
        raise ValueError(f"vertex {S[0] if S[0] < 0 else S[-1]} out of range")
    outside = np.setdiff1d(_neighbours(g.indptr, g.indices, S)[0], S)
    return Fraction(len(outside), len(S))


def bs_cycle_fraction(g: Graph, radius: int) -> Fraction:
    """Fraction of vertices whose radius-R ball contains a cycle.

    The ball around v contains a cycle iff some non-tree edge of the BFS
    from v has both ends within distance R, i.e. iff the first cycle length
    the non-backtracking path counts from v reveal is at most 2R+1 (see
    :func:`_first_cycle_lengths`).
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    cap = 2 * radius + 1
    lengths = _first_cycle_lengths(g, cap, shrink=False)
    count = int(((lengths > 0) & (lengths <= cap)).sum())
    return Fraction(count, g.n) if g.n else Fraction(0, 1)


# -- edge-list text format ---------------------------------------------------
#
# First line "n m", then m lines "u v" (0-based, whitespace-separated).

def load_edge_list(path) -> Graph:
    """Parse the edge-list text format; malformed input raises an error
    naming its first offending line.  An endpoint is any token int()
    accepts.  One np.loadtxt call reads a well-formed body: it splits on
    str.split's whitespace and rejects what int() rejects or int64 cannot
    hold ("#" included).  If it fails, finds other than m rows of two or
    a faulty edge, one int64 conversion reads the tokens and every check
    runs on whole arrays, each on the lines before the faults found."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EdgeListFormatError("line 1: missing header 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListFormatError("line 1: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListFormatError("line 1: header must hold two integers") from None
    if n < 0 or m < 0:
        raise EdgeListFormatError("line 1: n and m must be nonnegative")
    if n > MAX_VERTICES:
        raise EdgeListFormatError(f"line 1: n must be at most {MAX_VERTICES}")
    try:
        with warnings.catch_warnings():     # a body with no rows warns
            warnings.simplefilter("error", UserWarning)
            e = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, UserWarning):
        e = None
    if e is not None and e.shape == (m, 2):
        out, loop, repeat, lo, hi = _edge_faults(n, e)
        if not (out | loop | repeat).any():
            return _graph_from_half_edges(n, lo, hi)
    count = np.fromiter(map(len, map(str.split, lines[1:])), dtype=np.int64,
                        count=len(lines) - 1)     # tokens per body line
    lineno = np.flatnonzero(count) + 2     # file line of each edge line
    if len(lineno) != m:
        raise EdgeListFormatError(
            f"header declares {m} edges but file has {len(lineno)} edge lines")
    words, fault = "\n".join(lines[1:]).split(), None  # (edge line, msg)
    shape = np.flatnonzero(count[count > 0] != 2)
    if shape.size:
        fault, words = (shape[0], "expected 'u v'"), words[:2 * shape[0]]
    try:
        e = np.array(words, dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError):
        # the first token int() rejects or int64 cannot hold decides
        ends = list(map(_int_or_none, words))
        row = next(i for i, x in enumerate(ends)
                   if x is None or not -2**63 <= x < 2**63) // 2
        fault = (row, "endpoints must be integers"
                 if None in ends[2 * row:2 * row + 2]
                 else f"endpoint out of range [0, {n})")
        e = np.array(ends[:2 * row], dtype=np.int64).reshape(-1, 2)
    out, loop, repeat, lo, hi = _edge_faults(n, e)
    bad = np.flatnonzero(out | loop | repeat)
    if bad.size:
        i = bad[0]
        fault = (i, f"endpoint out of range [0, {n})" if out[i]
                 else f"self-loop at {e[i, 0]}" if loop[i]
                 else f"duplicate edge ({lo[i]}, {hi[i]})")
    if fault is not None:
        raise EdgeListFormatError(f"line {lineno[fault[0]]}: {fault[1]}")
    return _graph_from_half_edges(n, lo, hi)


def _int_or_none(word):
    try:
        return int(word)
    except ValueError:
        return None


def save_edge_list(g: Graph, path) -> None:
    e = g.edges()
    # one %-format over all endpoints writes "u v" per edge
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {len(e)}\n" + ("%d %d\n" * len(e))
                 % tuple(e.ravel().tolist()))
