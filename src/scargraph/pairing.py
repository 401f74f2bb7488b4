"""Leaf pairing by iterated edge swaps.

Two depth-D d-ary trees glued leaf-to-leaf along a bijection form a graph
whose every cycle threads the identified leaves.  Starting from a seeded
random bijection, repeatedly pick an identified vertex on a shortest cycle
and exchange its movable tree-parent with that of a far-away identified
vertex; each exchange destroys the chosen cycle and creates none as short,
so the girth climbs to the logarithmic target.  The same engine re-wires
tree leaves onto anchor vertices of an ambient graph, where cycles through
the host count too.

Exact path-counting formulas for alternating leaf-to-leaf paths in the
glued double tree are provided as oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import MAX_VERTICES, ConstructionError, Graph, build_graph
from .trees import interior_size, tree_layout, tree_size

_BIG = 10 ** 9


# -- path counting -------------------------------------------------------------

def path_count_exact(d: int, r: int, s: int) -> int:
    """Number of alternating leaf-to-leaf paths of half-length s made of
    exactly r tree segments, from a fixed identified vertex:
    2 C(s-1, r-1) (d-1)^r d^(s-r)."""
    if r < 1:
        raise ValueError("segment count r must be at least 1")
    if r > s:
        raise ValueError("segment count r cannot exceed half-length s")
    return 2 * math.comb(s - 1, r - 1) * (d - 1) ** r * d ** (s - r)


def path_count_total(d: int, s: int) -> int:
    """Alternating leaf-to-leaf paths of length exactly 2s from a fixed
    identified vertex: 2(d-1)(2d-1)^(s-1)."""
    if s < 1:
        raise ValueError("half-length s must be at least 1")
    return 2 * (d - 1) * (2 * d - 1) ** (s - 1)


def path_count_cumulative(d: int, k: int) -> int:
    """1 + sum of path_count_total(d, s) for s <= k, which telescopes to
    (2d-1)^k; bounds the identified vertices within distance 2k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (2 * d - 1) ** k


def _floor_log(base: int, value: int) -> int:
    """Largest t >= 0 with base**t <= value (value >= 1), exactly."""
    t = 0
    acc = base
    while acc <= value:
        t += 1
        acc *= base
    return t


def girth_target(d: int, n_leaves: int) -> int:
    """floor(2 log_{2d-1}(n-1)) + 2, rounded up to even (cycle lengths in
    the pure double tree are even)."""
    t = _floor_log(2 * d - 1, (n_leaves - 1) ** 2) + 2
    return t if t % 2 == 0 else t + 1


def guaranteed_girth(d: int, n_leaves: int) -> int:
    """2 floor(log_{2d-1}(n-1)) + 2, the level up to which a far partner is
    guaranteed by the path-count bound."""
    return 2 * _floor_log(2 * d - 1, n_leaves - 1) + 2


def girth_bound(d: int, r: int) -> int:
    """floor(2 log_{2d-1}((d+1) d^(r-1))), the girth the gluing promises."""
    n = (d + 1) * d ** (r - 1)
    return _floor_log(2 * d - 1, n * n)


def girth_required(d: int, r: int) -> int:
    """guaranteed_girth for a depth-r site: the hard lower bound glue()
    enforces."""
    return guaranteed_girth(d, (d + 1) * d ** (r - 1))


# -- mutable swap state --------------------------------------------------------

class _SwapState:
    """Adjacency under swaps, kept once, as a padded neighbour table: row v
    of ``table`` lists v's neighbours in the order its edges were given,
    then the sentinel n up to the largest degree, and row n is all
    sentinel, so a gather of whole rows needs no lengths.  A swap replaces
    one neighbour entry by another in place, so each row keeps its degree
    and its padding, and the table with n is the whole state."""

    def __init__(self, n: int, edges):
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        # the half-edges interleaved, u0 -> v0, v0 -> u0, u1 -> v1, ...: a
        # stable sort by tail lists each vertex's neighbours in edge order
        tails, heads = e.ravel(), e[:, ::-1].ravel()
        deg = np.bincount(tails, minlength=n)
        self.n = n
        width = int(deg.max(initial=0))
        self.table = np.full((n + 1, width), n, dtype=np.int64)
        # a row-major boolean mask fills each row's first deg entries
        self.table[:-1][np.arange(width) < deg[:, None]] = \
            heads[np.argsort(tails, kind="stable")]

    def _replace(self, u: int, old: int, new: int):
        row = self.table[u]
        row[row.tolist().index(old)] = new

    def exchange_parents(self, x: int, y: int, px: int, py: int):
        """Edges (x, px), (y, py) become (x, py), (y, px)."""
        self._replace(x, px, py)
        self._replace(y, py, px)
        self._replace(px, x, y)
        self._replace(py, y, x)

    def within(self, x: int, points: np.ndarray, radii) -> list:
        """The masks of ``points`` within each of the ascending ``radii`` of
        x, from one BFS on the table.  Each level but the last, which only
        marks, is de-duplicated as in _hop_distances; the sentinel starts
        visited, so the padding drops out."""
        seen = np.zeros(self.n + 1, dtype=bool)
        seen[[x, self.n]] = True
        slot = np.empty(self.n, dtype=np.int64)
        frontier, level, out = np.array([x]), 0, []
        for radius in radii:
            while level < radius and frontier.size:
                nbrs = self.table[frontier].ravel()
                level += 1
                if level == radii[-1]:
                    seen[nbrs] = True  # the last level needs no frontier
                    break
                nbrs = nbrs[~seen[nbrs]]
                pos = np.arange(len(nbrs))
                slot[nbrs] = pos
                frontier = nbrs[slot[nbrs] == pos]
                seen[frontier] = True
            out.append(seen[points])
        return out

    def to_graph(self) -> Graph:
        rows = self.table[:-1]
        tails = np.broadcast_to(np.arange(self.n)[:, None], rows.shape)
        keep = (tails < rows) & (rows < self.n)
        return build_graph(self.n, np.column_stack([tails[keep], rows[keep]]))


def _cycle_through_edge(table, x: int, parent: int, cutoff: int) -> int:
    """Shortest cycle length through the edge (x, parent) of the padded
    neighbour ``table`` (as in _SwapState), or a big value if it exceeds
    ``cutoff``.  Equals 1 + dist(x, parent) with the edge removed.

    A bidirectional BFS: one side grows from x, the other from parent, and
    neither crosses the edge.  After both roots' first step, each step
    grows the smaller frontier by one whole level.  The sides are the balls
    of radii la and lb in the graph without the edge, and they are
    disjoint exactly while dist > la + lb; so the first step that reaches
    the other side closes a path of length la + lb + 1 (la, lb before the
    step), a shortest one, and the cycle is one longer.  The sentinel n
    starts visited on both sides, and each neighbour is tested against its
    own side first, so the padding never counts as a meeting."""
    if cutoff < 3:
        return _BIG
    n = len(table) - 1
    front = [[w for w in table[x].tolist() if w != parent and w != n],
             [w for w in table[parent].tolist() if w != x and w != n]]
    seen = [{x, n, *front[0]}, {parent, n, *front[1]}]
    if not seen[0].isdisjoint(front[1]):
        return 3
    for length in range(4, cutoff + 1):
        s = len(front[1]) < len(front[0])
        mine, other, nxt = seen[s], seen[not s], []
        for u in front[s]:
            for w in table[u].tolist():
                if w not in mine:
                    if w in other:
                        return length
                    mine.add(w)
                    nxt.append(w)
        if not nxt:
            return _BIG
        front[s] = nxt
    return _BIG


# 64-bit words of sources per cycle-scan block: each of a block's n x 4
# bit arrays is 273 KB at n = 8532, so they stay in a 2 MiB L2
_BLOCK_WORDS = 4


def _batched_cycle_scan(state: _SwapState, points: np.ndarray,
                        parents: np.ndarray) -> np.ndarray:
    """Cycle lengths through the movable edges (points[i], parents[i]), of
    which only the minimum and the indices at it are exact; all _BIG when
    no movable edge lies on a cycle.

    As in graphs._first_cycle_lengths, the cutoff only falls: it starts at
    n, a block stops at its first step that closes cycles, all recorded,
    and their length becomes the cutoff of later blocks, which still find
    every edge at that length or below.

    A bit-parallel BFS runs from a block of up to 256 points at once (Then
    et al., VLDB 2014): source i of the block owns bit i % 64 of word
    i // 64 in each row of the n x 4 ``front``, ``nxt`` and ``unvisited``
    arrays, which fit in L2; the blocks run one after another.  Vertices
    are relabelled by descending degree (a stable sort: the identity on a
    regular graph), so column c of the neighbour table, padded with n
    past each degree, is read only over the prefix of rows with degree
    above c.  Step 1 puts source i on the neighbours of points[i] other
    than parents[i]; each later step ORs the frontier over the columns
    into ``nxt``, keeps the bits still in ``unvisited`` and clears them
    there, and the two frontier buffers swap roles.  The edge (points[i],
    parents[i]) is never crossed after step 1: points[i] is visited from
    the start, so bit i never again sits on it, and bit i can cross from
    parents[i] only after reaching parents[i], which already fixes the
    answer.  The first time bit i lands on parents[i], at distance t, the
    cycle has length t + 1.
    """
    npts, n = len(points), state.n
    out = np.full(npts, _BIG, dtype=np.int64)
    # a row's degree is its count of non-sentinel entries
    deg = np.count_nonzero(state.table[:-1] != n, axis=1)
    width = int(deg.max(initial=0))
    if not npts or not width:
        return out
    order = np.argsort(-deg, kind="stable")
    new = np.full(n + 1, n, dtype=np.int64)     # the sentinel n stays n
    new[order] = np.arange(n)
    table = np.ascontiguousarray(new.take(state.table.take(order, axis=0)).T)
    cols = [table[c, :np.count_nonzero(deg > c)] for c in range(width)]
    pts, pars = new[points], new[parents]
    block = 64 * min(_BLOCK_WORDS, (npts + 63) // 64)
    src = np.arange(block)
    word = src // 64
    bit = np.left_shift(np.uint64(1), (src % 64).astype(np.uint64))
    front, nxt, unvisited, buf = (
        np.empty((n, block // 64), dtype=np.uint64) for _ in range(4))
    cutoff = n
    for s in range(0, npts, block):
        p, q, res = pts[s:s + block], pars[s:s + block], out[s:s + block]
        w, b = word[:len(p)], bit[:len(p)]
        nbrs = table[:, p].T
        first = (nbrs != n) & (nbrs != q[:, None])
        i = np.nonzero(first)[0]
        front[:] = 0
        np.bitwise_or.at(front, (nbrs[first], w[i]), b[i])
        np.invert(front, out=unvisited)
        np.bitwise_and.at(unvisited, (p, w), ~b)
        for dist in range(2, cutoff):
            # mode "clip" writes to out unbuffered; no index is out of range
            np.take(front, cols[0], axis=0, out=nxt[:len(cols[0])],
                    mode="clip")
            nxt[len(cols[0]):] = 0
            for col in cols[1:]:
                np.take(front, col, axis=0, out=buf[:len(col)], mode="clip")
                nxt[:len(col)] |= buf[:len(col)]
            nxt &= unvisited
            unvisited ^= nxt
            hit = (res == _BIG) & ((nxt[q, w] & b) != 0)
            res[hit] = dist + 1
            if hit.any():
                cutoff = dist + 1
                break
            if not nxt.any():
                break
            front, nxt = nxt, front
    return out


# -- the swap engine -----------------------------------------------------------

@dataclass
class _EngineResult:
    swaps: int
    shortest: int   # of the last scan, exact; below the target on a stall


def _run_swaps(state: _SwapState, points: np.ndarray, slots: np.ndarray,
               slot_parent: np.ndarray, target: int,
               guaranteed: int) -> _EngineResult:
    """Raise the shortest cycle through the movable edges to ``target``.

    At level g (current shortest), a far partner at distance >= target keeps
    every newly created cycle at length >= min(target, 2g) > g.  Below the
    ``guaranteed`` level a partner beyond guaranteed-2 does too, and the
    path-count bound promises one (its absence is a hard internal error);
    at or above it we fall back to trying every partner and accepting a swap
    only when neither rewired edge carries a cycle of length <= g afterwards.
    When a pass makes no swap the engine stops, a stall that its result
    reads as ``shortest < target``.  When every point hangs off one parent,
    as at depth 1, every assignment is the same graph, so the first scan is
    the last.  More than 10 swaps per point (plus 1000) is a runaway search
    and raises.
    Per candidate, _cycle_through_edge checks whether an earlier swap
    already cleared it, and one ``state.within`` BFS reads the points within
    guaranteed-2 and target-1 (callers keep guaranteed <= target).

    A pass reads only the shortest cycle g through a movable edge and the
    edges at g, so its scan shrinks and needs no cap: the cutoff falls to
    g at the first block that closes a cycle.  ``shortest`` is the last
    scan's g, exact, as no swap follows it.
    """
    npts = len(points)
    max_swaps = 10 * npts + 1000
    # all leaves hang off one parent: every assignment is the same graph
    one_parent = len(np.unique(slot_parent)) <= 1
    swaps = 0

    def do_swap(i, j):
        state.exchange_parents(points[i], points[j], slot_parent[slots[i]],
                               slot_parent[slots[j]])
        slots[i], slots[j] = slots[j], slots[i]

    def clear(i, g):
        # no cycle of length <= g through point i's movable edge
        return _cycle_through_edge(state.table, int(points[i]),
                                   int(slot_parent[slots[i]]), g) > g

    while True:
        c = _batched_cycle_scan(state, points, slot_parent[slots])
        g = int(c.min(initial=_BIG))  # _BIG: no movable edge on a cycle
        if g >= target or one_parent:
            return _EngineResult(swaps, g)
        before = swaps
        for i in np.nonzero(c == g)[0]:
            if clear(i, g):
                continue  # an earlier swap in this pass already fixed it
            # far partner: nothing within distance target-1 of points[i]
            inner, near = state.within(points[i], points,
                                       [guaranteed - 2, target - 1])
            far = np.flatnonzero(~near)
            if not far.size and g < guaranteed:
                far = np.flatnonzero(~inner)
                if not far.size:
                    raise ConstructionError(
                        f"no partner beyond distance {guaranteed - 2} at "
                        f"level {g}: path-count bound violated")
            if far.size:
                do_swap(i, int(far[0]))
                swaps += 1
            else:
                for j in range(npts):
                    if j == i or slot_parent[slots[j]] == slot_parent[slots[i]]:
                        continue
                    do_swap(i, j)
                    if clear(i, g) and clear(j, g):
                        swaps += 1
                        break
                    do_swap(i, j)  # revert; the exchange is an involution
            if swaps > max_swaps:
                raise ConstructionError("swap budget exhausted; not terminating")
        if swaps == before:
            return _EngineResult(swaps, g)


# -- gluing two trees ----------------------------------------------------------

@dataclass
class Pairing:
    """A leaf bijection between two depth-D d-ary trees and the glued graph.

    Vertex layout of ``glued``: T1 interior in level order, then the n
    identified leaves in T1 leaf order, then T2 interior in level order.
    ``pi[i] = j`` means T1 leaf i is identified with T2 leaf j.
    """
    d: int
    depth: int
    pi: np.ndarray
    glued: Graph
    achieved_girth: int
    swap_count: int
    seed: int

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "D": self.depth,
                           "pi": self.pi.tolist(),
                           "girth": self.achieved_girth,
                           "swaps": self.swap_count, "seed": self.seed},
                          sort_keys=True)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def _attach_tree(d: int, depth: int, anchors, first: int,
                 rng: np.random.Generator):
    """A fresh depth-``depth`` d-ary tree on ids first.., whose leaves are
    the anchors: anchor i is joined to the parent of leaf slot slots[i] for
    a seeded random bijection ``slots``.  Returns (edges, slots,
    slot_parent, interior levels, next free id); ``edges`` is an (m, 2)
    array, the interior edges and then the anchor joins."""
    levels, parent = tree_layout(d, depth, first)
    nxt = int(levels[-1][0])
    slot_parent = parent[nxt - first - 1:]
    slots = rng.permutation(len(anchors))
    edges = np.concatenate([
        np.column_stack([np.arange(first + 1, nxt), parent[:nxt - first - 1]]),
        np.column_stack([anchors, slot_parent[slots]])])
    return edges, slots, slot_parent, levels[:-1], nxt


def pair_trees(d: int, depth: int, seed: int = 0) -> Pairing:
    """Glue two depth-``depth`` d-ary trees leaf-to-leaf, n = (d+1) d^(depth-1)
    leaves each, by a seeded random bijection plus swaps aimed at
    girth_target(d, n), floor(2 log_{2d-1}(n-1)) + 2 rounded up to even.
    The girth enforced is guaranteed_girth(d, n), 2 floor(log_{2d-1}(n-1))
    + 2, which the path-count bound promises and which can be smaller.
    The girth is the swap engine's last shortest cycle through a movable
    edge, which is exact: T1 and T2's interior are trees, so each cycle has
    a movable edge, and no swap follows that scan."""
    if d < 2:
        raise ValueError("branching d must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    # levels at least double, so a depth of MAX_VERTICES' bit length never fits
    if depth >= MAX_VERTICES.bit_length() or \
            tree_size(d, depth) + interior_size(d, depth) > MAX_VERTICES:
        raise ValueError(f"d = {d}, depth = {depth} glues more than "
                         f"{MAX_VERTICES} vertices")
    # T1 in level order; its leaves are the identified points
    levels, parent = tree_layout(d, depth)
    points = levels[-1]
    n = len(points)
    t1 = np.column_stack([np.arange(1, len(parent) + 1), parent])
    rng = np.random.default_rng(seed)
    t2, slots, t2p, _, total = _attach_tree(d, depth, points,
                                            len(parent) + 1, rng)
    state = _SwapState(total, np.concatenate([t1, t2]))
    guaranteed = guaranteed_girth(d, n)
    res = _run_swaps(state, points, slots, t2p, girth_target(d, n),
                     guaranteed)
    if res.shortest < guaranteed:
        raise ConstructionError(
            f"pairing girth {res.shortest} below guaranteed {guaranteed}")
    return Pairing(d, depth, slots, state.to_graph(), res.shortest, res.swaps,
                   seed)
