import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjacency_lists, cycle_through_edge_reference
from scargraph import scars
from scargraph.certificate import girth_required
from scargraph.graphs import MAX_VERTICES, _hop_distances, build_graph, girth
from scargraph.named import cycle_graph, random_regular_graph
from scargraph.pairing import (_BIG, _SwapState, _attach_tree,
                               _batched_cycle_scan, _cycle_through_edge,
                               _run_swaps, girth_target, guaranteed_girth,
                               pair_trees, path_count_cumulative,
                               path_count_exact, path_count_total)
from scargraph.trees import tree_layout


class TestPathCountFormulas:
    @pytest.mark.parametrize("d,r,s,expected", [
        (2, 1, 1, 2),
        (2, 1, 2, 4),
        (3, 2, 2, 8),
    ])
    def test_exact_examples(self, d, r, s, expected):
        assert path_count_exact(d, r, s) == expected

    def test_exact_errors(self):
        with pytest.raises(ValueError):
            path_count_exact(2, 0, 1)
        with pytest.raises(ValueError):
            path_count_exact(2, 3, 2)

    def test_total_examples(self):
        assert path_count_total(2, 1) == 2
        assert path_count_total(2, 2) == 6
        assert path_count_total(3, 2) == 20
        assert path_count_total(3, 2) == sum(
            path_count_exact(3, r, 2) for r in (1, 2))

    def test_total_is_row_sum_of_exact(self):
        for d in (2, 3, 4):
            for s in range(1, 7):
                assert path_count_total(d, s) == sum(
                    path_count_exact(d, r, s) for r in range(1, s + 1))

    def test_cumulative_telescopes(self):
        assert path_count_cumulative(2, 1) == 3
        assert path_count_cumulative(2, 2) == 9
        for d in (2, 3, 4):
            for k in range(0, 6):
                assert path_count_cumulative(d, k) == \
                    1 + sum(path_count_total(d, s) for s in range(1, k + 1))


def alternating_path_counts(pairing, source_slot, max_len):
    """DFS enumeration of simple paths from one identified vertex to any
    identified vertex, counted by (length, number of identified vertices
    hit after the start).  Independent oracle for the closed-form counts."""
    g = pairing.glued
    adj = adjacency_lists(g)
    deg = g.degrees()
    identified = set(int(v) for v in np.nonzero(deg == 2)[0])
    start = sorted(identified)[source_slot]
    counts = Counter()

    def dfs(v, length, segs, visited):
        if length > 0 and v in identified:
            counts[(length, segs + 1)] += 1
        if length == max_len:
            return
        nsegs = segs + 1 if (v in identified and length > 0) else segs
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                dfs(w, length + 1, nsegs, visited)
                visited.discard(w)

    dfs(start, 0, 0, {start})
    return counts


class TestBruteForcePathOracle:
    @pytest.mark.parametrize("d,D", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_counts_match_formulas(self, d, D):
        p = pair_trees(d, D, seed=1)
        assert p.glued.n <= 500
        gv = p.achieved_girth
        # the closed form needs cycle-free structure to depth 2s and every
        # segment turning below the root (s < D; the counting claim is only
        # ever applied with s <= k < D)
        smax = max(s for s in range(1, D) if 2 * s < gv)
        counts = alternating_path_counts(p, 0, 2 * smax)
        for s in range(1, smax + 1):
            total = 0
            for r in range(1, s + 1):
                expected = path_count_exact(d, r, s)
                assert counts.get((2 * s, r), 0) == expected
                total += expected
            assert total == path_count_total(d, s)
        # odd lengths never connect identified vertices (bipartite halves)
        assert all(length % 2 == 0 for (length, _) in counts)


class TestPairTrees:
    @pytest.mark.parametrize("d,D", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 4), (4, 2)])
    def test_girth_bound(self, d, D):
        n = (d + 1) * d ** (D - 1)
        p = pair_trees(d, D, seed=0)
        stated = math.floor(2 * math.log(n - 1) / math.log(2 * d - 1)) + 2
        assert p.achieved_girth >= stated
        assert p.achieved_girth >= guaranteed_girth(d, n)
        assert p.achieved_girth % 2 == 0
        assert girth(p.glued) == p.achieved_girth

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("D", [1, 2, 3, 4])
    def test_girth_from_the_scan_matches_girth_kernel(self, d, D):
        # achieved_girth comes from the swap engine's cycle scan, not from
        # graphs.girth; the two kernels must agree on the glued graph
        for seed in range(10):
            p = pair_trees(d, D, seed)
            assert p.achieved_girth == girth(p.glued), seed

    def test_degree_structure(self):
        p = pair_trees(3, 3, seed=2)
        deg = p.glued.degrees()
        n_identified = int((deg == 2).sum())
        assert n_identified == 4 * 3 ** 2
        assert set(deg.tolist()) == {1 + 3, 2, 3 + 1}  # root d+1, glued 2, internal d+1

    def test_pi_is_a_bijection(self):
        p = pair_trees(2, 4, seed=3)
        assert sorted(p.pi.tolist()) == list(range(len(p.pi)))

    def test_determinism(self):
        a = pair_trees(3, 4, seed=9)
        b = pair_trees(3, 4, seed=9)
        assert np.array_equal(a.pi, b.pi)
        assert a.achieved_girth == b.achieved_girth
        assert a.swap_count == b.swap_count
        c = pair_trees(3, 4, seed=10)
        assert not np.array_equal(a.pi, c.pi)

    def test_depth_one_any_bijection_works(self):
        p = pair_trees(2, 1, seed=0)
        assert p.glued.n == 5 and p.achieved_girth == 4 and p.swap_count == 0

    def test_json_fields(self, tmp_path):
        p = pair_trees(2, 3, seed=4)
        path = tmp_path / "pairing.json"
        p.save(path)
        data = json.loads(path.read_text())
        assert set(data) == {"d", "D", "pi", "girth", "swaps", "seed"}
        assert data["girth"] == p.achieved_girth

    @pytest.mark.parametrize("d", range(2, 14))
    @pytest.mark.parametrize("r", range(1, 7))
    def test_required_girth_is_guaranteed_girth(self, d, r):
        n = (d + 1) * d ** (r - 1)
        assert girth_required(d, r) == guaranteed_girth(d, n)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            pair_trees(1, 3)
        with pytest.raises(ValueError):
            pair_trees(2, 0)

    @pytest.mark.parametrize("d,depth", [(2, 24), (2, 40), (2, 10 ** 9),
                                         (100, 5), (10 ** 9, 2)])
    def test_oversized_glued_tree_rejected(self, d, depth):
        # refused before any id array is laid out
        with pytest.raises(ValueError, match=f"more than {MAX_VERTICES}"):
            pair_trees(d, depth)


    # SHA-256 of to_json(), recorded with the earlier sparse-product cycle
    # scan: a faster scan must leave every swap decision unchanged
    @pytest.mark.parametrize("d,D,seed,digest", [
        (2, 5, 0, "ec1967c11b33ba12718950f77b3af6c1"
                  "44f8107d3ca886d00c222c45ffa5dcf3"),
        (2, 5, 1, "212e725e153a4cafd8e253f660e50b8b"
                  "2f7c3a031a75be3fd9669f52cf2648cf"),
        (3, 4, 0, "61ac1b4ee6fcec0c9967577ba6d6c272"
                  "f91e5f863846954f27c2686044f7dbd0"),
        (3, 4, 1, "cc2d6fe935b4b1447416701e52c6fc31"
                  "b734003716e7c5b5554a44c12fc67e8d"),
        (4, 5, 0, "5d81e084b2b1636e66f0d4e734c939fd"
                  "65807ab0593418a97ed70272d732ce57"),
        (4, 5, 1, "534701ef0b5140c03f0907db5aa3dd2e"
                  "2e0c0a6c0352122677361bb5714f00dc"),
    ])
    def test_golden_digest(self, d, D, seed, digest):
        text = pair_trees(d, D, seed=seed).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # SHA-256 of to_json() for the (4, 6) cell, recorded before the cycle
    # scan ran its sources in blocks: its 5120 points span 20 blocks, the
    # only grid cell with more than five
    @pytest.mark.parametrize("seed,digest", [
        (0, "d297847c3206e67bcf9d2593ad85a759"
            "f05fca94c6a968744a9d39a8ede74504"),
        (1, "5dd6a8cd5ccc18bdf0463c7c52a5cd92"
            "44347d51dc4af843c92ca9946fba4a19"),
    ])
    def test_golden_digest_many_blocks(self, seed, digest):
        text = pair_trees(4, 6, seed=seed).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPathCountFallback:
    """With a target no far partner can meet, _run_swaps takes the
    guaranteed-radius partners up to the guaranteed level and then the
    try-every-partner fallback, until a pass makes no swap."""

    @pytest.mark.parametrize("d,D,swaps", [
        (2, 5, [23, 18, 27]), (3, 3, [16, 13, 12]), (4, 3, [29, 32, 44])])
    def test_stalls_above_guaranteed(self, d, D, swaps):
        got = []
        for seed in range(3):
            # the state pair_trees builds: T1, then T2 joined to T1's leaves
            levels, parent = tree_layout(d, D)
            points = levels[-1]
            t1 = np.column_stack([np.arange(1, len(parent) + 1), parent])
            t2, slots, t2p, _, total = _attach_tree(
                d, D, points, len(parent) + 1, np.random.default_rng(seed))
            state = _SwapState(total, np.concatenate([t1, t2]))
            guaranteed = guaranteed_girth(d, len(points))
            res = _run_swaps(state, points, slots, t2p, 100, guaranteed)
            assert res.shortest < 100
            assert girth(state.to_graph()) >= guaranteed
            got.append(res.swaps)
        assert got == swaps


@st.composite
def scan_inputs(draw):
    """A small graph and movable edges (point, parent) to scan.  The graph
    is a random forest plus extra edges on up to 12 vertices, then a
    pendant vertex whose only neighbour is its parent, then a disjoint
    cycle; the first two points are the pendant edge and a cycle edge, so
    any two or more points span different components.  Point counts
    straddle the 64-bit word boundaries, so edges repeat."""
    n = draw(st.integers(1, 12))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.add((parent, v))
    vertex = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    pendant, attach = n, draw(vertex)
    edges.add((attach, pendant))
    ring = draw(st.integers(3, 7))
    first = n + 1
    edges |= {(first + i, first + (i + 1) % ring) for i in range(ring)}
    edges = sorted(edges)
    npts = draw(st.sampled_from([1, 2, 63, 64, 65, 129]))
    picks = draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()),
                          min_size=npts, max_size=npts))
    pairs = [(pendant, attach), (first, first + 1)]
    pairs += [(u, v) if flip else (v, u) for (u, v), flip in picks]
    pairs = pairs[:npts]
    return (_SwapState(first + ring, edges),
            np.array([p for p, _ in pairs], dtype=np.int64),
            np.array([q for _, q in pairs], dtype=np.int64))


class TestCycleThroughEdge:
    """The bidirectional search against the one-sided BFS it replaced, on
    every edge of scan_inputs' graphs (a random forest with extra edges,
    a pendant edge and a disjoint cycle), both ways round."""

    @settings(max_examples=150, deadline=None)
    @given(scan_inputs())
    def test_matches_one_sided_bfs(self, inputs):
        state = inputs[0]
        adj = adjacency_lists(state.to_graph())
        edges = [(u, v) for u in range(state.n) for v in adj[u]]
        for cutoff in range(13):
            for x, p in edges:
                assert _cycle_through_edge(state.table, x, p, cutoff) == \
                    cycle_through_edge_reference(adj, x, p, cutoff)


@st.composite
def block_scan_inputs(draw):
    """Point counts around the 256-source block boundaries on a graph of
    degrees 0 to 5 that the degree relabelling permutes: a hub, the last
    vertex, is joined to vertex 0 (degree 1) and vertex 1, the other
    edges are drawn among degree-capped vertices, and an isolated vertex
    comes last."""
    n = draw(st.integers(4, 14))
    hub, deg = n - 1, Counter()
    edges = set()
    vertex = st.integers(1, hub)
    for u, v in [(0, hub), (1, hub)] + draw(
            st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        u, v = min(u, v), max(u, v)
        if u != v and (u, v) not in edges and deg[u] < 5 and deg[v] < 5:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    edges = sorted(edges)
    npts = draw(st.sampled_from([255, 256, 257, 511, 513]))
    picks = draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()),
                          min_size=npts, max_size=npts))
    pairs = [(u, v) if flip else (v, u) for (u, v), flip in picks]
    return (_SwapState(n + 1, edges),
            np.array([p for p, _ in pairs], dtype=np.int64),
            np.array([q for _, q in pairs], dtype=np.int64))


def scalar_oracle(state):
    """Cycle length through one movable edge, by _cycle_through_edge
    uncapped."""
    return lambda x, p: _cycle_through_edge(state.table, x, p, state.n)


def assert_scan_matches_oracle(state, points, parents, oracle=scalar_oracle):
    # the scan's one contract: the minimum and the indices at it
    length = oracle(state)
    expected = np.array([length(int(x), int(p))
                         for x, p in zip(points, parents)], dtype=np.int64)
    got = _batched_cycle_scan(state, points, parents)
    low = int(expected.min(initial=_BIG))
    assert int(got.min(initial=_BIG)) == low
    assert np.array_equal(np.flatnonzero(got == low),
                          np.flatnonzero(expected == low))


class TestBatchedCycleScan:
    @settings(max_examples=150, deadline=None)
    @given(scan_inputs())
    def test_matches_scalar_oracle(self, inputs):
        assert_scan_matches_oracle(*inputs)

    @settings(max_examples=40, deadline=None)
    @given(block_scan_inputs())
    def test_block_boundaries_match_scalar_oracle(self, inputs):
        state, points, parents = inputs
        deg = state.to_graph().degrees()
        assert (np.diff(deg) > 0).any()  # the relabelling is not the identity
        assert_scan_matches_oracle(state, points, parents)

    @pytest.mark.parametrize("n,edges,points,parents", [
        (3, [(0, 1), (1, 2), (0, 2)], [], []),        # no points
        (4, [(0, 1), (2, 3)], [0, 1, 3], [1, 0, 2]),  # largest degree 1
        (3, [], [0, 2], [1, 1]),                      # largest degree 0
        (3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2], [1, 2, 0]),
    ])
    def test_edge_cases_match_scalar_oracle(self, n, edges, points, parents):
        state = _SwapState(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        points = np.array(points, dtype=np.int64)
        parents = np.array(parents, dtype=np.int64)
        assert_scan_matches_oracle(state, points, parents)

    def test_peak_memory_of_the_largest_grid_scan(self):
        # the first scan of pair_trees(4, 6, seed=0): 5120 points on 8532
        # vertices; a scan over all points at once peaked at 27 MiB
        levels, parent = tree_layout(4, 6)
        points = levels[-1]
        t1 = np.column_stack([np.arange(1, len(parent) + 1), parent])
        t2, slots, t2p, _, total = _attach_tree(
            4, 6, points, len(parent) + 1, np.random.default_rng(0))
        state = _SwapState(total, np.concatenate([t1, t2]))
        tracemalloc.start()
        try:
            _batched_cycle_scan(state, points, t2p[slots])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_swap_state_keeps_only_its_table(self):
        # the state is its 1.5 MiB table: a Python object per vertex, 65536
        # of them, would not fit in the 1 MiB left over
        g = random_regular_graph(65536, 3, seed=1)
        edges = g.edges()
        tracemalloc.start()
        try:
            state = _SwapState(g.n, edges)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= state.table.nbytes + 2 ** 20


@st.composite
def swap_inputs(draw):
    """A random simple graph on up to 12 vertices, its edges in a random
    order and orientation, and a list of edge-index pairs to exchange."""
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    swaps = []
    if edges:
        index = st.integers(0, len(edges) - 1)
        swaps = draw(st.lists(st.tuples(index, index), max_size=8))
    return n, edges, swaps


class TestSwapState:
    @settings(max_examples=200, deadline=None)
    @given(swap_inputs())
    def test_table_is_append_order_and_swaps_match_rebuild(self, inputs):
        n, edges, swaps = inputs
        rows = [[] for _ in range(n)]
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        state = _SwapState(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        # each row in edge order, padded with the sentinel n to the largest
        # degree, and a last row all sentinel
        width = max(map(len, rows), default=0)
        assert state.table.tolist() == \
            [a + [n] * (width - len(a)) for a in rows] + [[n] * width]
        current = {frozenset(e) for e in edges}
        ends = [tuple(e) for e in edges]
        for i, j in swaps:
            (x, px), (y, py) = ends[i], ends[j]
            new = {frozenset((x, py)), frozenset((y, px))}
            if len({x, px, y, py}) < 4 or new & current:
                continue
            state.exchange_parents(x, y, px, py)
            current -= {frozenset((x, px)), frozenset((y, py))}
            current |= new
            ends[i], ends[j] = (x, py), (y, px)
        g = state.to_graph()
        expected = build_graph(n, sorted(tuple(sorted(e)) for e in current))
        assert g.n == expected.n
        assert np.array_equal(g.indptr, expected.indptr)
        assert np.array_equal(g.indices, expected.indices)


class TestPartnerSearch:
    """_SwapState.within against _hop_distances far sets on the graph of
    the edges the test tracks, before and after exchanges, so the table,
    the swap state's only adjacency, must stay in sync with the swaps."""

    @staticmethod
    def assert_within_matches(state, current, radii):
        n = state.n
        g = build_graph(n, sorted(tuple(sorted(e)) for e in current))
        points = np.arange(n)[::-1]
        for x in range(n):
            got = state.within(x, points, radii)
            for radius, mask in zip(radii, got):
                dist = _hop_distances(g.indptr, g.indices, [x], radius)
                assert mask.tolist() == (dist[points] >= 0).tolist()

    @settings(max_examples=150, deadline=None)
    @given(swap_inputs(), st.integers(0, 6), st.integers(0, 6))
    def test_within_matches_hop_distances(self, inputs, a, b):
        n, edges, swaps = inputs
        radii = sorted([a, b])
        state = _SwapState(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        current = {frozenset(e) for e in edges}
        self.assert_within_matches(state, current, radii)
        ends = [tuple(e) for e in edges]
        for i, j in swaps:
            (x, px), (y, py) = ends[i], ends[j]
            new = {frozenset((x, py)), frozenset((y, px))}
            if len({x, px, y, py}) < 4 or new & current:
                continue
            state.exchange_parents(x, y, px, py)
            current -= {frozenset((x, px)), frozenset((y, py))}
            current |= new
            ends[i], ends[j] = (x, py), (y, px)
            self.assert_within_matches(state, current, radii)

    @pytest.mark.parametrize("d,D,seed", [(2, 5, 0), (3, 4, 1), (4, 3, 2)])
    def test_double_tree_radii_after_swaps(self, d, D, seed):
        # the state pair_trees swaps on, its partner radii guaranteed-2 and
        # target-1, checked from every point after the engine has run
        levels, parent = tree_layout(d, D)
        points = levels[-1]
        t1 = np.column_stack([np.arange(1, len(parent) + 1), parent])
        t2, slots, t2p, _, total = _attach_tree(
            d, D, points, len(parent) + 1, np.random.default_rng(seed))
        state = _SwapState(total, np.concatenate([t1, t2]))
        n = len(points)
        target, guaranteed = girth_target(d, n), guaranteed_girth(d, n)
        res = _run_swaps(state, points, slots, t2p, target, guaranteed)
        assert res.swaps > 0
        g = state.to_graph()
        for x in points:
            inner, near = state.within(x, points, [guaranteed - 2, target - 1])
            for radius, mask in [(guaranteed - 2, inner), (target - 1, near)]:
                dist = _hop_distances(g.indptr, g.indices, [x], radius)
                assert np.array_equal(mask, dist[points] >= 0)


def reference_oracle(state):
    """Cycle length through one movable edge, by the one-sided BFS of
    conftest on the state's adjacency lists, which shares no code with
    the table's searches."""
    lists = adjacency_lists(state.to_graph())
    return lambda x, p: cycle_through_edge_reference(lists, x, p, state.n)


class TestShrinkingScan:
    """The swap engine's scan, whose cutoff falls to the shortest cycle
    found so far, against the one-sided reference BFS."""

    @settings(max_examples=150, deadline=None)
    @given(scan_inputs())
    def test_small_graphs(self, inputs):
        assert_scan_matches_oracle(*inputs, oracle=reference_oracle)

    @settings(max_examples=40, deadline=None)
    @given(block_scan_inputs())
    def test_several_blocks(self, inputs):
        # 255 to 513 points, so later blocks run under a fallen cutoff
        assert_scan_matches_oracle(*inputs, oracle=reference_oracle)


def exact_minimum(state, points, slots, slot_parent):
    oracle = scalar_oracle(state)
    return min((oracle(int(x), int(p))
                for x, p in zip(points, slot_parent[slots])), default=_BIG)


class TestEngineShortest:
    """_run_swaps reports the exact shortest cycle through the movable
    edges of its final state, which pair_trees gives as its girth."""

    @pytest.mark.parametrize("d,D", [(2, 4), (2, 6), (3, 3), (3, 5),
                                     (4, 2), (4, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_trees_states(self, d, D, seed):
        levels, parent = tree_layout(d, D)
        points = levels[-1]
        t1 = np.column_stack([np.arange(1, len(parent) + 1), parent])
        t2, slots, t2p, _, total = _attach_tree(
            d, D, points, len(parent) + 1, np.random.default_rng(seed))
        state = _SwapState(total, np.concatenate([t1, t2]))
        n = len(points)
        for target in (girth_target(d, n), 100):  # 100 stalls
            res = _run_swaps(state, points, slots, t2p, target,
                             guaranteed_girth(d, n))
            assert (res.shortest < target) == (target == 100)
            assert res.shortest == exact_minimum(state, points, slots, t2p)

    @pytest.mark.parametrize("seed", range(3))
    def test_glue_states(self, lps_h, monkeypatch, seed):
        # each run checked as it returns: the next run swaps the same state
        seen = []

        def checked(state, points, slots, slot_parent, target, guaranteed):
            res = _run_swaps(state, points, slots, slot_parent, target,
                             guaranteed)
            seen.append((res.shortest,
                         exact_minimum(state, points, slots, slot_parent)))
            return res

        monkeypatch.setattr(scars, "_run_swaps", checked)
        scars.multi_glue(lps_h, 1, 2, seed=seed)
        assert len(seen) == 2
        for shortest, exact in seen:
            assert shortest == exact

    def test_one_parent_makes_no_swap(self, mcgee, monkeypatch):
        # at r = 1 each tree's leaves hang off its root: one scan, no swap
        seen = []

        def checked(state, points, slots, slot_parent, target, guaranteed):
            res = _run_swaps(state, points, slots, slot_parent, target,
                             guaranteed)
            seen.append((res.swaps, res.shortest,
                         exact_minimum(state, points, slots, slot_parent)))
            return res

        monkeypatch.setattr(scars, "_run_swaps", checked)
        scars.multi_glue(mcgee, 1, 1, seed=7)
        assert len(seen) == 2
        for swaps, shortest, exact in seen:
            assert swaps == 0 and shortest == exact

    def test_no_movable_edges(self):
        # nothing to scan: no cycle through a movable edge, no swap
        state = _SwapState(10, cycle_graph(10).edges())
        none = np.zeros(0, dtype=np.int64)
        res = _run_swaps(state, none, none, none, 12, 3)
        assert (res.swaps, res.shortest) == (0, _BIG)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("D", range(1, 7))
    def test_achieved_girth_is_glued_girth(self, d, D):
        for seed in range(3):
            p = pair_trees(d, D, seed)
            assert p.achieved_girth == girth(p.glued), seed


class TestNegativeSeed:
    def test_pair_trees(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            pair_trees(2, 3, seed=-1)
