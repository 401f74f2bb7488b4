import hashlib
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scargraph import graphs
from scargraph.graphs import (_CHUNK_ENTRIES, EdgeListFormatError,
                              _widest_sphere, ball, bfs_distances,
                              bs_cycle_fraction, build_graph, girth,
                              is_bipartite, is_connected, is_regular,
                              load_edge_list, save_edge_list,
                              shortest_cycle_through, vertex_expansion)
from scargraph.named import (complete_graph, cycle_graph, mcgee_graph,
                             path_graph, petersen_graph, star_graph)
from scargraph.pairing import pair_trees
from scargraph.spectral import kahale_instance
from scargraph.trees import build_dary_tree, interior_size

from conftest import brute_force_girth, random_small_graph

INF = math.inf


@st.composite
def small_graphs(draw):
    """Simple graphs on up to 14 vertices: a random forest (each vertex
    hangs from an earlier one or starts a new component, so isolated
    vertices and several components occur) plus up to 2n extra edges,
    which close cycles of every length and make the degrees uneven."""
    n = draw(st.integers(0, 14))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.add((parent, v))
    if n >= 2:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    return build_graph(n, sorted(edges))


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges().tolist())
    return G


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3 and g.num_edges == 3
        assert girth(g) == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(4, [(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(4, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_symmetry_and_sorting(self):
        g = build_graph(5, [(3, 1), (0, 4), (1, 0)])
        for u in range(5):
            nb = g.neighbors(u)
            assert list(nb) == sorted(nb)
            for v in nb:
                assert u in g.neighbors(int(v))


class TestGirth:
    def test_examples(self):
        assert girth(cycle_graph(6)) == 6
        assert girth(path_graph(5)) == INF
        assert girth(petersen_graph()) == 5
        assert girth(mcgee_graph()) == 7

    def test_petersen_against_enumeration(self):
        assert brute_force_girth(petersen_graph()) == 5

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            g = random_small_graph(rng)
            assert girth(g) == brute_force_girth(g)


    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_matches_networkx(self, g):
        assert girth(g) == nx.girth(to_networkx(g))

    def test_short_cycle_after_many_chunks(self, lps_h):
        # LPS(5,29) has girth 9 and 6 neighbours per vertex; a triangle on
        # three extra vertices is met only by the last chunk of sources,
        # long after the first chunk has cut the search depth to 8
        n = lps_h.n
        g = build_graph(n + 3, lps_h.edges().tolist()
                        + [(n, n + 1), (n + 1, n + 2), (n, n + 2)])
        assert _CHUNK_ENTRIES // _widest_sphere(g.n, 6, 8) < n
        assert girth(lps_h) == 9
        assert girth(g) == 3
        assert bs_cycle_fraction(g, 3) == Fraction(3, n + 3)
        assert bs_cycle_fraction(g, 4) == 1


class TestShortestCycleThrough:
    def test_cycle(self):
        g = cycle_graph(6)
        for v in range(6):
            length, cyc = shortest_cycle_through(g, v)
            assert length == 6
            assert v in cyc and len(cyc) == 6

    def test_path_has_none(self):
        assert shortest_cycle_through(path_graph(3), 1) == (INF, None)

    def test_two_triangles_sharing_a_vertex(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        length, cyc = shortest_cycle_through(g, 0)
        assert length == 3 and 0 in cyc

    def test_returned_cycle_is_a_cycle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_small_graph(rng)
            for v in range(g.n):
                length, cyc = shortest_cycle_through(g, v)
                if cyc is None:
                    continue
                assert len(cyc) == length and len(set(cyc)) == length
                assert v in cyc
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert b in g.neighbors(a)

    def test_lower_bounded_by_girth_with_equality_somewhere(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_small_graph(rng)
            gv = girth(g)
            lengths = [shortest_cycle_through(g, v)[0] for v in range(g.n)]
            assert all(ln >= gv for ln in lengths)
            if gv < INF:
                assert min(lengths) == gv

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.data())
    def test_matches_networkx(self, g, data):
        # oracle: min over the edges (v, w) of 1 + dist(v, w) in G - (v, w)
        if g.n == 0:
            return
        v = data.draw(st.integers(0, g.n - 1))
        G = to_networkx(g)
        lengths = []
        for w in list(G[v]):
            G.remove_edge(v, w)
            if nx.has_path(G, v, w):
                lengths.append(1 + nx.shortest_path_length(G, v, w))
            G.add_edge(v, w)
        length, cyc = shortest_cycle_through(g, v)
        assert length == min(lengths, default=INF)
        if cyc is not None:
            assert cyc[0] == v and len(set(cyc)) == len(cyc) == length
            assert all(G.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))

    def test_lps_vertex_transitive_girth_nine(self, lps_h):
        for v in np.random.default_rng(0).choice(lps_h.n, 5, replace=False):
            length, cyc = shortest_cycle_through(lps_h, int(v))
            assert length == 9 and cyc[0] == v and len(set(cyc)) == 9


class TestBall:
    def test_cycle_radius_three_is_path(self):
        b = ball(cycle_graph(8), 0, 3)
        assert len(b.vertices) == 7 and b.is_tree
        assert [len(l) for l in b.layers] == [1, 2, 2, 2]

    def test_cycle_radius_four_closes(self):
        b = ball(cycle_graph(8), 0, 4)
        assert len(b.vertices) == 8 and not b.is_tree

    def test_mcgee_radius_two_tree(self):
        # girth 7 > 2*2+1 forces the 2-ball to be a tree of 1+3+6 vertices
        b = ball(mcgee_graph(), 0, 2)
        assert len(b.vertices) == 10 and b.is_tree

    def test_high_girth_implies_tree(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_small_graph(rng)
            gv = girth(g)
            for radius in (1, 2):
                if gv > 2 * radius + 1:
                    assert ball(g, 0, radius).is_tree

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.data())
    def test_matches_networkx_ego_graph(self, g, data):
        if g.n == 0:
            return
        v = data.draw(st.integers(0, g.n - 1))
        radius = data.draw(st.integers(0, 5))
        G = to_networkx(g)
        ego = nx.ego_graph(G, v, radius=radius)
        dist = nx.single_source_shortest_path_length(G, v, cutoff=radius)
        b = ball(g, v, radius)
        assert set(b.vertices.tolist()) == set(ego)
        assert b.layers == [sorted(u for u in dist if dist[u] == i)
                            for i in range(max(dist.values()) + 1)]
        edges = b.vertices[b.subgraph.edges()].tolist()
        assert {frozenset(e) for e in edges} == set(map(frozenset, ego.edges()))
        assert b.is_tree == nx.is_tree(ego)


class TestBipartiteRegular:
    def test_examples(self):
        assert is_bipartite(cycle_graph(6))
        assert not is_bipartite(cycle_graph(5))
        assert is_regular(petersen_graph()) == 3
        assert is_regular(star_graph(3)) is None
        assert is_connected(petersen_graph())

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_bipartite_matches_networkx(self, g):
        assert is_bipartite(g) == nx.is_bipartite(to_networkx(g))


class TestMultiSourceLayers:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.data())
    def test_kahale_layers_match_networkx(self, g, data):
        if g.n == 0:
            return
        X = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                               max_size=4))
        h = data.draw(st.integers(1, 5))
        inst = kahale_instance(g, X, h, [1.0] * (h + 1), 1.0)
        dist = nx.multi_source_dijkstra_path_length(to_networkx(g), set(X),
                                                    cutoff=h)
        assert [lay.tolist() for lay in inst.layers] == [
            sorted(u for u in dist if dist[u] == i) for i in range(h + 1)]


class TestVertexExpansion:
    def test_single_vertex_on_cycle(self):
        assert vertex_expansion(cycle_graph(6), [0]) == Fraction(2)

    def test_pair_in_k4(self):
        assert vertex_expansion(complete_graph(4), [0, 1]) == Fraction(1)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            vertex_expansion(cycle_graph(6), [])

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_small_graph(rng)
            perm = rng.permutation(g.n)
            relabeled = build_graph(
                g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges()])
            k = int(rng.integers(1, g.n))
            S = rng.choice(g.n, size=k, replace=False)
            assert vertex_expansion(g, S) == \
                vertex_expansion(relabeled, perm[S])


class TestBsCycleFraction:
    def test_tree_is_zero(self):
        assert bs_cycle_fraction(path_graph(9), 4) == 0

    def test_cycle_saturates(self):
        assert bs_cycle_fraction(cycle_graph(6), 3) == 1

    def test_girth_seven_radius_two(self):
        assert bs_cycle_fraction(mcgee_graph(), 2) == 0

    def test_zero_below_half_girth(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_small_graph(rng)
            gv = girth(g)
            for radius in (1, 2, 3):
                if 2 * radius + 1 < gv:
                    assert bs_cycle_fraction(g, radius) == 0


    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.integers(0, 5))
    def test_matches_networkx_balls(self, g, radius):
        G = to_networkx(g)
        balls = (nx.ego_graph(G, v, radius=radius) for v in G)
        count = sum(1 for b in balls
                    if b.number_of_edges() >= b.number_of_nodes())
        expected = Fraction(count, g.n) if g.n else Fraction(0, 1)
        assert bs_cycle_fraction(g, radius) == expected


def girth_in_small_chunks(g, entries):
    """girth(g) and nx.girth with chunks of at most ``entries`` path-count
    entries, so nearly every chunk deletes its sources before the next."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CHUNK_ENTRIES", entries)
        return girth(g), nx.girth(to_networkx(g))


class TestGirthDeletingSources:
    """girth drops each chunk's sources once they are searched; tiny chunk
    budgets make every search after the first run on a smaller graph."""

    @settings(max_examples=400, deadline=None)
    @given(small_graphs(), st.sampled_from([1, 2, 8, 64]))
    def test_matches_networkx(self, g, entries):
        got, expected = girth_in_small_chunks(g, entries)
        assert got == expected

    def test_shortest_cycle_spread_over_chunks(self):
        # vertex 0 lies only on a 7-cycle, which lowers the cap to 6 first;
        # the 5-cycle 1-3-5-7-9 has one vertex per chunk, and the deleted
        # vertex 0 hangs off it by the path 0-2-1
        seven = [0, 10, 11, 12, 13, 14, 15]
        five = [1, 3, 5, 7, 9]
        edges = [(c[i], c[i - 1]) for c in (seven, five) for i in range(len(c))]
        g = build_graph(16, edges + [(0, 2), (1, 2), (4, 3), (6, 5), (8, 7)])
        for entries in (1, 2, 3):
            assert girth_in_small_chunks(g, entries) == (5, 5)

    def test_short_cycle_on_the_last_ids(self):
        n = 30
        g = build_graph(n + 3, [(v, (v + 1) % n) for v in range(n)]
                        + [(n, n + 1), (n + 1, n + 2), (n, n + 2), (0, n)])
        for entries in (1, 4, 16):
            assert girth_in_small_chunks(g, entries) == (3, 3)

    def test_forest(self):
        rng = np.random.default_rng(5)
        parents = [int(rng.integers(-1, v)) for v in range(1, 40)]
        g = build_graph(40, [(p, v + 1) for v, p in enumerate(parents)
                             if p >= 0])
        assert girth_in_small_chunks(g, 1) == (INF, INF)
        assert girth_in_small_chunks(path_graph(25), 3) == (INF, INF)

    def test_disconnected(self):
        # a 9-cycle on the low ids, isolated vertices, a 6-cycle on the high
        g = build_graph(20, [(v, (v + 1) % 9) for v in range(9)]
                        + [(14 + v, 14 + (v + 1) % 6) for v in range(6)])
        for entries in (1, 5, 64):
            assert girth_in_small_chunks(g, entries) == (6, 6)

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.integers(0, 4), st.sampled_from([1, 8]))
    def test_ball_fraction_deletes_nothing(self, g, radius, entries):
        # bs_cycle_fraction needs every per-source length, so under the
        # same tiny budget it still matches one ball per vertex
        count = sum(not ball(g, v, radius).is_tree for v in range(g.n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_CHUNK_ENTRIES", entries)
            got = bs_cycle_fraction(g, radius)
        assert got == (Fraction(count, g.n) if g.n else 0)


def searched_bases(g, entries=_CHUNK_ENTRIES, radius=None):
    """girth(g), or bs_cycle_fraction(g, radius), and the first id of the
    graph each searched chunk walked, read off the one _widest_sphere call
    per chunk."""
    bases = []

    def widest(n, max_degree, cap):
        bases.append(g.n - n)
        return _widest_sphere(n, max_degree, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_widest_sphere", widest)
        mp.setattr(graphs, "_CHUNK_ENTRIES", entries)
        got = girth(g) if radius is None else bs_cycle_fraction(g, radius)
    return got, bases


@st.composite
def trees_plus_edges(draw):
    """A random tree on 20-300 vertices plus 0-3 extra edges, relabelled at
    random, so a cycle may sit anywhere in id order, the highest ids too."""
    n = draw(st.integers(20, 300))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    label = draw(st.permutations(range(n)))
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


class TestGirthStopsOnForest:
    """The search stops before any chunk whose graph left to walk is a
    forest, so a forest searches no chunk at all."""

    def random_forest(self):
        rng = np.random.default_rng(11)
        parents = [int(rng.integers(-1, v)) for v in range(1, 500)]
        return build_graph(500, [(p, v + 1) for v, p in enumerate(parents)
                                 if p >= 0])

    def test_forest_searches_no_chunk(self):
        for g in (path_graph(5000), build_dary_tree(4, 7).graph,
                  build_graph(50, []), self.random_forest()):
            assert searched_bases(g) == (INF, [])

    def test_ball_fraction_of_a_forest_searches_no_chunk(self):
        for radius in (0, 1, 3):
            for entries in (1, _CHUNK_ENTRIES):
                assert searched_bases(self.random_forest(), entries,
                                      radius) == (0, [])

    def test_double_tree_stops_after_t1_interior(self):
        g = pair_trees(4, 6, seed=0).glued
        t1_interior = interior_size(4, 6)
        assert (g.n, t1_interior) == (8532, 1706)
        got, bases = searched_bases(g)
        assert got == nx.girth(to_networkx(g)) == 10
        # removing T1's interior leaves a tree: the last chunk searched
        # starts inside it
        assert bases and max(bases) < t1_interior

    @settings(max_examples=150, deadline=None)
    @given(trees_plus_edges(), st.sampled_from([1, 2, 8, 64, _CHUNK_ENTRIES]))
    def test_matches_networkx(self, g, entries):
        assert searched_bases(g, entries)[0] == nx.girth(to_networkx(g))


class TestNegativeRadiusRefused:
    def test_ball(self):
        with pytest.raises(ValueError, match="radius"):
            ball(cycle_graph(5), 0, -1)

    def test_bfs_distances_cap(self):
        with pytest.raises(ValueError, match="cap"):
            bfs_distances(cycle_graph(5), 0, cap=-1)

    def test_bs_cycle_fraction(self):
        with pytest.raises(ValueError, match="radius"):
            bs_cycle_fraction(cycle_graph(5), -1)


class TestDistances:
    def test_adjacent_vertices_differ_by_at_most_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_small_graph(rng)
            dist = bfs_distances(g, 0)
            for u, v in g.edges():
                du, dv = dist[u], dist[v]
                if du >= 0 and dv >= 0:
                    assert abs(int(du) - int(dv)) <= 1

    def test_cap(self):
        dist = bfs_distances(cycle_graph(10), 0, cap=2)
        assert (dist >= 0).sum() == 5

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.data())
    def test_matches_networkx(self, g, data):
        if g.n == 0:
            return
        source = data.draw(st.integers(0, g.n - 1))
        cap = data.draw(st.none() | st.integers(0, 6))
        expected = nx.single_source_shortest_path_length(
            to_networkx(g), source, cutoff=cap)
        dist = bfs_distances(g, source, cap=cap)
        assert {v: int(x) for v, x in enumerate(dist) if x >= 0} == expected


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = petersen_graph()
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        h = load_edge_list(path)
        assert h.n == g.n and np.array_equal(h.edges(), g.edges())

    def test_valid_c6(self, tmp_path):
        p = tmp_path / "c6.edges"
        p.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert girth(load_edge_list(p)) == 6

    @pytest.mark.parametrize("content,msg", [
        ("", "line 1"),
        ("3\n", "line 1"),
        ("3 1\n0 1\n1 2\n", "declares 1 edges"),
        ("3 2\n0 1\n", "declares 2 edges"),
        ("3 1\n0 x\n", "line 2"),
        ("3 1\n0 5\n", "line 2"),
        ("3 1\n1 1\n", "self-loop"),
        ("4 2\n0 1\n1 0\n", "duplicate"),
        ("3 1\n0 1 2\n", "line 2"),
    ])
    def test_malformed(self, tmp_path, content, msg):
        p = tmp_path / "bad.edges"
        p.write_text(content)
        with pytest.raises(EdgeListFormatError, match=msg):
            load_edge_list(p)


class TestEdgeListErrorsAndBytes:
    """The loader reports the first offending line, whatever the kind of
    fault, with the message the line-by-line reading gives; the writer's
    bytes are pinned."""

    @pytest.mark.parametrize("content,msg", [
        # across lines, the first bad line wins whatever its kind
        ("3 2\n0 9\n1 1\n", "line 2: endpoint out of range [0, 3)"),
        ("4 3\n0 1\n2 2\n0 1 2\n", "line 3: self-loop at 2"),
        ("4 3\n0 1\n0 1 2\n2 2\n", "line 3: expected 'u v'"),
        ("4 3\n0 1\n1 0\n2 x\n", "line 3: duplicate edge (0, 1)"),
        ("4 3\n0 1\n2 x\n1 0\n", "line 3: endpoints must be integers"),
        ("4 3\n0 1\n2 3\n1 0\n", "line 4: duplicate edge (0, 1)"),
        # within a line: shape, then integers, then range, then self-loop
        ("4 1\n9 x\n", "line 2: endpoints must be integers"),
        ("4 1\nx 9\n", "line 2: endpoints must be integers"),
        ("4 1\n5 5\n", "line 2: endpoint out of range [0, 4)"),
        ("4 1\n-1 2\n", "line 2: endpoint out of range [0, 4)"),
        # lo * n + hi of an out-of-range pair can equal a valid pair's
        ("3 2\n1 2\n0 5\n", "line 3: endpoint out of range [0, 3)"),
        ("3 2\n0 5\n1 2\n", "line 2: endpoint out of range [0, 3)"),
        # blank and whitespace-only lines count in the line numbers
        ("4 2\n\n0 1\n \t \n1 1\n", "line 5: self-loop at 1"),
        ("4 2\n0 1\n\n\n0 1\n", "line 5: duplicate edge (0, 1)"),
        ("4 2\n0 1\n\n1\n", "line 4: expected 'u v'"),
        ("4 2\r\n0 1\r\n\r\n1 1\r\n", "line 4: self-loop at 1"),
        # endpoints beyond 64 bits are out of range, not an overflow
        ("3 1\n0 123456789012345678901234567890\n",
         "line 2: endpoint out of range [0, 3)"),
        ("3 2\n0 1\n-123456789012345678901234567890 1\n",
         "line 3: endpoint out of range [0, 3)"),
        ("3 1\n123456789012345678901234567890 x\n",
         "line 2: endpoints must be integers"),
        # what int() rejects is not an integer
        ("4 1\n3.0 1\n", "line 2: endpoints must be integers"),
        ("4 1\n0x3 1\n", "line 2: endpoints must be integers"),
        ("4 1\n1e3 1\n", "line 2: endpoints must be integers"),
        ("4 1\n1__0 1\n", "line 2: endpoints must be integers"),
        # endpoints are reported as the integers they parse to
        ("11 1\n+3 3\n", "line 2: self-loop at 3"),
        ("11 2\n1_0 3\n+3 10\n", "line 3: duplicate edge (3, 10)"),
        # the edge count is checked before any edge line
        ("3 3\n0 1\n1 1\n", "header declares 3 edges but file has 2"),
    ])
    def test_first_offending_line(self, tmp_path, content, msg):
        p = tmp_path / "bad.edges"
        p.write_text(content)
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list(p)
        assert str(err.value).startswith(msg)

    def test_int_syntax_accepted(self, tmp_path):
        p = tmp_path / "ok.edges"
        p.write_text("11 3\n+3 1_0\n 0\t2 \n\n-0 +1\n")
        g = load_edge_list(p)
        assert g.n == 11
        assert g.edges().tolist() == [[0, 1], [0, 2], [3, 10]]

    def test_petersen_bytes(self, tmp_path):
        path = tmp_path / "p.edges"
        save_edge_list(petersen_graph(), path)
        assert path.read_bytes() == (
            b"10 15\n0 1\n0 4\n0 5\n1 2\n1 6\n2 3\n2 7\n3 4\n3 8\n4 9\n"
            b"5 7\n5 8\n6 8\n6 9\n7 9\n")

    def test_empty_graph_bytes(self, tmp_path):
        path = tmp_path / "e.edges"
        save_edge_list(build_graph(3, []), path)
        assert path.read_bytes() == b"3 0\n"
        h = load_edge_list(path)
        assert h.n == 3 and h.num_edges == 0

    def test_lps13_base_digest(self, tmp_path):
        from scargraph.base import lps_graph
        path = tmp_path / "lps13.edges"
        save_edge_list(lps_graph(13, 17), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "50c08ed2990395dfb962943f537b2cbe9fdbdfad63a5c3a6bbced9ab5e17f4ae")

    def test_round_trip_lps29(self, tmp_path, lps_h):
        path = tmp_path / "lps29.edges"
        save_edge_list(lps_h, path)
        h = load_edge_list(path)
        assert h.n == lps_h.n == 12180
        assert np.array_equal(h.indptr, lps_h.indptr)
        assert np.array_equal(h.indices, lps_h.indices)


class TestConnected:
    def test_long_path_and_cycle(self):
        assert is_connected(path_graph(20000))
        assert is_connected(cycle_graph(20000))
        assert is_connected(build_graph(0, [])) and is_connected(path_graph(1))

    def test_disconnected(self):
        assert not is_connected(build_graph(2, []))
        assert not is_connected(build_graph(20000, [(i, i + 1) for i in
                                                    range(19998)]))
        assert not is_connected(build_graph(6, [(0, 1), (1, 2), (2, 0),
                                                (3, 4), (4, 5), (5, 3)]))

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_matches_networkx(self, g):
        expect = g.n == 0 or nx.is_connected(to_networkx(g))
        assert is_connected(g) == expect


class TestVertexBound:
    """A header n above MAX_VERTICES is rejected on line 1 before anything
    is allocated for it."""

    @pytest.mark.parametrize("n", [99999999999999999999, 4000000000,
                                   graphs.MAX_VERTICES + 1])
    def test_oversized_header(self, tmp_path, n):
        p = tmp_path / "big.edges"
        p.write_text(f"{n} 1\n0 1\n")
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list(p)
        assert str(err.value) == (
            f"line 1: n must be at most {graphs.MAX_VERTICES}")

    def test_bound_keeps_keys_in_int64(self):
        n = graphs.MAX_VERTICES
        assert n >= 352440 and (n - 1) * n + n - 1 < 2**63

    def test_small_header_without_edges(self, tmp_path):
        p = tmp_path / "empty.edges"
        p.write_text("5 0\n")
        g = load_edge_list(p)
        assert g.n == 5 and g.num_edges == 0

    def test_build_graph_rejects_oversized_n(self):
        with pytest.raises(ValueError, match="at most"):
            build_graph(graphs.MAX_VERTICES + 1, [])


def _reference_load(text):
    """The edge-list format read line by line: (n, sorted edge list) or the
    error message for the first offending line."""
    lines = text.splitlines()
    if not lines:
        return "line 1: missing header 'n m'"
    head = lines[0].split()
    if len(head) != 2:
        return "line 1: header must be 'n m'"
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        return "line 1: header must hold two integers"
    if n < 0 or m < 0:
        return "line 1: n and m must be nonnegative"
    body = [(i, line.split()) for i, line in enumerate(lines[1:], start=2)
            if line.split()]
    if len(body) != m:
        return f"header declares {m} edges but file has {len(body)} edge lines"
    edges = set()
    for i, words in body:
        if len(words) != 2:
            return f"line {i}: expected 'u v'"
        try:
            u, v = int(words[0]), int(words[1])
        except ValueError:
            return f"line {i}: endpoints must be integers"
        if not (0 <= u < n and 0 <= v < n):
            return f"line {i}: endpoint out of range [0, {n})"
        if u == v:
            return f"line {i}: self-loop at {u}"
        if (min(u, v), max(u, v)) in edges:
            return f"line {i}: duplicate edge ({min(u, v)}, {max(u, v)})"
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


_SEPARATORS = [" ", "\t", "  ", "\u3000", "\u00a0", " \u3000 "]
_BREAKS = ["\n", "\r\n", "\u2028"]
_ODD_TOKENS = ["+3", "1_0", "\u0663", "3.0", "x", "-1", "-0",
               "123456789012345678901234567890",
               "-123456789012345678901234567890"]


@st.composite
def edge_list_texts(draw):
    """Edge-list texts near the format: small n, mostly well-formed lines
    (so later faults are reached), with blank lines, odd separators and
    line breaks, wrong token counts, int() syntax, huge endpoints,
    self-loops and duplicates."""
    n = draw(st.integers(0, 16))
    vertex = st.integers(0, max(n - 1, 0)).map(str)
    odd = st.sampled_from(_ODD_TOKENS)
    token = st.integers(0, 15).flatmap(lambda k: odd if k == 0 else vertex)
    sep = st.sampled_from(_SEPARATORS)
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["edge"] * 12 + ["blank", "shape"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u3000"])))
            continue
        size = 2 if kind == "edge" else draw(st.sampled_from([1, 3]))
        words = [draw(token) for _ in range(size)]
        line = "".join(w + draw(sep) for w in words[:-1]) + words[-1]
        if draw(st.booleans()):
            line = draw(sep) + line + draw(sep)
        lines.append(line)
    if lines and draw(st.booleans()):          # a duplicate or reversed edge
        lines.append(" ".join(reversed(draw(st.sampled_from(lines)).split())))
    edge_lines = sum(1 for line in lines if line.split())
    m = draw(st.sampled_from([edge_lines] * 8 + [edge_lines + 1]))
    text = f"{n} {m}"
    for line in lines:
        text += draw(st.sampled_from(_BREAKS)) + line
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestEdgeListDifferential:
    """load_edge_list gives the graph, or the message, that a plain
    line-by-line reading gives."""

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_matches_line_by_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("diff") / "g.edges"
        path.write_bytes(text.encode("utf-8"))
        expect = _reference_load(path.read_text(encoding="utf-8"))
        try:
            g = load_edge_list(path)
        except EdgeListFormatError as err:
            assert str(err) == expect
        else:
            assert (g.n, g.edges().tolist()) == (expect[0],
                                                  [list(e) for e in expect[1]])
