import hashlib
import itertools
import json
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scargraph import scars
from scargraph.graphs import (ConstructionError, bfs_distances, girth,
                              is_regular, vertex_expansion)
from scargraph.named import (cycle_graph, petersen_graph,
                             random_regular_graph, star_graph)
from scargraph.scars import (ScarSite, carve_site, expected_vertex_count,
                             glue, greedy_packing, localized_eigenvector,
                             multi_glue, odd_level_witness)
from scargraph.trees import interior_size, radial_spectrum


class TestCarveSite:
    def test_mcgee_r1(self, mcgee):
        site = carve_site(mcgee, 0, 1)
        assert len(site.leaves) == 3 and len(site.partners) == 3
        assert len(np.unique(site.partners)) == 3
        dist = bfs_distances(mcgee, 0)
        assert all(dist[v] == 2 for v in site.partners)
        for u, v in site.removed_matching:
            assert v in mcgee.neighbors(int(u))

    def test_r_zero_rejected(self, mcgee):
        with pytest.raises(ValueError):
            carve_site(mcgee, 0, 0)

    def test_lps_leaf_count(self, lps_h):
        site = carve_site(lps_h, 0, 1)
        assert len(site.leaves) == 6 and len(site.partners) == 6

    def test_ball_not_tree_rejected(self):
        with pytest.raises(ValueError, match="not a tree"):
            carve_site(petersen_graph(), 0, 1)  # girth 5 < 2(r+1)+2


class TestGlue:
    def test_mcgee_single_site(self, mcgee_sg):
        assert mcgee_sg.graph.n == 26
        assert is_regular(mcgee_sg.graph) == 3
        assert mcgee_sg.girth >= 4

    def test_expected_vertex_counts(self, mcgee_sg, lps_sg, lps_sg_r2):
        assert mcgee_sg.graph.n == expected_vertex_count(24, 2, 1, 1)
        assert lps_sg.graph.n == expected_vertex_count(12180, 5, 1, 1)
        assert lps_sg_r2.graph.n == expected_vertex_count(12180, 5, 2, 1)

    def test_interior_size_closed_form(self):
        # interior of a depth-r tree: (d^r + d^(r-1) - 2)/(d - 1)
        for d in (2, 3, 4, 5):
            for r in range(1, 7):
                assert interior_size(d, r) == \
                    (d ** r + d ** (r - 1) - 2) // (d - 1)

    def test_sites_too_close_rejected(self, mcgee):
        s0 = carve_site(mcgee, 0, 1)
        s1 = carve_site(mcgee, 2, 1)
        with pytest.raises(ValueError, match="distance"):
            glue(mcgee, [s0, s1], seed=0)

    def test_glued_graph_girth_recorded(self, lps_sg):
        assert lps_sg.girth == girth(lps_sg.graph)

    def test_no_sites_rejected(self, mcgee):
        # zero sites is multi_glue(h, 0, r), which keeps r
        with pytest.raises(ValueError, match="at least one site"):
            glue(mcgee, [])

    def test_retry_takes_the_next_seed(self, mcgee, monkeypatch):
        real, seeds = scars._glue_once, []

        def failing_first(h, sites, d, r, seed):
            seeds.append(seed)
            if len(seeds) == 1:
                raise ConstructionError("unlucky seed")
            return real(h, sites, d, r, seed)

        monkeypatch.setattr(scars, "_glue_once", failing_first)
        sg = glue(mcgee, [carve_site(mcgee, 0, 1)], seed=7)
        assert seeds == [7, 7 + 1000003]
        assert sg.seeds_used == [7 + 1000003] and sg.seed == 7
        assert is_regular(sg.graph) == 3 and sg.girth == girth(sg.graph)

    def test_every_seed_failing_is_reported(self, mcgee, monkeypatch):
        def failing(h, sites, d, r, seed):
            raise ConstructionError(f"unlucky seed {seed}")

        monkeypatch.setattr(scars, "_glue_once", failing)
        with pytest.raises(ConstructionError,
                           match="after 3 seeds: unlucky seed 2000013"):
            glue(mcgee, [carve_site(mcgee, 0, 1)], seed=7)


class TestLocalizedEigenvector:
    def test_r1_explicit_form(self, mcgee_sg):
        nu = localized_eigenvector(mcgee_sg, 0, 0.0)
        site = mcgee_sg.sites[0]
        u, u2 = int(site.root), int(site.t2_levels[0][0])
        expected = np.zeros(26)
        expected[u] = 1 / math.sqrt(2)
        expected[u2] = -1 / math.sqrt(2)
        assert np.allclose(nu, expected)
        assert np.abs(mcgee_sg.graph.csr() @ nu).max() == 0.0

    def test_r2_pair(self, lps_sg_r2):
        spec = radial_spectrum(5, 1)
        a = lps_sg_r2.graph.csr()
        site = lps_sg_r2.sites[0]
        allowed = set(int(v) for v in np.concatenate([site.v1, site.v2]))
        for lam in spec.eigenvalues:
            nu = localized_eigenvector(lps_sg_r2, 0, float(lam))
            assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12
            assert np.abs(a @ nu - lam * nu).max() <= 1e-10
            support = np.nonzero(np.abs(nu) > 1e-12)[0]
            assert set(int(v) for v in support) <= allowed
            assert abs(float(lam)) < 2 * math.sqrt(5)

    def test_wrong_eigenvalue_rejected(self, mcgee_sg):
        with pytest.raises(ValueError, match="radial"):
            localized_eigenvector(mcgee_sg, 0, 1.0)

    def test_opposite_eigenvalues_share_support(self, lps_sg_r2):
        spec = radial_spectrum(5, 1)
        nu_minus = localized_eigenvector(lps_sg_r2, 0, float(spec.eigenvalues[0]))
        nu_plus = localized_eigenvector(lps_sg_r2, 0, float(spec.eigenvalues[1]))
        s_minus = set(np.nonzero(np.abs(nu_minus) > 1e-12)[0].tolist())
        s_plus = set(np.nonzero(np.abs(nu_plus) > 1e-12)[0].tolist())
        assert s_minus == s_plus and len(s_plus) == 14


class TestMultiGlue:
    def test_zero_sites_identity(self, mcgee):
        sg = multi_glue(mcgee, 0, 1, seed=1)
        assert sg.graph.n == mcgee.n and not sg.sites

    def test_mcgee_two_sites_impossible(self, mcgee):
        with pytest.raises(ConstructionError, match="packing"):
            multi_glue(mcgee, 2, 1, seed=1)

    def test_short_packing_reports_its_full_size(self, mcgee, cubic6):
        # a packing that comes up short has run to exhaustion
        for h, k in ((mcgee, 2), (cubic6, 50)):
            full = len(greedy_packing(h, 5))
            assert 0 < full < k
            with pytest.raises(ConstructionError,
                               match=f"insufficient packing: {full} roots"):
                multi_glue(h, k, 1, seed=1)

    def test_packing_stops_at_the_site_count(self, cubic6, monkeypatch):
        # roots are the first picks of the maximal packing, and no more
        # picks are made than sites are glued
        picked = []

        def recording(*args):
            picked.append(greedy_packing(*args))
            return picked[-1]

        monkeypatch.setattr(scars, "greedy_packing", recording)
        sg = multi_glue(cubic6, 2, 1, seed=2)
        full = greedy_packing(cubic6, 5)
        assert len(full) > 2 and [len(p) for p in picked] == [2]
        assert [s.root for s in sg.sites] == full[:2].tolist()

    def test_two_sites_orthogonal_disjoint(self, cubic6_sg2):
        nus = [localized_eigenvector(cubic6_sg2, i, 0.0) for i in range(2)]
        supports = [set(np.nonzero(np.abs(nu) > 1e-12)[0].tolist())
                    for nu in nus]
        assert not (supports[0] & supports[1])
        assert float(nus[0] @ nus[1]) == 0.0

    def test_regularity(self, cubic6_sg2):
        assert is_regular(cubic6_sg2.graph) == 3


class TestGreedyPacking:
    def test_min_dist_one_returns_everything(self, petersen):
        assert len(greedy_packing(petersen, 1)) == 10

    def test_petersen_independent_set(self, petersen):
        picks = greedy_packing(petersen, 2)
        # pairwise non-adjacent
        for a, b in itertools.combinations(picks.tolist(), 2):
            assert b not in petersen.neighbors(a)
        # lemma bound with d = 2: 10 * 1 / (3 * 4) < 1, so at least 1
        assert len(picks) >= 1
        # brute-force maximum independent set of Petersen is 4
        best = 0
        for mask in range(1 << 10):
            subset = [i for i in range(10) if mask >> i & 1]
            if all(b not in petersen.neighbors(a)
                   for a, b in itertools.combinations(subset, 2)):
                best = max(best, len(subset))
        assert best == 4
        assert len(picks) <= best

    def test_pairwise_distance_on_cycle(self):
        g = cycle_graph(12)
        picks = greedy_packing(g, 3)
        dist_maps = {int(v): bfs_distances(g, int(v)) for v in picks}
        for a, b in itertools.combinations(picks.tolist(), 2):
            assert dist_maps[a][b] >= 3

    @pytest.mark.parametrize("min_dist", [3, 5, 9])
    def test_pairwise_distance_on_lps(self, lps_h, min_dist):
        picks = greedy_packing(lps_h, min_dist)
        chosen = np.zeros(lps_h.n, dtype=bool)
        chosen[picks] = True
        for v in picks.tolist():
            near = bfs_distances(lps_h, v, cap=min_dist - 1) >= 0
            assert np.nonzero(near & chosen)[0].tolist() == [v]

    def test_lemma_bound_on_regular_graphs(self, mcgee, petersen, cubic6):
        for g in (mcgee, petersen, cubic6):
            d = is_regular(g) - 1
            for k in (1, 2, 3):
                picks = greedy_packing(g, k)
                bound = g.n * (d - 1) / ((d + 1) * d ** k)
                assert len(picks) >= bound

    def test_irregular_rejected(self):
        with pytest.raises(ValueError):
            greedy_packing(star_graph(3), 2)

    @pytest.mark.parametrize("min_dist", [3, 5, 9])
    def test_limit_keeps_the_first_picks(self, lps_h, min_dist):
        full = greedy_packing(lps_h, min_dist)
        for limit in (0, 1, 2, len(full) - 1, len(full), len(full) + 5):
            assert (greedy_packing(lps_h, min_dist, limit).tolist()
                    == full[:limit].tolist())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 20), st.integers(2, 4), st.integers(0, 2 ** 31),
           st.integers(1, 6))
    def test_packing_and_maximal_against_networkx(self, half, degree, seed,
                                                  min_dist):
        n = 2 * half
        g = random_regular_graph(n, degree, seed=seed)
        picks = greedy_packing(g, min_dist).tolist()
        G = nx.Graph(g.edges().tolist())
        G.add_nodes_from(range(n))
        dist = dict(nx.all_pairs_shortest_path_length(G))
        for a, b in itertools.combinations(picks, 2):
            assert dist[a].get(b, math.inf) >= min_dist
        # first fit: each unpicked vertex is near a pick made before it
        for v in set(range(n)) - set(picks):
            assert any(dist[v].get(p, math.inf) <= min_dist - 1
                       for p in picks if p < v), v


class TestOddLevelWitness:
    def test_r1_is_the_two_roots(self, mcgee_sg):
        site = mcgee_sg.sites[0]
        w = odd_level_witness(site)
        assert set(w.tolist()) == {int(site.root), int(site.t2_levels[0][0])}

    def test_r2_size_and_expansion(self, lps_sg_r2):
        site = lps_sg_r2.sites[0]
        w = odd_level_witness(site)
        d = lps_sg_r2.d
        assert len(w) == 2 * (d + 1)  # level 1 of both trees
        ratio = vertex_expansion(lps_sg_r2.graph, w)
        assert ratio < Fraction(d + 1, 2)

    def test_r3_level_selection(self):
        # synthetic site: levels 0 and 2 of both trees are selected
        d = 2
        lv = [np.array([0]), np.array([1, 2, 3]), np.array([4, 5, 6, 7, 8, 9])]
        lv2 = [a + 10 for a in lv]
        site = ScarSite(0, 3, d, lv, np.zeros(0, np.int64),
                        np.zeros(0, np.int64), np.zeros((0, 2), np.int64),
                        lv2, None)
        w = odd_level_witness(site)
        assert len(w) == 2 * (1 + (d + 1) * d)

    def test_unglued_site_rejected(self, mcgee):
        site = carve_site(mcgee, 0, 1)
        with pytest.raises(ValueError):
            odd_level_witness(site)


def structure_digest(sg):
    """SHA-256 of a glued graph's integer structure: sorted edges, the
    per-site T1/T2/T3 levels, the seeds used and the measured girth."""
    payload = {
        "edges": sg.graph.edges().tolist(),
        "sites": [{key: [lv.tolist() for lv in getattr(s, key)]
                   for key in ("t1_levels", "t2_levels", "t3_levels")}
                  for s in sg.sites],
        "seeds_used": [int(x) for x in sg.seeds_used],
        "girth": int(sg.girth),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenStructure:
    # recorded before the tree layouts of pairing and gluing were merged:
    # a refactor must leave every vertex id and swap decision unchanged
    @pytest.mark.parametrize("fixture,digest", [
        ("mcgee_sg", "cafe8ad3936f526c5f4f9d7aeb0c9454"
                     "03efba3a371033ae5a31dff2a4958080"),
        ("cubic6_sg2", "4d7ba8141cb9fad47bd3d5e60e2a3788"
                       "887239fc00eeb3103bdf391ca26a887d"),
        ("lps_sg_r2", "6618b5ff562671cc79fe1fe9119302a3"
                      "2673dde5121fabf137ce159201b4ddce"),
    ])
    def test_fixture_digest(self, request, fixture, digest):
        sg = request.getfixturevalue(fixture)
        assert structure_digest(sg) == digest


class TestNegativeSeed:
    """A negative seed is refused by name, not by numpy's generator."""

    def test_multi_glue(self, mcgee):
        for k in (0, 1):
            with pytest.raises(ValueError, match="seed must be nonnegative"):
                multi_glue(mcgee, k, 1, seed=-1)

    def test_glue(self, mcgee):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            glue(mcgee, [carve_site(mcgee, 0, 1)], seed=-1)
