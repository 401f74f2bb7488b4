import json
import math

import numpy as np
import pytest

from scargraph import base, spectral
from scargraph.base import (LpsParams, generator_matrices, legendre_symbol,
                            load_graph, lps_graph, quaternion_generators,
                            validate_base)
from scargraph.graphs import MAX_VERTICES, build_graph, girth, \
    is_bipartite, is_connected, is_regular, save_edge_list
from scargraph.named import cycle_graph, path_graph


class TestNumberTheory:
    def test_legendre_by_squaring(self):
        # 5 is a square mod 29 (11^2 = 121 = 4*29+5) but not mod 13
        squares_29 = {(x * x) % 29 for x in range(1, 29)}
        squares_13 = {(x * x) % 13 for x in range(1, 13)}
        assert (5 in squares_29) == (legendre_symbol(5, 29) == 1)
        assert (5 in squares_13) == (legendre_symbol(5, 13) == 1)
        assert legendre_symbol(5, 29) == 1
        assert legendre_symbol(5, 13) == -1

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_quaternion_solution_count(self, p):
        sols = quaternion_generators(p)
        assert len(sols) == p + 1
        for a0, a1, a2, a3 in sols:
            assert a0 > 0 and a0 % 2 == 1
            assert a1 % 2 == a2 % 2 == a3 % 2 == 0
            assert a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LpsParams(6, 29)       # p not prime
        with pytest.raises(ValueError):
            LpsParams(7, 29)       # p = 3 mod 4
        with pytest.raises(ValueError):
            LpsParams(5, 5)        # p = q
        with pytest.raises(ValueError):
            LpsParams(101, 13)     # q <= 2 sqrt(p)

    def test_vertex_count_bounded_before_enumeration(self):
        # 509 is the largest prime = 1 mod 4 whose PSL(2, q) fits
        assert 509 * (509 ** 2 - 1) // 2 <= MAX_VERTICES
        assert LpsParams(5, 509).legendre in (-1, 1)
        with pytest.raises(ValueError,
                           match=f"gives 70710120 vertices > {MAX_VERTICES}"):
            LpsParams(5, 521)
        with pytest.raises(ValueError, match=f"> {MAX_VERTICES}"):
            lps_graph(5, 521)

    def test_huge_p_or_q_rejected_before_trial_division(self):
        # the prime 2^61 - 1 would cost about 7.6e8 trial divisions
        with pytest.raises(ValueError, match="vertices"):
            LpsParams(5, 2 ** 61 - 1)
        with pytest.raises(ValueError, match="q > 2 sqrt"):
            LpsParams(2 ** 61 - 1, 29)


class TestLpsGraph:
    def test_bipartite_branch_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            lps_graph(5, 13)

    def test_group_order_and_regularity(self, lps_h):
        assert lps_h.n == 29 * (29 * 29 - 1) // 2 == 12180
        assert is_regular(lps_h) == 6
        assert is_connected(lps_h)

    def test_nonbipartite(self, lps_h):
        assert not is_bipartite(lps_h)

    def test_generators_inverse_closed(self):
        # projective inverse of [[a,b],[c,d]] is [[d,-b],[-c,a]]
        q = 29
        gens = set(generator_matrices(5, q))
        assert len(gens) == 6

        def canon(m):
            a, b, c, dd = m
            s = pow(a if a % q else b, q - 2, q)
            return tuple((x * s) % q for x in m)

        for a, b, c, dd in gens:
            inv = canon((dd % q, (-b) % q, (-c) % q, a % q))
            assert inv in gens

    def test_second_graph_order(self):
        g = lps_graph(5, 41)
        assert g.n == 41 * (41 * 41 - 1) // 2 == 34440
        assert is_regular(g) == 6


class TestValidateBase:
    def test_cycle_fails_regularity(self):
        report = validate_base(cycle_graph(6), 2, 1)
        assert not report.checks["regular_d_plus_1"]
        assert not report.all_ok

    def test_mcgee(self, mcgee):
        report = validate_base(mcgee, 2, 1)
        assert report.degree == 3 and report.girth == 7
        assert not report.bipartite
        assert report.checks["girth_exceeds_4r"]
        assert report.checks["tree_balls_radius_r_plus_1"]
        assert report.lambda2_abs == pytest.approx(2.5615528128, abs=1e-6)
        assert report.ramanujan_ok  # 2.56 <= 2 sqrt(2) + tol
        assert report.girth_ok_for_r == 1
        assert report.all_ok

    def test_lps_report(self, lps_h):
        report = validate_base(lps_h, 5, 1)
        assert report.girth == 9
        assert report.lambda2_abs <= 2 * math.sqrt(5) + 1e-8
        assert report.girth_ok_for_r == 2
        assert report.all_ok

    def test_r_zero_structural_checks(self, mcgee):
        report = validate_base(mcgee, 2, 0)
        assert report.checks["regular_d_plus_1"]
        assert report.checks["non_bipartite"]

    def test_json_round(self, mcgee):
        import json
        report = validate_base(mcgee, 2, 1)
        data = json.loads(report.to_json())
        assert data["girth"] == 7 and data["degree"] == 3

    def test_radius_closed_form_matches_the_search(self, mcgee, monkeypatch):
        # the largest r with girth > max(4r, 2(r+1)+1), found by counting up
        for g in range(201):
            rmax = 0
            while g > max(4 * (rmax + 1), 2 * (rmax + 2) + 1):
                rmax += 1
            monkeypatch.setattr(base, "girth", lambda _, g=g: g)
            assert validate_base(mcgee, 2, 1).girth_ok_for_r == rmax, g

    def test_forest_admits_every_radius(self):
        report = validate_base(path_graph(3), 1, 1)
        assert report.girth == math.inf and report.girth_ok_for_r is None
        data = json.loads(report.to_json())
        assert data["girth"] is None and data["girth_ok_for_r"] is None
        assert not report.checks["regular_d_plus_1"]

    def test_disconnected_lambda2_is_null(self):
        # two components: lambda2 is not measured, and the JSON is strict
        report = validate_base(build_graph(4, [(0, 1), (2, 3)]), 1, 1)
        assert report.lambda2_abs == math.inf
        data = json.loads(report.to_json(), parse_constant=_reject)
        assert data["lambda2_abs"] is None
        assert not data["checks"]["connected"]

    @pytest.mark.parametrize("components", [1, 2])
    def test_connectivity_tested_once(self, mcgee, monkeypatch, components):
        # the lambda2 solve tests connectivity, and the report reads it
        # off the solve
        e = mcgee.edges()
        g = build_graph(24 * components,
                        np.vstack([e + 24 * c for c in range(components)]))
        calls = []

        def counted(h):
            calls.append(h)
            return is_connected(h)

        monkeypatch.setattr(spectral, "is_connected", counted)
        assert not hasattr(base, "is_connected")
        report = validate_base(g, 2, 1)
        assert calls == [g]
        assert report.checks["connected"] == (components == 1)
        assert (report.lambda2_abs == math.inf) == (components == 2)


def _reject(token):
    raise ValueError(f"non-JSON token {token}")


class TestLoadGraph:
    def test_round_trip(self, tmp_path, mcgee):
        path = tmp_path / "mcgee.edges"
        save_edge_list(mcgee, path)
        g = load_graph(path)
        assert g.n == 24 and girth(g) == 7
