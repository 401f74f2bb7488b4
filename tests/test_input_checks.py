"""The input checks of the CLI and the library: each bad input is refused
with its message, and the CLI exits 2 without a traceback."""

import tracemalloc

import numpy as np
import pytest

from scargraph.base import LpsParams, legendre_symbol
from scargraph.certificate import build_certificate
from scargraph.cli import main
from scargraph.graphs import (MAX_VERTICES, build_graph, bfs_distances,
                              is_regular, save_edge_list,
                              shortest_cycle_through, vertex_expansion)
from scargraph.named import (complete_graph, cycle_graph, mcgee_graph,
                             random_regular_graph)
from scargraph.pairing import path_count_cumulative, path_count_total
from scargraph.qe import partial_localization, qe_average, scarring_witness
from scargraph.scars import (ScarredGraph, carve_site, glue, greedy_packing,
                             multi_glue)
from scargraph.spectral import (extreme_eigenvalues, kahale_check,
                                kahale_instance, spectral_threshold,
                                tree_quadratic_bound_check)
from scargraph.trees import (build_dary_tree, interior_size,
                             level_mass_profile, quotient_matrix,
                             radial_spectrum)


def _exit_two(capsys, argv, message):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


class TestCliExitTwo:
    @pytest.mark.parametrize("header,message", [
        ("a b", "line 1: header must hold two integers"),
        ("-1 0", "n and m must be nonnegative"),
    ])
    def test_bad_header(self, tmp_path, capsys, header, message):
        bad = tmp_path / "bad.edges"
        bad.write_text(header + "\n")
        _exit_two(capsys, ["base", "validate", "--graph", str(bad),
                           "--d", "2", "--r", "1"], message)

    def test_construct_radius_zero(self, tmp_path, capsys):
        _exit_two(capsys, ["construct", "--lps", "5", "29", "--d", "5",
                           "--r", "0", "--out", str(tmp_path / "g.edges"),
                           "--cert", str(tmp_path / "c.json")],
                  "r must be at least 1")
        assert not list(tmp_path.iterdir())

    # 9 and 45 are odd composites = 1 mod 4: only trial division rejects them
    @pytest.mark.parametrize("p,q,message", [
        (9, 29, "p = 9 must be a prime = 1 mod 4"),
        (5, 45, "q = 45 must be a prime = 1 mod 4"),
        (5, 31, "q = 31 must be a prime = 1 mod 4"),
    ])
    def test_base_lps_bad_primes(self, tmp_path, capsys, p, q, message):
        out = tmp_path / "h.edges"
        _exit_two(capsys, ["base", "lps", "--p", str(p), "--q", str(q),
                           "--out", str(out)], message)
        assert not out.exists()

    # d must lie in [0, MAX_VERTICES): 10 ** 400 overflowed sqrt, and -1
    # gave sqrt's bare "math domain error"
    @pytest.mark.parametrize("d", [-1, 10 ** 400])
    @pytest.mark.parametrize("cmd", ["validate", "construct"])
    def test_base_degree_out_of_range(self, tmp_path, capsys, cmd, d):
        base = tmp_path / "mcgee.edges"
        save_edge_list(mcgee_graph(), base)
        argv = {"validate": ["base", "validate", "--graph", str(base)],
                "construct": ["construct", "--base", str(base), "--sites", "1",
                              "--out", str(tmp_path / "g.edges"),
                              "--cert", str(tmp_path / "c.json")]}[cmd]
        _exit_two(capsys, argv + ["--d", str(d), "--r", "1"],
                  f"d must lie in [0, {MAX_VERTICES})")
        assert [p.name for p in tmp_path.iterdir()] == ["mcgee.edges"]


class TestGraphChecks:
    def test_build_graph(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            build_graph(-1, [])
        with pytest.raises(ValueError, match="edges must be pairs"):
            build_graph(3, [[0, 1, 2]])

    @pytest.mark.parametrize("v", [-1, 24])
    def test_vertex_out_of_range(self, mcgee, v):
        with pytest.raises(ValueError, match=f"source {v} out of range"):
            bfs_distances(mcgee, v)
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            shortest_cycle_through(mcgee, v)
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            vertex_expansion(mcgee, [0, v])

    def test_extreme_eigenvalues_of_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph"):
            extreme_eigenvalues(build_graph(0, []))

    def test_two_vertex_cycle(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            cycle_graph(2)

    @pytest.mark.parametrize("n,degree,message", [
        (5, 3, "n \\* degree must be even"),
        (4, 4, "degree must be below n"),
    ])
    def test_random_regular_graph(self, n, degree, message):
        with pytest.raises(ValueError, match=message):
            random_regular_graph(n, degree)

    def test_lps_p_one_is_not_prime(self):
        with pytest.raises(ValueError, match="p = 1 must be a prime"):
            LpsParams(1, 29)


class TestTreeChecks:
    def test_path_counts(self):
        with pytest.raises(ValueError, match="s must be at least 1"):
            path_count_total(2, 0)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            path_count_cumulative(2, -1)

    def test_negative_depth(self):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            build_dary_tree(2, -1)

    @pytest.mark.parametrize("depth", [25, 40, 10 ** 9])
    def test_tree_above_max_vertices(self, depth):
        # refused before any level or id array is laid out
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"more than {MAX_VERTICES}"):
                build_dary_tree(2, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_branching_one(self):
        with pytest.raises(ValueError, match="d must be at least 2"):
            quotient_matrix(1, 3)
        with pytest.raises(ValueError, match="d must be at least 2"):
            radial_spectrum(1, 3)

    def test_vector_length(self):
        tree = build_dary_tree(2, 2)
        with pytest.raises(ValueError, match="length must match tree size"):
            tree_quadratic_bound_check(tree, np.ones(tree.graph.n - 1))
        with pytest.raises(ValueError, match="length must match tree size"):
            level_mass_profile(np.ones(tree.graph.n + 1), tree)


class TestQeChecks:
    def test_scarring_witness_length(self):
        with pytest.raises(ValueError, match="on all M vertices"):
            scarring_witness(np.ones(3) / np.sqrt(3), [0], 4)

    def test_qe_average_shape(self):
        with pytest.raises(ValueError, match="full M x M"):
            qe_average(np.eye(3)[:, :2], np.zeros(3))

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
    def test_partial_localization_eps(self, mcgee_sg, eps):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            partial_localization(np.zeros(mcgee_sg.graph.n),
                                 mcgee_sg.sites[0], eps)


class TestScarsChecks:
    def test_greedy_packing_min_dist(self, mcgee):
        with pytest.raises(ValueError, match="min_dist must be at least 1"):
            greedy_packing(mcgee, 0)

    def test_glue_sites_of_different_radii(self, lps_h):
        sites = [carve_site(lps_h, 0, 1), carve_site(lps_h, 1, 2)]
        with pytest.raises(ValueError, match="same d and r"):
            glue(lps_h, sites)

    def test_negative_site_count(self, mcgee):
        with pytest.raises(ValueError, match="site count must be nonnegative"):
            multi_glue(mcgee, -1, 1)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("r", [-1, MAX_VERTICES.bit_length(), 10 ** 400])
    def test_depth_out_of_range(self, mcgee, k, r):
        with pytest.raises(ValueError, match=r"r must lie in \[0, 27\)"):
            multi_glue(mcgee, k, r)

    @pytest.mark.parametrize("r", [-1, MAX_VERTICES.bit_length(), 10 ** 400])
    def test_certificate_depth_out_of_range(self, mcgee, r):
        # a ScarredGraph built by hand, past multi_glue's depth check
        sg = ScarredGraph(mcgee, mcgee.n, 2, r, [], 0, [0], None)
        with pytest.raises(ValueError, match=r"r must lie in \[0, 27\)"):
            build_certificate(sg)

    def test_cycle_base_refused(self):
        # a 2-regular base has d = 1
        with pytest.raises(ValueError, match=r"\(d\+1\)-regular with d >= 2"):
            multi_glue(cycle_graph(8), 1, 1)
        with pytest.raises(ValueError, match=r"\(d\+1\)-regular with d >= 2"):
            carve_site(cycle_graph(8), 0, 1)


class TestKahaleInstanceChecks:
    def test_h_zero(self, mcgee):
        with pytest.raises(ValueError, match="h must be at least 1"):
            kahale_instance(mcgee, [0], 0, [1.0], 1.0)

    def test_too_few_s_values(self, mcgee):
        with pytest.raises(ValueError, match="need s values for layers 0..h"):
            kahale_instance(mcgee, [0], 2, [1.0, 1.0], 1.0)

    def test_empty_layer(self):
        # K4 has diameter 1, so layer 2 around a vertex is empty
        inst = kahale_instance(complete_graph(4), [0], 2, [1.0] * 3, 1.0)
        with pytest.raises(ValueError, match="some layer up to h is empty"):
            kahale_check(complete_graph(4), inst)


class TestDegenerateValues:
    def test_legendre_of_a_multiple(self):
        assert legendre_symbol(29, 29) == 0

    def test_interior_of_depth_zero_tree(self):
        assert interior_size(2, 0) == 0

    def test_empty_graph_is_zero_regular(self):
        assert is_regular(build_graph(0, [])) == 0


@pytest.mark.parametrize("d", [1, MAX_VERTICES, 10 ** 400])
def test_spectral_threshold_refuses_d_out_of_range(d):
    # a (d+1)-regular graph needs more than d + 1 vertices, so d + 1 above
    # MAX_VERTICES is refused by name before any float conversion
    with pytest.raises(ValueError, match="d must be at least 2 and below"):
        spectral_threshold(d)
    assert spectral_threshold(MAX_VERTICES - 1)[0] > 0
