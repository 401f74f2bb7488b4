import math

import numpy as np
import pytest
from scipy.linalg import eigh

from scargraph.trees import (adjacent_level_mass_ratios, build_dary_tree,
                             interior_size, level_mass_profile, level_sizes,
                             lift_radial, nearest_radial_eigenvalue,
                             quotient_matrix, radial_spectrum, tree_size)


class TestBuildTree:
    def test_depth_zero(self):
        t = build_dary_tree(2, 0)
        assert t.graph.n == 1 and len(t.leaves) == 1

    def test_depth_one_is_star(self):
        t = build_dary_tree(2, 1)
        assert t.graph.n == 4 and len(t.leaves) == 3
        assert len(t.graph.neighbors(t.root)) == 3  # root degree d+1

    def test_depth_two_counts(self):
        t = build_dary_tree(2, 2)
        assert t.graph.n == 10
        assert len(t.leaves) == 6  # (d+1) d^(D-1)

    def test_degree_structure(self):
        t = build_dary_tree(3, 3)
        deg = t.graph.degrees()
        assert deg[t.root] == 4
        for lv in t.levels[1:-1]:
            assert (deg[lv] == 4).all()
        assert (deg[t.leaves] == 1).all()

    def test_vertex_count_formula(self):
        for d in (2, 3, 5):
            for D in range(0, 6):
                t = build_dary_tree(d, D)
                if D >= 1:
                    assert t.graph.n == 1 + (d + 1) * (d ** D - 1) // (d - 1)
                assert t.graph.n == tree_size(d, D)
                assert interior_size(d, D) == t.graph.n - len(t.leaves) \
                    if D >= 1 else True

    def test_small_branching_rejected(self):
        with pytest.raises(ValueError):
            build_dary_tree(1, 3)


class TestQuotient:
    def test_depth_one(self):
        q = quotient_matrix(2, 1)
        assert q.tolist() == [[0, 3], [1, 0]]
        w = np.linalg.eigvals(q)
        assert sorted(np.round(w, 10)) == pytest.approx([-math.sqrt(3), math.sqrt(3)])

    def test_depth_two_eigenvalues(self):
        w = np.sort(np.linalg.eigvals(quotient_matrix(2, 2)).real)
        assert w == pytest.approx([-math.sqrt(5), 0.0, math.sqrt(5)], abs=1e-12)

    def test_depth_zero(self):
        assert quotient_matrix(5, 0).tolist() == [[0.0]]


class TestRadialSpectrum:
    def test_counts_and_interval(self):
        for d in (2, 3, 4, 5):
            for D in range(0, 9):
                rs = radial_spectrum(d, D)
                assert len(rs.eigenvalues) == D + 1
                assert np.all(np.abs(rs.eigenvalues) < 2 * math.sqrt(d))

    def test_strict_interior_bound(self):
        for d in (2, 3, 4, 5):
            for D in range(1, 9):
                rs = radial_spectrum(d, D)
                bound = 2 * math.sqrt(d) * math.cos(math.pi / (2 * D + 3))
                assert np.abs(rs.eigenvalues).max() <= bound

    def test_symmetry_about_zero(self):
        for d in (2, 3):
            for D in range(1, 7):
                w = radial_spectrum(d, D).eigenvalues
                assert np.abs(w + w[::-1]).max() <= 1e-12

    def test_examples(self):
        assert radial_spectrum(2, 1).eigenvalues == pytest.approx(
            [-math.sqrt(3), math.sqrt(3)])
        assert radial_spectrum(2, 2).eigenvalues == pytest.approx(
            [-math.sqrt(5), 0.0, math.sqrt(5)], abs=1e-12)
        assert radial_spectrum(4, 0).eigenvalues == pytest.approx([0.0])

    def test_subset_of_dense_tree_spectrum(self):
        # quotient eigenvalues are genuine tree eigenvalues
        for d, D in [(2, 4), (3, 3), (4, 3), (5, 3)]:
            t = build_dary_tree(d, D)
            assert t.graph.n <= 400
            full = np.linalg.eigvalsh(t.graph.csr().toarray())
            for lam in radial_spectrum(d, D).eigenvalues:
                assert np.abs(full - lam).min() <= 1e-9


class TestLiftRadial:
    def test_depth_zero_indicator(self):
        t = build_dary_tree(2, 0)
        assert lift_radial(t, [1.0]).tolist() == [1.0]

    @pytest.mark.parametrize("d,D", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_lifted_eigenvector_residual(self, d, D):
        t = build_dary_tree(d, D)
        rs = radial_spectrum(d, D)
        a = t.graph.csr()
        for lam, prof in zip(rs.eigenvalues, rs.profiles):
            v = lift_radial(t, prof)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.abs(a @ v - lam * v).max() <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lift_radial(build_dary_tree(2, 2), [1.0, 2.0])


class TestNearestRadial:
    def test_zero_found_at_depth_two(self):
        res = nearest_radial_eigenvalue(2, 0.0, 1e-9)
        assert res.found and res.depth == 2 and res.eigenvalue == pytest.approx(0.0)

    def test_sqrt3_found_at_depth_one(self):
        res = nearest_radial_eigenvalue(2, math.sqrt(3), 1e-9)
        assert res.found and res.depth == 1

    def test_near_edge_reported_honestly(self):
        res = nearest_radial_eigenvalue(2, 2.82, 1e-3, max_depth=30)
        if not res.found:
            assert res.gap > 1e-3
        # the running best gap over depths never worsens
        best = math.inf
        gaps = []
        for depth in range(1, 31):
            w = radial_spectrum(2, depth).eigenvalues
            best = min(best, float(np.abs(w - 2.82).min()))
            gaps.append(best)
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            nearest_radial_eigenvalue(2, 3.0, 1e-9)


class TestLevelMass:
    def test_root_indicator(self):
        t = build_dary_tree(2, 3)
        v = np.zeros(t.graph.n)
        v[t.root] = 1.0
        assert level_mass_profile(v, t).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_zero_eigenvalue_vanishes_on_level_one(self):
        t = build_dary_tree(2, 2)
        rs = radial_spectrum(2, 2)
        k = int(np.argmin(np.abs(rs.eigenvalues)))
        masses = level_mass_profile(lift_radial(t, rs.profiles[k]), t)
        assert masses[1] <= 1e-24
        assert masses.sum() == pytest.approx(1.0)

    def test_adjacent_ratios_within_calibrated_window(self):
        # window [sin^2(theta)/16, 16/sin^2(theta)] with lam = 2 sqrt(d) cos(theta)
        for d in (2, 3, 4):
            for D in (1, 2, 3, 5):
                t = build_dary_tree(d, D)
                rs = radial_spectrum(d, D)
                for lam, prof in zip(rs.eigenvalues, rs.profiles):
                    theta = math.acos(lam / (2 * math.sqrt(d)))
                    s2 = math.sin(theta) ** 2
                    ratios = adjacent_level_mass_ratios(lift_radial(t, prof), t)
                    assert np.all(ratios >= s2 / 16 - 1e-15)
                    assert np.all(ratios <= 16 / s2 + 1e-15)
