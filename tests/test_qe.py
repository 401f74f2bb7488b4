import math

import numpy as np
import pytest
from scipy.linalg import eigh

from scargraph.named import cycle_graph
from scargraph.qe import (localization_bounds, min_support_for_mass,
                          partial_localization, qe_average, scarring_witness)
from scargraph.scars import localized_eigenvector


class TestScarringWitness:
    def test_fully_supported(self):
        psi = np.zeros(26)
        psi[3] = psi[17] = 1 / math.sqrt(2)
        w = scarring_witness(psi, [3, 17], 26)
        assert w.value == pytest.approx(1 - 2 / 26)
        assert w.value == pytest.approx(12 / 13)
        assert w.mass == pytest.approx(1.0)
        assert w.sup_norm_ok

    def test_uniform_vector(self):
        M = 20
        psi = np.full(M, 1 / math.sqrt(M))
        w = scarring_witness(psi, [0, 1, 2], M)
        assert w.value == pytest.approx(0.0, abs=1e-15)

    def test_constructed_localized(self, mcgee_sg):
        nu = localized_eigenvector(mcgee_sg, 0, 0.0)
        S = np.nonzero(np.abs(nu) > 1e-12)[0]
        w = scarring_witness(nu, S, 26)
        assert w.value == pytest.approx(1 - len(S) / 26, abs=1e-15)

    def test_site_interior_as_support_set(self, lps_sg_r2):
        # S may be the whole carved-plus-replacement interior: the vector
        # carries all its mass there even where its entries vanish
        from scargraph.trees import radial_spectrum
        site = lps_sg_r2.sites[0]
        M = lps_sg_r2.graph.n
        S = np.concatenate([site.v1, site.v2])
        for lam in radial_spectrum(5, 1).eigenvalues:
            nu = localized_eigenvector(lps_sg_r2, 0, float(lam))
            w = scarring_witness(nu, S, M)
            assert abs(w.value - (1 - len(S) / M)) <= 1e-12
            assert w.mass == pytest.approx(1.0, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            scarring_witness(np.ones(4), [0], 4)


class TestQeAverage:
    def test_zero_test_function(self):
        w, vecs = eigh(cycle_graph(4).csr().toarray())
        assert qe_average(vecs, np.zeros(4)) == 0.0

    def test_c4_against_direct_summation(self):
        w, vecs = eigh(cycle_graph(4).csr().toarray())
        a = np.array([1.0, -1.0, 1.0, -1.0])
        direct = sum(float(vecs[:, i] @ (a * vecs[:, i])) ** 2
                     for i in range(4)) / 4
        assert qe_average(vecs, a) == pytest.approx(direct, abs=1e-15)

    def test_mean_zero_required(self):
        w, vecs = eigh(cycle_graph(4).csr().toarray())
        with pytest.raises(ValueError, match="zero mean"):
            qe_average(vecs, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_orthonormality_checked_on_every_column(self):
        # one bad column among more than the 64 a sample would look at
        basis = np.eye(1100)
        basis[:, 1000] *= 1.5
        a = np.zeros(1100)
        with pytest.raises(ValueError, match="not orthonormal"):
            qe_average(basis, a)
        assert qe_average(np.eye(1100), a) == 0.0

    def test_sup_norm_required(self):
        w, vecs = eigh(cycle_graph(4).csr().toarray())
        with pytest.raises(ValueError, match="sup norm"):
            qe_average(vecs, np.array([2.0, -2.0, 0.0, 0.0]))

    def test_localized_vector_lower_bound(self, cubic6_sg2, cubic6_sg2_eigh):
        # the scarred eigenvector alone contributes (1 - |S|/M)^2 / M
        w, vecs = cubic6_sg2_eigh
        M = cubic6_sg2.graph.n
        nu = localized_eigenvector(cubic6_sg2, 0, 0.0)
        S = np.nonzero(np.abs(nu) > 1e-12)[0]
        a = -np.full(M, len(S) / M)
        a[S] += 1.0
        # swap nu into the lambda=0 eigenspace of the basis
        basis, _ = _basis_containing(w, vecs, [nu], 0.0)
        avg = qe_average(basis, a)
        assert avg >= (1 - len(S) / M) ** 2 / M - 1e-12

    def test_invariant_under_scarred_eigenspace_rotation(self, cubic6_sg2,
                                                         cubic6_sg2_eigh):
        w, vecs = cubic6_sg2_eigh
        M = cubic6_sg2.graph.n
        nus = [localized_eigenvector(cubic6_sg2, i, 0.0) for i in range(2)]
        S = np.nonzero(sum(np.abs(nu) for nu in nus) > 1e-12)[0]
        a = -np.full(M, len(S) / M)
        a[S] += 1.0
        basis, idx = _basis_containing(w, vecs, nus, 0.0)
        before = qe_average(basis, a)
        i, j = int(idx[0]), int(idx[1])
        theta = 0.7
        rot = basis.copy()
        rot[:, i] = math.cos(theta) * basis[:, i] + math.sin(theta) * basis[:, j]
        rot[:, j] = -math.sin(theta) * basis[:, i] + math.cos(theta) * basis[:, j]
        after = qe_average(rot, a)
        assert abs(before - after) <= 1e-9


def _basis_containing(w, vecs, special, lam):
    """Orthonormal eigenbasis whose columns for the eigenvalue-lam
    eigenspace start with the given exact eigenvectors."""
    idx = np.nonzero(np.abs(w - lam) < 1e-10)[0]
    k = len(idx)
    block = vecs[:, idx]
    special = np.column_stack(special)
    assert np.allclose(block @ (block.T @ special), special, atol=1e-7)
    proj = block - special @ (special.T @ block)
    u = np.linalg.svd(proj, full_matrices=False)[0]
    filled = np.column_stack([special, u[:, :k - special.shape[1]]])
    out = vecs.copy()
    out[:, idx] = filled
    return out, idx


class TestMinSupport:
    def test_point_mass(self):
        size, members = min_support_for_mass(np.array([1.0, 0, 0]), 0.5)
        assert size == 1 and members.tolist() == [0]

    def test_uniform(self):
        M = 10
        v = np.full(M, 1 / math.sqrt(M))
        size, _ = min_support_for_mass(v, 0.5)
        assert size == math.ceil(M / 2)

    def test_quarter_masses(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        size, _ = min_support_for_mass(v, 0.3)
        assert size == 2

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(50)
        v /= np.linalg.norm(v)
        sizes = [min_support_for_mass(v, e)[0]
                 for e in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        assert sizes == sorted(sizes)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            min_support_for_mass(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            min_support_for_mass(np.ones(3), 1.5)


class TestLocalizationBounds:
    def test_worked_example(self):
        lb = localization_bounds(2, 8, 0.5)
        assert lb.gs_bound == pytest.approx(0.5 * 2 / 8) == pytest.approx(1 / 8)

    def test_zero_girth(self):
        for d in (2, 5):
            lb = localization_bounds(d, 0, 0.3)
            assert lb.gs_bound == pytest.approx(0.3 / (2 * d * d))

    def test_exponent_shape(self):
        lb = localization_bounds(2, 64, 0.5)
        assert lb.bl_exponent == pytest.approx(2 ** (-7) * 0.25 * 64)
        assert lb.bl_term == pytest.approx(0.25 * 2 ** lb.bl_exponent)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            localization_bounds(2, 8, 1.0)


class TestPartialLocalization:
    def test_full_eps_gives_half_mass(self, lps_sg_r2):
        from scargraph.trees import radial_spectrum
        lam = float(radial_spectrum(5, 1).eigenvalues[1])
        nu = localized_eigenvector(lps_sg_r2, 0, lam)
        pl = partial_localization(nu, lps_sg_r2.sites[0], 1.0)
        assert pl.levels_used == 2
        assert pl.mass == pytest.approx(0.5)  # the mirror carries the rest

    def test_degenerate_eps(self, mcgee_sg):
        nu = localized_eigenvector(mcgee_sg, 0, 0.0)
        pl = partial_localization(nu, mcgee_sg.sites[0], 0.4)  # floor(0.4) = 0
        assert pl.levels_used == 0 and pl.mass == 0.0

    def test_half_eps_keeps_root_mass(self, lps_sg_r2):
        from scargraph.trees import radial_spectrum
        lam = float(radial_spectrum(5, 1).eigenvalues[1])
        nu = localized_eigenvector(lps_sg_r2, 0, lam)
        site = lps_sg_r2.sites[0]
        pl = partial_localization(nu, site, 0.5)
        assert pl.levels_used == 1
        assert pl.mass == pytest.approx(float(nu[site.root] ** 2))
