import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh

from scargraph import spectral
from scargraph.base import lps_graph
from scargraph.certificate import (Certificate, build_certificate,
                                   verify_certificate)
from scargraph.graphs import build_graph, is_connected, is_regular
from scargraph.named import (complete_graph, cycle_graph, petersen_graph,
                             random_regular_graph)
from scargraph.qe import scarring_witness
from scargraph.scars import interface_quadratic_bound, multi_glue
from scargraph.spectral import (DENSE_CUTOFF, LANCZOS_SEED, LANCZOS_TOL,
                                EigensolverError, _extreme_dense,
                                _extreme_iterative, extreme_eigenvalues,
                                kahale_check, kahale_instance,
                                kahale_sequence, norm2, residual,
                                second_eigenvector, spectral_threshold,
                                tree_quadratic_bound_check)
from scargraph.trees import build_dary_tree

from conftest import timeless


class TestExtremeEigenvalues:
    def test_cycle_spectrum(self):
        s = extreme_eigenvalues(cycle_graph(6))
        assert s.lambda_top == pytest.approx(2.0, abs=1e-9)
        assert s.lambda2_abs == pytest.approx(2.0, abs=1e-9)  # bipartite

    def test_petersen(self):
        s = extreme_eigenvalues(petersen_graph())
        assert s.lambda_top == pytest.approx(3.0)
        assert s.lambda2_abs == pytest.approx(2.0)

    def test_complete_graph(self):
        s = extreme_eigenvalues(complete_graph(4))
        assert s.lambda_top == pytest.approx(3.0)
        assert s.lambda2_abs == pytest.approx(1.0)

    def test_dense_and_iterative_agree(self):
        g = random_regular_graph(1200, 4, seed=21)
        dense = _extreme_dense(g, 2)
        it = _extreme_iterative(g, 2)
        assert abs(dense.lambda2_abs - it.lambda2_abs) <= 1e-8
        assert abs(dense.lambda_top - it.lambda_top) <= 1e-8
        assert it.residual_bound <= 1e-8
        assert it.iterations > 0

    def test_deflation_never_reports_trivial(self):
        for seed in (0, 1, 2):
            g = random_regular_graph(600, 3, seed=seed)
            it = _extreme_iterative(g, 1)
            assert it.lambda2_abs < 3.0 - 0.05

    def test_disconnected_rejected(self):
        from scargraph.graphs import build_graph
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            extreme_eigenvalues(g)


@pytest.fixture(scope="module")
def lps13():
    return lps_graph(13, 17)


@pytest.fixture(scope="module")
def lps13_sg(lps13):
    return multi_glue(lps13, 1, 1, seed=1)


@pytest.fixture(scope="module")
def lps13_sg_dense(lps13_sg):
    return _extreme_dense(lps13_sg.graph, 2)


@pytest.fixture(scope="module", params=["cubic", "quartic", "lps13",
                                        "lps13-glued"])
def above_cutoff(request):
    """A graph above DENSE_CUTOFF (at most 4096 vertices) and its dense
    oracle summary."""
    if request.param == "lps13-glued":
        return (request.getfixturevalue("lps13_sg").graph,
                request.getfixturevalue("lps13_sg_dense"))
    g = {"cubic": lambda: random_regular_graph(DENSE_CUTOFF + 2, 3, seed=1),
         "quartic": lambda: random_regular_graph(DENSE_CUTOFF + 2, 4, seed=2),
         "lps13": lambda: request.getfixturevalue("lps13")}[request.param]()
    return g, _extreme_dense(g, 2)


class TestAboveDenseCutoff:
    def test_lanczos_matches_dense_oracle(self, above_cutoff):
        g, dense = above_cutoff
        assert DENSE_CUTOFF < g.n <= 4096
        s = extreme_eigenvalues(g)
        assert s.method == "iterative"
        assert abs(s.lambda2_abs - dense.lambda2_abs) <= 1e-8

    def test_second_eigenvector(self, above_cutoff):
        # a second run of the recurrence that gave lambda2 sums its vector
        g, dense = above_cutoff
        lam, vec = second_eigenvector(g)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert residual(g, vec, lam)[1] <= 1e-8
        assert abs(abs(lam) - dense.lambda2_abs) <= 1e-8
        s = extreme_eigenvalues(g, how_many=0)
        assert abs(abs(lam) - s.lambda2_abs) <= 1e-8

    def test_dense_certificate_still_verifies(self, lps13_sg, lps13_sg_dense,
                                              tmp_path):
        # a certificate built when this graph took the dense path
        cert = build_certificate(lps13_sg)
        assert cert.spectral_method == "iterative" and cert.all_ok
        data = cert.to_dict()
        data.update(spectral_method="dense",
                    lambda_max_nontrivial=lps13_sg_dense.lambda2_abs)
        path = tmp_path / "dense.json"
        Certificate.from_dict(data).save(path)
        report = verify_certificate(lps13_sg.graph, Certificate.load(path))
        assert report.passed, report.summary()


class TestSingleDeflatedSolve:
    """how_many=0 on a connected regular graph runs only the deflated
    Lanczos, once: same lambda2, exact trivial pair, fewer matvecs, and no
    lambda2 pair, as no Ritz vector is summed."""

    def test_same_lambda2_and_exact_top(self, above_cutoff):
        g, _ = above_cutoff
        deg = is_regular(g)
        full = extreme_eigenvalues(g, how_many=2)
        one = extreme_eigenvalues(g, how_many=0)
        assert one.method == full.method == "iterative"
        assert one.lambda2_abs == full.lambda2_abs
        assert one.lambda_top == deg
        assert one.pairs == [(deg, 0.0)]
        assert 0 < one.residual_bound <= 1e-8
        assert 0 < one.iterations < full.iterations

    def test_non_regular_matches_dense_oracle(self):
        g = random_regular_graph(DENSE_CUTOFF + 2, 3, seed=1)
        g = build_graph(g.n, g.edges().tolist()[1:])
        assert is_connected(g) and is_regular(g) is None
        dense = _extreme_dense(g, 2)
        s = extreme_eigenvalues(g, how_many=0)
        assert s.method == "iterative"
        assert abs(s.lambda2_abs - dense.lambda2_abs) <= 1e-8
        assert abs(s.lambda_top - dense.lambda_top) <= 1e-8

    def test_dense_path_lists_top_and_lambda2_pairs(self, petersen):
        s = extreme_eigenvalues(petersen, how_many=0)
        assert s.method == "dense" and len(s.pairs) == 2
        assert s.pairs[0][0] == pytest.approx(3.0)
        assert s.pairs[1][0] == pytest.approx(-2.0)
        assert s.lambda2_abs == pytest.approx(2.0)
        assert s.residual_bound <= 1e-12

    def test_one_pair_per_end(self, above_cutoff):
        g, _ = above_cutoff
        one = extreme_eigenvalues(g, how_many=0)
        s = extreme_eigenvalues(g, how_many=1)
        assert len(s.pairs) == 2
        assert s.lambda2_abs == one.lambda2_abs
        assert s.lambda_top == pytest.approx(is_regular(g), abs=1e-8)
        assert s.residual_bound <= 1e-8

    def test_lambda2_vector_is_the_listed_lambda2_pair(self, above_cutoff,
                                                       petersen):
        # the dense path lists lambda2's pair; above DENSE_CUTOFF the
        # summary lists only the trivial pair and lambda2 is the Ritz value
        for g in (above_cutoff[0], petersen):
            s = extreme_eigenvalues(g, how_many=0)
            lam, vec = second_eigenvector(g)
            assert abs(lam) == pytest.approx(s.lambda2_abs, abs=1e-8)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            res = residual(g, vec, lam)[1]
            assert res <= 1e-8
            if s.method == "dense":
                assert s.pairs[-1] == (lam, res)
            else:
                assert s.pairs == [(s.lambda_top, 0.0)]
            lam2, vec2 = second_eigenvector(g)
            assert lam2 == lam and np.array_equal(vec2, vec)

    def test_non_regular_has_no_second_eigenvector(self):
        g = random_regular_graph(DENSE_CUTOFF + 2, 3, seed=1)
        g = build_graph(g.n, g.edges().tolist()[1:])
        with pytest.raises(ValueError, match="regular"):
            second_eigenvector(g)

    def test_disconnected_has_no_second_eigenvector(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            second_eigenvector(g)

    @pytest.mark.parametrize("how_many,which", [(0, "LM"), (2, "LA")])
    def test_no_convergence_raises_eigensolver_error(self, monkeypatch,
                                                     how_many, which):
        # LM: the three-term recurrence for lambda2, whose end estimates
        # beta_k |s_k| are made to stay beta_k; LA: ARPACK's end solve
        def stalled_ends(d, e, select, select_range):
            return np.array([1.5]), np.ones((len(d), 1))

        def stalled_eigsh(op, k, which, **kw):
            raise spla.ArpackNoConvergence("stalled", np.array([1.5]),
                                           np.zeros((op.shape[0], 1)))

        if which == "LM":
            monkeypatch.setattr(spectral, "eigh_tridiagonal", stalled_ends)
        else:
            monkeypatch.setattr(spla, "eigsh", stalled_eigsh)
        g = random_regular_graph(DENSE_CUTOFF + 2, 3, seed=1)
        with pytest.raises(EigensolverError,
                           match=f"Lanczos \\({which}\\)"):
            extreme_eigenvalues(g, how_many=how_many)
        if which == "LM":
            with pytest.raises(EigensolverError, match="Lanczos \\(LM\\)"):
                second_eigenvector(g)

    def test_certificate_digest_unchanged(self, lps13_sg):
        # recorded before the two end solves were dropped from the
        # pipeline's spectral check (numpy 2.4, scipy 1.17); re-recorded
        # when the checks map became the verifier's items, and when lambda2
        # came from the three-term recurrence, which moved its last bits
        # only (7.310324561652465 -> 7.310324561652459)
        cert = timeless(build_certificate(lps13_sg))
        digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
        assert digest == ("908f9cd91056e53eff500a79e910a336"
                          "313a5abe84e15fc8b9c7b1483e8bfdd8")

    @pytest.mark.parametrize("fixture,digest", [
        ("lps13_sg", "8413731dca7c8e7bff231faddec6c7e6"
                     "8989273d6cb7b9b08caa73d95a748916"),
        ("lps_sg_r2", "fa3f01d335156d804ab08918d34fa298"
                      "581c0399437f2d1e43cef88a99e0ca62"),
    ], ids=["lps13_sg", "lps_sg_r2"])
    def test_certificate_digest_without_checks(self, request, fixture,
                                               digest):
        # every byte but the checks map, recorded while the builder still
        # judged its own checks: taking them from the verifier's judge
        # must not move a measured or derived field; re-recorded when
        # lambda2 came from the three-term recurrence
        cert = timeless(build_certificate(request.getfixturevalue(fixture)))
        data = cert.to_dict()
        del data["checks"]
        text = json.dumps(data, sort_keys=True, indent=1, allow_nan=False)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_certificate_digest_above_blas_threading(self, lps_sg_r2):
        # n = 12194 is above the 10000-element length from which OpenBLAS
        # splits ddot across threads; recorded with numpy's norm and dot
        # (numpy 2.4, scipy 1.17), so the scipy.linalg.blas path must not
        # move a bit of it; re-recorded with the verifier's items as checks,
        # and when lambda2 came from the three-term recurrence, whose dots
        # run in fixed blocks below that length, so the digest is the same
        # at 1, 2 and 4 threads (4.567338359802398 -> 4.5673383598024015)
        assert lps_sg_r2.graph.n == 12194
        cert = timeless(build_certificate(lps_sg_r2))
        digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
        assert digest == ("edb0087ba7462d71f2f5874b4609bc5f"
                          "568cd7bb050bdd33939d4d40f3ac5ded")


def deflated_eigsh_lambda2(g):
    """|Ritz value| of the deflated LM eigsh solve that gave lambda2 before
    the three-term recurrence: same operator, start vector and tolerance."""
    a = g.csr()

    def deflated(x):
        y = a @ (x - x.mean())
        return y - y.mean()

    op = spla.LinearOperator((g.n, g.n), matvec=deflated, dtype=float)
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(g.n)
    w = spla.eigsh(op, k=1, which="LM", v0=v0, tol=LANCZOS_TOL,
                   maxiter=int(50 * math.sqrt(g.n)) + 100,
                   return_eigenvectors=False)
    return abs(float(w[0]))


def complete_bipartite(half):
    return build_graph(2 * half, [(i, half + j) for i in range(half)
                                  for j in range(half)])


@pytest.fixture(scope="module", params=["lps13-glued", "cubic4096",
                                        "cycle400", "k170"])
def recurrence_graph(request):
    """A regular graph above DENSE_CUTOFF and at most 4096 vertices."""
    return {"lps13-glued": lambda: request.getfixturevalue("lps13_sg").graph,
            "cubic4096": lambda: random_regular_graph(4096, 3),
            "cycle400": lambda: cycle_graph(400),
            "k170": lambda: complete_bipartite(170)}[request.param]()


class TestThreeTermRecurrence:
    """lambda2 of a regular graph above DENSE_CUTOFF comes from the plain
    three-term Lanczos recurrence on the deflated operator."""

    def test_matches_deflated_eigsh(self, recurrence_graph):
        s = extreme_eigenvalues(recurrence_graph, 0)
        assert s.method == "iterative"
        assert abs(s.lambda2_abs
                   - deflated_eigsh_lambda2(recurrence_graph)) <= 1e-12

    def test_glued_lps29_matches_deflated_eigsh(self, lps_sg_r2):
        # 12194 vertices: too many for a dense oracle here
        g = lps_sg_r2.graph
        s = extreme_eigenvalues(g, 0)
        assert abs(s.lambda2_abs - deflated_eigsh_lambda2(g)) <= 1e-12
        assert s.residual_bound <= 1e-8

    def test_matches_dense_eigh(self, recurrence_graph):
        g = recurrence_graph
        w = eigvalsh(g.csr().toarray())
        s = extreme_eigenvalues(g, 0)
        assert abs(s.lambda2_abs - max(-w[0], w[-2])) <= 1e-8
        lam, vec = second_eigenvector(g)
        assert abs(abs(lam) - s.lambda2_abs) <= 1e-8
        assert residual(g, vec, lam)[1] <= 1e-8

    @pytest.mark.parametrize("g,end", [(cycle_graph(400), -2.0),
                                       (complete_bipartite(170), -170.0)],
                             ids=["cycle400", "k170"])
    def test_bipartite_lambda2_is_the_bottom_end(self, g, end):
        # the deflated top end of K_{170,170} is 0: a tolerance relative
        # to each end alone would never be met there
        s = extreme_eigenvalues(g, 0)
        assert second_eigenvector(g)[0] == pytest.approx(end, abs=1e-8)
        assert s.lambda2_abs == pytest.approx(-end, abs=1e-12)

    def test_keeps_no_basis(self):
        # ARPACK's deflated solve peaked at 46 vectors of n (its n x 20
        # basis and workspace); the recurrence holds a handful
        g = random_regular_graph(16384, 3, seed=1)
        g.csr()
        tracemalloc.start()
        try:
            s = extreme_eigenvalues(g, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.residual_bound <= 1e-8
        assert peak <= 12 * 8 * g.n, peak / (8 * g.n)

    def test_lambda2_bits_do_not_depend_on_blas_threads(self):
        # both graphs are above the 10000 entries from which OpenBLAS
        # splits a ddot across threads.  Under ARPACK glued LPS(5,41) read
        # 4.556129555411968 at 2 threads and 4.55612955541197 at 1; the
        # recurrence with threaded ddots moved glued LPS(5,29) r=2 instead
        code = ("from scargraph.base import lps_graph\n"
                "from scargraph.scars import multi_glue\n"
                "from scargraph.spectral import extreme_eigenvalues\n"
                "for p, k, r, seed in ((41, 2, 2, 5), (29, 1, 2, 3)):\n"
                "    g = multi_glue(lps_graph(5, p), k, r, seed=seed).graph\n"
                "    print(repr(extreme_eigenvalues(g, 0).lambda2_abs))")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                           "src"))
        got = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
            env=dict(os.environ, PYTHONPATH=src,
                     OPENBLAS_NUM_THREADS=str(threads))).stdout
            for threads in (1, 2)]
        assert got == ["4.556129555411968\n4.5673383598024015\n"] * 2

    def test_iterations_count_one_run(self, recurrence_graph):
        # lambda2 is the first run's Ritz value: no second run sums a
        # vector, so the matvecs are that run's steps, one each
        g = recurrence_graph
        v0, maxiter = spectral._lanczos_start(g.n)
        theta, s, estimate = spectral._deflated_end(
            spectral._deflated_run(g.csr().dot, v0), maxiter)
        summary = extreme_eigenvalues(g, 0)
        assert summary.iterations == len(s) > 0
        assert summary.lambda2_abs == abs(theta)
        assert summary.residual_bound == estimate

    def test_residual_bound_covers_the_lanczos_estimate(self, lps13_sg):
        # the ends' listed residuals and lambda2's beta_k |s_k|: the
        # bound is the larger
        g = lps13_sg.graph
        v0, maxiter = spectral._lanczos_start(g.n)
        _, _, estimate = spectral._deflated_end(
            spectral._deflated_run(g.csr().dot, v0), maxiter)
        s = extreme_eigenvalues(g, 2)
        assert s.residual_bound == max([estimate]
                                       + [r for _, r in s.pairs])


class TestResidual:
    def test_exact_eigenvectors(self):
        g = cycle_graph(4)
        assert residual(g, np.ones(4), 2.0) == (0.0, 0.0)
        assert residual(g, np.array([1.0, 0, -1, 0]), 0.0) == (0.0, 0.0)

    def test_basis_vector(self):
        g = cycle_graph(4)
        rinf, r2 = residual(g, np.array([1.0, 0, 0, 0]), 0.0)
        assert r2 == pytest.approx(math.sqrt(2))
        assert rinf == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            residual(cycle_graph(4), np.zeros(4), 0.0)


class TestScipyBlasNorm:
    @pytest.mark.parametrize("n", [9999, 10001, 12194, 34468])
    def test_bitwise_numpy_norm(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        assert norm2(x) == np.linalg.norm(x)
        assert norm2(x[::2]) == np.linalg.norm(x[::2])

    def test_empty_vector(self):
        assert norm2(np.zeros(0)) == 0.0

    def test_zero_residual_vector_rejected(self, lps_h):
        with pytest.raises(ValueError, match="vector must be nonzero"):
            residual(lps_h, np.zeros(lps_h.n), 0.0)

    def test_non_unit_witness_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            scarring_witness(np.full(12180, 0.5), [0], 12180)

    def test_pipeline_uses_no_numpy_norm(self, lps_sg_r2, monkeypatch):
        # a numpy-pool norm on the spectral and certificate path would
        # wait on threads that ARPACK's pool keeps the cores busy with
        def banned(*args, **kwargs):
            raise AssertionError("numpy.linalg.norm on the spectral path")

        monkeypatch.setattr(np.linalg, "norm", banned)
        g = lps_sg_r2.graph
        assert np.isfinite(second_eigenvector(g)[1]).all()
        cert = build_certificate(lps_sg_r2)
        assert verify_certificate(g, cert).passed


class TestThresholds:
    def test_d2_values(self):
        thm, prop = spectral_threshold(2)
        assert prop == pytest.approx(5 / math.sqrt(3))   # b sqrt(d)
        b = prop / math.sqrt(2)
        assert b == pytest.approx(5 / math.sqrt(6))
        assert round(b, 5) == 2.04124
        assert thm == pytest.approx(3.0)

    def test_d5_values(self):
        thm, prop = spectral_threshold(5)
        assert prop == pytest.approx(14 / 3)
        assert thm == pytest.approx(3 / math.sqrt(2) * math.sqrt(5))

    def test_ordering_up_to_d50(self):
        for d in range(2, 51):
            thm, prop = spectral_threshold(d)
            b = prop / math.sqrt(d)
            assert b < 3 / math.sqrt(2) < 3.0
            assert prop < thm < 3 * math.sqrt(d)


class TestTreeQuadraticBound:
    def test_zero_vector(self):
        t = build_dary_tree(2, 1)
        qb = tree_quadratic_bound_check(t, np.zeros(t.graph.n))
        assert qb.lhs == 0 and qb.rhs == 0 and qb.ok

    def test_root_indicator(self):
        t = build_dary_tree(2, 1)
        f = np.zeros(t.graph.n)
        f[t.root] = 1.0
        qb = tree_quadratic_bound_check(t, f)
        assert qb.lhs == 0.0
        assert qb.rhs == pytest.approx(2 * math.sqrt(2))
        assert qb.ok

    def test_random_vectors(self):
        # the bound is a theorem; one failure would be a build-breaking bug
        rng = np.random.default_rng(0)
        trees = [build_dary_tree(d, depth)
                 for d in (2, 3, 4) for depth in (1, 2, 3, 4, 5)]
        for t in trees:
            for _ in range(10_000 // len(trees) + 1):
                f = rng.standard_normal(t.graph.n)
                assert tree_quadratic_bound_check(t, f).ok


class TestKahaleChecker:
    def test_tree_ball_equality(self):
        # s_i = d^(-i/2) is harmonic for 2 sqrt(d) away from the root
        d = 3
        t = build_dary_tree(d, 4)
        s_layers = [d ** (-i / 2) for i in range(5)]
        inst = kahale_instance(t.graph, [t.root], 4, s_layers, 2 * math.sqrt(d))
        v = kahale_check(t.graph, inst)
        assert v.condition1 and v.condition2 and v.condition3
        assert abs(v.condition3_margin) <= 1e-12  # equality off the root

    def test_nonconstant_s_reported(self):
        d = 2
        t = build_dary_tree(d, 3)
        s_layers = [d ** (-i / 2) for i in range(4)]
        inst = kahale_instance(t.graph, [t.root], 3, s_layers, 2 * math.sqrt(d))
        inst.s[int(t.levels[3][0])] *= 2.0  # break constancy on layer h
        v = kahale_check(t.graph, inst)
        assert not v.condition2

    def test_constructed_instance_around_new_root(self, lps_sg):
        site = lps_sg.sites[0]
        vprime = int(site.t3_levels[0][0])
        d = lps_sg.d
        s_layers = [d ** (-i / 2) for i in range(3)]
        inst = kahale_instance(lps_sg.graph, [vprime], 2, s_layers,
                               2 * math.sqrt(d))
        lam2, vec2 = second_eigenvector(lps_sg.graph)
        v = kahale_check(lps_sg.graph, inst, test_vec=vec2, test_mu=lam2)
        assert v.conditions_ok
        assert v.premise_ok
        assert v.conclusion


class TestKahaleSequence:
    def test_worked_example(self):
        seq = kahale_sequence(2, 0.1, 3, length=4)
        assert seq.c == pytest.approx(math.sqrt(1.5))
        assert seq.x[0] == pytest.approx(1 / seq.c)          # 0.81650
        assert round(float(seq.x[0]), 5) == 0.81650
        assert seq.x[1] == pytest.approx(seq.b + 0.1 - 1 / seq.x[0])
        assert round(float(seq.x[1]), 5) == 0.91650

    def test_c_plus_inverse_identity(self):
        for d in range(2, 51):
            seq = kahale_sequence(d, 0.1, 2)
            assert abs(seq.c + 1 / seq.c - seq.b) <= 1e-12

    def test_level_r_identity(self):
        for d in range(2, 21):
            seq = kahale_sequence(d, 0.05, 3)
            assert seq.checks["level_r_identity"] <= 1e-12

    def test_monotone_and_capped(self):
        eps = 0.1
        seq = kahale_sequence(2, eps, 2, length=15)
        x = seq.x
        assert (np.diff(x) >= -1e-15).all()
        for i in range(math.ceil(1 / eps), len(x)):
            assert x[i] == pytest.approx(seq.c, abs=1e-12)
        assert seq.checks["x_reaches_c"]

    def test_endpoint_fixed_points(self):
        # g(x) = b - 1/x fixes both ends of [1/c, c]
        for d in range(2, 51):
            seq = kahale_sequence(d, 0.1, 2)
            for x0 in (1 / seq.c, seq.c):
                assert abs((seq.b - 1 / x0) - x0) <= 1e-12

    def test_all_pointwise_checks(self):
        for d in (2, 3, 5, 11):
            seq = kahale_sequence(d, 0.1, 4, length=12)
            assert seq.checks["root_level"]
            assert seq.checks["interior_levels"]
            assert seq.checks["beyond_r"]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kahale_sequence(1, 0.1, 2)
        with pytest.raises(ValueError):
            kahale_sequence(2, 0.0, 2)
        with pytest.raises(ValueError):
            kahale_sequence(2, 0.1, 0)


class TestInterfaceQuadraticAudit:
    def test_bound_on_constructed_graphs(self, mcgee_sg, lps_sg):
        for sg in (mcgee_sg, lps_sg):
            rng = np.random.default_rng(1)
            n = sg.graph.n
            for _ in range(100):
                g = rng.standard_normal(n)
                g -= g.mean()
                g /= np.linalg.norm(g)
                lhs, rhs = interface_quadratic_bound(sg, g)
                assert lhs <= rhs + 1e-9


class TestKahaleInstanceSources:
    @pytest.mark.parametrize("make", [
        set, lambda X: (v for v in X), lambda X: np.array(X, dtype=np.int64),
    ], ids=["set", "generator", "int64-array"])
    def test_any_iterable_of_sources(self, lps_sg, make):
        # the layers and s depend on the set X only, not on its container
        X = [int(v) for v in lps_sg.sites[0].t3_levels[0]] + [5, 0]
        s_layers = [1.0, 0.5, 0.25]
        ref = kahale_instance(lps_sg.graph, sorted(X), 2, s_layers, 1.0)
        inst = kahale_instance(lps_sg.graph, make(X), 2, s_layers, 1.0)
        assert [lay.tolist() for lay in inst.layers] \
            == [lay.tolist() for lay in ref.layers]
        assert inst.s.tolist() == ref.s.tolist()
