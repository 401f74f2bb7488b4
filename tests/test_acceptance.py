"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here, not tuned elsewhere."""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import eigh

from scargraph.base import validate_base
from scargraph.certificate import Certificate, build_certificate, \
    verify_certificate
from scargraph.graphs import girth, is_regular
from scargraph.named import mcgee_graph
from scargraph.pairing import (pair_trees, path_count_cumulative,
                               path_count_exact, path_count_total)
from scargraph.qe import localization_bounds, min_support_for_mass, \
    scarring_witness
from scargraph.scars import greedy_packing, localized_eigenvector, multi_glue
from scargraph.spectral import (kahale_check, kahale_instance,
                                kahale_sequence, second_eigenvector,
                                spectral_threshold)
from scargraph.trees import build_dary_tree, lift_radial, radial_spectrum

from conftest import timeless
from test_pairing import alternating_path_counts


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def test_01_pairing_girth_bound():
    with criterion(1, "leaf pairing reaches floor(2 log_{2d-1}(n-1)) + 2 "
                      "girth on the full grid in under 30 s"):
        start = time.monotonic()
        for d, depth in itertools.product((2, 3, 4), range(1, 7)):
            n = (d + 1) * d ** (depth - 1)
            p = pair_trees(d, depth, seed=0)
            stated = math.floor(2 * math.log(n - 1) / math.log(2 * d - 1)) + 2
            assert p.achieved_girth >= stated, (d, depth)
            assert p.achieved_girth % 2 == 0
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"grid took {elapsed:.1f}s"


def test_02_path_count_formulas():
    with criterion(2, "alternating path enumeration matches the closed-form "
                      "counts exactly"):
        for d, depth in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3),
                         (3, 4), (4, 2), (4, 3)]:
            p = pair_trees(d, depth, seed=1)
            assert p.glued.n <= 500
            valid = [s for s in range(1, depth) if 2 * s < p.achieved_girth]
            if not valid:
                continue
            smax = max(valid)
            counts = alternating_path_counts(p, 0, 2 * smax)
            for s in range(1, smax + 1):
                for r in range(1, s + 1):
                    assert counts.get((2 * s, r), 0) == \
                        path_count_exact(d, r, s), (d, depth, r, s)
                assert sum(counts.get((2 * s, r), 0)
                           for r in range(1, s + 1)) == path_count_total(d, s)
            assert 1 + sum(path_count_total(d, s)
                           for s in range(1, smax + 1)) == \
                path_count_cumulative(d, smax)


def test_03_radial_spectra():
    with criterion(3, "radial spectra: D+1 eigenvalues strictly inside the "
                      "tree spectrum band, lifted residuals <= 1e-10"):
        for d in (2, 3, 4, 5):
            for depth in range(0, 9):
                rs = radial_spectrum(d, depth)
                assert len(rs.eigenvalues) == depth + 1
                assert np.abs(rs.eigenvalues).max() < 2 * math.sqrt(d) \
                    if depth else rs.eigenvalues[0] == 0.0
                tree = build_dary_tree(d, depth)
                a = tree.graph.csr()
                for lam, prof in zip(rs.eigenvalues, rs.profiles):
                    v = lift_radial(tree, prof)
                    assert np.abs(a @ v - lam * v).max() <= 1e-10
        # dense cross-check wherever the whole tree fits comfortably
        for d in (2, 3, 4, 5):
            for depth in range(1, 9):
                tree = build_dary_tree(d, depth)
                if tree.graph.n > 400:
                    break
                full = np.linalg.eigvalsh(tree.graph.csr().toarray())
                for lam in radial_spectrum(d, depth).eigenvalues:
                    assert np.abs(full - lam).min() <= 1e-9


def test_04_end_to_end_constructions(mcgee_sg, lps_h, lps_sg):
    with criterion(4, "end-to-end builds on the 24-vertex cage and the "
                      "12180-vertex Cayley base certify all claims"):
        start = time.monotonic()
        thm2, _ = spectral_threshold(2)
        thm5, _ = spectral_threshold(5)

        cert_m = build_certificate(mcgee_sg)
        assert is_regular(mcgee_sg.graph) == 3
        assert cert_m.girth >= cert_m.girth_required
        assert cert_m.girth >= cert_m.girth_bound
        assert len(cert_m.localized) == 1
        for rec in cert_m.localized:
            assert rec.residual_inf <= 1e-10 and rec.support_in_site
        # spectral radius reported for the cage base (not asserted vs thm)
        print(f"    cage instance lambda2 {cert_m.lambda_max_nontrivial:.6f}"
              f" vs threshold {thm2:.6f}")

        report = validate_base(lps_h, 5, 1)
        assert report.all_ok and report.ramanujan_ok
        cert_l = build_certificate(lps_sg)
        assert is_regular(lps_sg.graph) == 6
        assert cert_l.girth >= cert_l.girth_required
        assert len(cert_l.localized) == 1
        for rec in cert_l.localized:
            assert rec.residual_inf <= 1e-10 and rec.support_in_site
        # Ramanujan base: the spectral bound is asserted
        assert cert_l.lambda_max_nontrivial <= thm5
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"constructions took {elapsed:.1f}s"


def test_05_threshold_identities_and_test_function(lps_sg):
    with criterion(5, "interface test-function identities hold and the "
                      "sequence is super-harmonic on a real instance"):
        for d in range(2, 21):
            seq = kahale_sequence(d, 0.1, 3, length=8)
            assert abs(seq.c + 1 / seq.c - seq.b) <= 1e-12
            assert seq.checks["level_r_identity"] <= 1e-12
            assert seq.checks["x_nondecreasing"]
            assert seq.checks["x_reaches_c"]
        b2 = kahale_sequence(2, 0.1, 1).b
        assert round(b2, 5) == 2.04124

        # layers around the carved pair of roots on the big instance
        d, r = lps_sg.d, lps_sg.r
        site = lps_sg.sites[0]
        girth_h = 9
        h = (girth_h - 1) // 2          # largest depth inside the tree zone
        seq = kahale_sequence(d, 0.1, r, length=h - r)
        mu = (seq.b + 0.1) * math.sqrt(d)
        inst = kahale_instance(
            lps_sg.graph, [int(site.root), int(site.t2_levels[0][0])],
            h, seq.s[:h + 1], mu)
        verdict = kahale_check(lps_sg.graph, inst)
        assert verdict.condition2
        assert verdict.condition3, f"margin {verdict.condition3_margin}"


def test_06_kahale_checker_on_instances(mcgee_sg, lps_sg):
    with criterion(6, "layered growth conditions verified around the new "
                      "root; outward mass ratio holds for the second "
                      "eigenvector"):
        # clean layer structure requires base girth 9; h = 2 stays inside
        d = lps_sg.d
        site = lps_sg.sites[0]
        vprime = int(site.t3_levels[0][0])
        s_layers = [d ** (-i / 2) for i in range(3)]
        inst = kahale_instance(lps_sg.graph, [vprime], 2, s_layers,
                               2 * math.sqrt(d))
        verdict = kahale_check(lps_sg.graph, inst)
        assert verdict.conditions_ok

        lam2, vec2 = second_eigenvector(lps_sg.graph)
        assert abs(lam2) >= 2 * math.sqrt(d)  # the lemma applies with mu=lam2
        inst2 = kahale_instance(lps_sg.graph, [vprime], 2, s_layers, lam2)
        verdict2 = kahale_check(lps_sg.graph, inst2, test_vec=vec2,
                                test_mu=lam2)
        assert verdict2.condition3
        assert verdict2.premise_ok
        assert verdict2.conclusion

        # cage instance: conditions with mu = 2 sqrt(d); ratio reported
        dm = mcgee_sg.d
        sm = mcgee_sg.sites[0]
        inst_m = kahale_instance(mcgee_sg.graph, [int(sm.t3_levels[0][0])], 2,
                                 [dm ** (-i / 2) for i in range(3)],
                                 2 * math.sqrt(dm))
        lam2m, vec2m = second_eigenvector(mcgee_sg.graph)
        verdict_m = kahale_check(mcgee_sg.graph, inst_m, test_vec=vec2m,
                                 test_mu=lam2m)
        assert verdict_m.condition2 and verdict_m.condition3
        assert verdict_m.conclusion


def test_07_multiplicity_and_packing(lps_h, cubic6):
    with criterion(7, "k glued sites give k orthogonal localized "
                      "eigenvectors per radial eigenvalue; packing bound "
                      "holds"):
        spec = radial_spectrum(5, 0)
        for k in (2, 3, 4):
            sg = multi_glue(lps_h, k, 1, seed=11)
            for lam in spec.eigenvalues:
                nus = [localized_eigenvector(sg, i, float(lam))
                       for i in range(k)]
                supports = [set(np.nonzero(np.abs(nu) > 1e-12)[0].tolist())
                            for nu in nus]
                for i, j in itertools.combinations(range(k), 2):
                    assert not (supports[i] & supports[j])
                    assert float(nus[i] @ nus[j]) == 0.0
                for nu, lamv in [(nu, lam) for nu in nus]:
                    res = sg.graph.csr() @ nu - float(lamv) * nu
                    assert np.abs(res).max() <= 1e-10
        for g in (lps_h, cubic6, mcgee_graph()):
            d = is_regular(g) - 1
            for dist in (1, 2, 3):
                picks = greedy_packing(g, dist)
                assert len(picks) >= g.n * (d - 1) / ((d + 1) * d ** dist)


def test_08_localization_lower_bound(mcgee_sg, cubic6_sg2, mcgee_sg_eigh,
                                     cubic6_sg2_eigh):
    with criterion(8, "every eigenvector of every small constructed graph "
                      "meets the explicit support lower bound"):
        for sg, (w, vecs) in [(mcgee_sg, mcgee_sg_eigh),
                              (cubic6_sg2, cubic6_sg2_eigh)]:
            M = sg.graph.n
            assert M <= 4096
            gv = girth(sg.graph)
            d = sg.d
            for eps in (0.1, 0.3, 0.5, 0.9):
                bound = localization_bounds(d, gv, eps).gs_bound
                for i in range(M):
                    size, _ = min_support_for_mass(vecs[:, i], eps)
                    assert size >= bound, (i, eps)


def test_09_scarring_witness(mcgee_sg, lps_sg, lps_sg_r2, cubic6_sg2):
    with criterion(9, "scarring witness of every localized eigenvector "
                      "equals 1 - |S|/M to 1e-12"):
        for sg in (mcgee_sg, lps_sg, lps_sg_r2, cubic6_sg2):
            M = sg.graph.n
            spec = radial_spectrum(sg.d, sg.r - 1)
            for sid in range(len(sg.sites)):
                for lam in spec.eigenvalues:
                    nu = localized_eigenvector(sg, sid, float(lam))
                    S = np.nonzero(np.abs(nu) > 1e-12)[0]
                    wit = scarring_witness(nu, S, M)
                    assert abs(wit.value - (1 - len(S) / M)) <= 1e-12
                    assert wit.sup_norm_ok


def test_10_determinism_and_round_trip(mcgee, tmp_path):
    with criterion(10, "same seed gives byte-identical certificates; "
                       "verification passes fresh and catches tampering"):
        certs = []
        for _ in range(2):
            sg = multi_glue(mcgee, 1, 1, seed=7)
            certs.append(timeless(build_certificate(sg)))
        assert certs[0].to_json() == certs[1].to_json()
        sg = multi_glue(mcgee, 1, 1, seed=7)
        cert = build_certificate(sg)
        assert verify_certificate(sg.graph, cert).passed
        tampered = cert.to_dict()
        tampered["girth"] += 2
        assert not verify_certificate(
            sg.graph, Certificate.from_dict(tampered)).passed
