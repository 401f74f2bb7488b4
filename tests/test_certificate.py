import dataclasses
import json
import math

import numpy as np
import pytest

import scargraph.certificate
import scargraph.spectral
from scargraph.base import lps_graph
from scargraph.certificate import (RESIDUAL_TOL, SPECTRAL_TOL, Certificate,
                                   build_certificate, girth_bound,
                                   girth_required, verify_certificate)
from scargraph.graphs import _hop_distances, build_graph, girth, is_connected
from scargraph.named import petersen_graph
from scargraph.scars import multi_glue

from conftest import adjacency_lists, timeless


class TestBounds:
    def test_girth_bound_examples(self):
        # d=2, r=2: floor(2 log_3 6) = 3; the swap-loop form gives 4
        assert girth_bound(2, 2) == 3
        assert girth_required(2, 2) == 4
        assert girth_bound(2, 1) == 2      # floor(2 log_3 3)
        assert girth_required(2, 1) == 2
        assert girth_bound(5, 1) == 1      # floor(2 log_9 6)
        assert girth_required(5, 1) == 2


class TestBuildCertificate:
    def test_mcgee_certificate(self, mcgee_sg):
        cert = build_certificate(mcgee_sg)
        assert cert.M == 26 and cert.m == 24 and cert.k == 1
        assert cert.girth == 4
        assert cert.all_ok
        assert len(cert.localized) == cert.k * cert.r == 1
        rec = cert.localized[0]
        assert rec.eigenvalue == 0.0
        assert len(rec.support) == 2
        assert rec.residual_inf <= 1e-10
        assert rec.witness_value == pytest.approx(1 - 2 / 26)

    def test_r2_certificate_counts(self, lps_sg_r2):
        cert = build_certificate(lps_sg_r2)
        assert len(cert.localized) == 2  # depth-1 tree has 2 radial eigenvalues
        assert cert.all_ok

    def test_json_round_trip(self, mcgee_sg, tmp_path):
        cert = build_certificate(mcgee_sg)
        path = tmp_path / "cert.json"
        cert.save(path)
        loaded = Certificate.load(path)
        assert loaded.to_dict() == cert.to_dict()

    def test_determinism_modulo_timestamp(self, mcgee_sg):
        a = timeless(build_certificate(mcgee_sg))
        b = timeless(build_certificate(mcgee_sg))
        assert a.to_json() == b.to_json()


class TestVerifyCertificate:
    def test_fresh_outputs_pass(self, mcgee_sg):
        cert = build_certificate(mcgee_sg)
        report = verify_certificate(mcgee_sg.graph, cert)
        assert report.passed

    def test_lps_round_trip(self, lps_sg):
        cert = build_certificate(lps_sg)
        report = verify_certificate(lps_sg.graph, cert)
        assert report.passed

    def test_tampered_girth_fails(self, mcgee_sg):
        cert = build_certificate(mcgee_sg)
        data = cert.to_dict()
        data["girth"] += 2
        report = verify_certificate(mcgee_sg.graph, Certificate.from_dict(data))
        assert not report.passed
        failed = [it.name for it in report.items if not it.ok]
        assert failed == ["girth"]

    def test_tampered_eigenvalue_fails(self, mcgee_sg):
        cert = build_certificate(mcgee_sg)
        data = cert.to_dict()
        data["localized"][0]["eigenvalue"] = 0.5
        report = verify_certificate(mcgee_sg.graph, Certificate.from_dict(data))
        assert not report.passed

    def test_wrong_graph_fails_on_vertex_count(self, mcgee_sg):
        cert = build_certificate(mcgee_sg)
        report = verify_certificate(petersen_graph(), cert)
        assert not report.passed
        assert not report.items[0].ok  # vertex_count is the first item

    def test_summary_text(self, mcgee_sg):
        cert = build_certificate(mcgee_sg)
        text = verify_certificate(mcgee_sg.graph, cert).summary()
        assert "PASSED" in text

    def test_residual_tolerance_does_not_come_from_the_certificate(
            self, mcgee_sg):
        # the normalized all-ones vector is no eigenvector for -1.5; a
        # large recorded residual must not widen the verifier's tolerance
        cert = build_certificate(mcgee_sg)
        data = cert.to_dict()
        M = cert.M
        data["localized"][0].update(
            eigenvalue=-1.5, support=list(range(M)),
            values=[1 / math.sqrt(M)] * M, residual_inf=10.0,
            residual_two=10.0, witness_value=0.0)
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert not report.passed
        failed = [it.name for it in report.items if not it.ok]
        assert failed == ["localized_0"]

    @pytest.mark.parametrize("key,value,ok", [
        ("support_in_site", False, False),
        ("interior_eigenvalue", False, False),
        ("residual_inf", 7.0, False),
        ("residual_inf", 2 * RESIDUAL_TOL, False),
        ("residual_inf", RESIDUAL_TOL, True),
        ("residual_two", 7.0, False),
        ("residual_inf", -3.0, False),
        ("residual_two", -1e-15, False),
    ], ids=["in-site", "interior", "residual", "residual-above-tol",
            "residual-at-tol", "residual-two", "residual-negative",
            "residual-two-negative"])
    def test_record_flags_are_judged(self, mcgee_sg, key, value, ok):
        # the vector is the built one, so only what its record says of it
        # can fail: flags unlike the re-derived ones, a residual above
        # RESIDUAL_TOL, a negative one, or one that is not the measured
        # one within RESIDUAL_TOL
        data = build_certificate(mcgee_sg).to_dict()
        data["localized"][0][key] = value
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert report.passed is ok
        assert [it.name for it in report.items if not it.ok] \
            == ([] if ok else ["localized_0"])

    def test_zero_vector_fails_its_record_without_raising(self, mcgee_sg):
        # residual() rejects a zero vector, so its norm must fail it first
        data = build_certificate(mcgee_sg).to_dict()
        rec = data["localized"][0]
        rec["values"] = [0.0] * len(rec["values"])
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert not report.passed
        assert [it.name for it in report.items if not it.ok] \
            == ["localized_0"]

    @pytest.mark.parametrize("shift,ok", [(0.5 * SPECTRAL_TOL, True),
                                          (2.0 * SPECTRAL_TOL, False)])
    def test_lambda2_judged_against_fixed_tolerance(self, mcgee_sg, shift,
                                                    ok):
        data = build_certificate(mcgee_sg).to_dict()
        data["lambda_max_nontrivial"] += shift
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert report.passed is ok
        assert [it.name for it in report.items if not it.ok] \
            == ([] if ok else ["lambda_max_nontrivial"])

    def test_recorded_false_check_fails(self, mcgee_sg):
        cert = build_certificate(mcgee_sg)
        for name in cert.checks:
            data = cert.to_dict()
            data["checks"][name] = False
            report = verify_certificate(mcgee_sg.graph,
                                        Certificate.from_dict(data))
            assert not report.passed, name
            failed = [it for it in report.items if not it.ok]
            assert [it.name for it in failed] == ["recorded_checks"]
            assert name in failed[0].detail


    def test_site_count_is_rederived(self, mcgee_sg):
        data = build_certificate(mcgee_sg).to_dict()
        data.update(k=5, sites=[])
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert not report.passed
        failed = [it.name for it in report.items if not it.ok]
        assert failed == ["site_count", "localized_count", "localized_0"]

    @pytest.mark.parametrize("edit,failed", [
        (lambda d: d.update(k=2), ["site_count", "localized_count"]),
        (lambda d: d["sites"].append(d["sites"][0]), ["site_count"]),
        (lambda d: d["localized"].append(d["localized"][0]),
         ["localized_count"]),
        (lambda d: d["localized"][0].update(site_id=1), ["localized_0"]),
        (lambda d: d["localized"][0].update(site_id=-1), ["localized_0"]),
        (lambda d: d["sites"][0].update(t2_levels=[]), ["localized_0"]),
        (lambda d: d["sites"][0].pop("t1_levels"), ["localized_0"]),
    ], ids=["k", "extra-site", "extra-record", "site-id-high",
            "site-id-negative", "support-outside-site", "malformed-site"])
    def test_site_bookkeeping_is_rederived(self, mcgee_sg, edit, failed):
        data = build_certificate(mcgee_sg).to_dict()
        edit(data)
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert not report.passed
        assert [it.name for it in report.items if not it.ok] == failed

    def test_eigenvalue_outside_bulk_fails(self, cubic6_sg2):
        # lambda = 3 = d + 1 with the normalized all-ones vector is an exact
        # eigenpair of the glued graph but not an interior (|lambda| <
        # 2 sqrt d) one; the site is widened to every vertex so that only
        # the interior test can fail
        cert = build_certificate(cubic6_sg2)
        data = cert.to_dict()
        M = cert.M
        data["localized"][0].update(
            support=list(range(M)), values=[1 / math.sqrt(M)] * M,
            eigenvalue=3.0, witness_value=0.0)
        data["sites"][0]["t1_levels"] = [list(range(M))]
        report = verify_certificate(cubic6_sg2.graph,
                                    Certificate.from_dict(data))
        assert not report.passed
        failed = [it for it in report.items if not it.ok]
        assert [it.name for it in failed] == ["localized_0"]
        assert "interior" in failed[0].detail

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(support=[0, 999]),
        lambda r: r.update(support=[r["support"][0], -1]),
        lambda r: r.update(support=[r["support"][0], 1.0]),
        lambda r: r.update(support=[r["support"][0], True]),
        lambda r: r.update(support=0),
        lambda r: r.update(values=r["values"][:1]),
        lambda r: r.update(values=[10 ** 400] * len(r["values"])),
    ], ids=["id-too-large", "id-negative", "id-float", "id-bool",
            "support-not-list", "values-short", "value-beyond-float"])
    def test_malformed_support_fails_its_record(self, mcgee_sg, edit):
        data = build_certificate(mcgee_sg).to_dict()
        edit(data["localized"][0])
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert not report.passed
        failed = [it for it in report.items if not it.ok]
        assert [it.name for it in failed] == ["localized_0"]
        assert "support" in failed[0].detail


class TestCertificateSchema:
    @pytest.mark.parametrize("edit,msg", [
        (lambda d: d.update(extra=1), "unknown keys extra"),
        (lambda d: d.pop("girth"), "missing keys girth"),
        (lambda d: d["localized"][0].update(extra=1),
         r"localized\[0\]: unknown keys extra"),
        (lambda d: d["localized"][0].pop("values"),
         r"localized\[0\]: missing keys values"),
        (lambda d: d.update(localized={}), "must be a list"),
        (lambda d: d.update(checks=[]), "must be an object"),
    ], ids=["top-unknown", "top-missing", "localized-unknown",
            "localized-missing", "localized-not-list", "checks-not-object"])
    def test_malformed_keys_rejected(self, mcgee_sg, edit, msg):
        data = build_certificate(mcgee_sg).to_dict()
        edit(data)
        with pytest.raises(ValueError, match=msg):
            Certificate.from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            Certificate.from_dict([])

    @pytest.mark.parametrize("key,value,kind", [
        ("d", "2", "an integer"),
        ("r", 1.0, "an integer"),
        ("k", True, "an integer"),
        ("m", None, "an integer"),
        ("M", "26", "an integer"),
        ("seed", "7", "an integer"),
        ("girth", 4.0, "an integer"),
        ("girth_bound", "2", "an integer"),
        ("girth_required", [2], "an integer"),
        ("schema_version", "1", "an integer"),
        ("lambda_max_nontrivial", "2.0", "a number"),
        ("spectral_threshold", None, "a number"),
        ("proposition_threshold", False, "a number"),
        ("effective_alpha", "0.2", "a number"),
        ("spectral_method", 1, "a string"),
        ("tool_version", 0.1, "a string"),
        ("seeds_used", 7, "a list"),
        ("sites", {}, "a list"),
        ("lambda_max_nontrivial", 10 ** 400, "a number"),
        ("spectral_threshold", -10 ** 400, "a number"),
    ])
    def test_wrongly_typed_field_rejected(self, mcgee_sg, key, value, kind):
        data = build_certificate(mcgee_sg).to_dict()
        data[key] = value
        with pytest.raises(ValueError,
                           match=f"certificate: '{key}' must be {kind}"):
            Certificate.from_dict(data)

    @pytest.mark.parametrize("key,value,kind", [
        ("eigenvalue", "0", "a number"),
        ("witness_value", "0", "a number"),
        ("residual_inf", None, "a number"),
        ("residual_two", [0.0], "a number"),
        ("site_id", "0", "an integer"),
        ("support_in_site", 1, "a boolean"),
        ("interior_eigenvalue", "true", "a boolean"),
        ("residual_inf", 10 ** 400, "a number"),
    ])
    def test_wrongly_typed_record_field_rejected(self, mcgee_sg, key, value,
                                                 kind):
        data = build_certificate(mcgee_sg).to_dict()
        data["localized"][0][key] = value
        with pytest.raises(ValueError,
                           match=rf"localized\[0\]: '{key}' must be {kind}"):
            Certificate.from_dict(data)

    def test_integral_number_accepted_for_a_float_field(self, mcgee_sg):
        data = build_certificate(mcgee_sg).to_dict()
        data["localized"][0]["eigenvalue"] = 0
        cert = Certificate.from_dict(data)
        assert verify_certificate(mcgee_sg.graph, cert).passed


class TestDerivedFields:
    @pytest.mark.parametrize("edit,failed", [
        (lambda d: d.update(girth_required=99),
         ["girth_required_consistent"]),
        (lambda d: d.update(girth_bound=99), ["girth_bound_consistent"]),
        (lambda d: d.update(m=25), ["site_count", "effective_alpha"]),
        (lambda d: d.update(effective_alpha=5.0), ["effective_alpha"]),
        (lambda d: d.update(spectral_method="bogus"), ["spectral_method"]),
        (lambda d: d.update(effective_alpha=5.0, spectral_method="bogus"),
         ["effective_alpha", "spectral_method"]),
    ], ids=["girth-required", "girth-bound", "m", "alpha", "method",
            "alpha-and-method"])
    def test_edited_field_fails(self, mcgee_sg, edit, failed):
        data = build_certificate(mcgee_sg).to_dict()
        edit(data)
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert not report.passed
        assert [it.name for it in report.items if not it.ok] == failed

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_either_method_passes(self, mcgee_sg, method):
        data = build_certificate(mcgee_sg).to_dict()
        data["spectral_method"] = method
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        assert report.passed

    @pytest.mark.parametrize("r", [10 ** 6, -10 ** 400],
                             ids=["deep", "negative"])
    def test_impossible_depth_fails_without_evaluating(self, mcgee_sg, r):
        # girth_bound(2, 10**6) alone would take minutes, and a huge
        # negative r overflows a float
        data = build_certificate(mcgee_sg).to_dict()
        data["r"] = r
        report = verify_certificate(mcgee_sg.graph,
                                    Certificate.from_dict(data))
        failed = [it.name for it in report.items if not it.ok]
        assert failed == ["site_count", "localized_count",
                          "girth_bound_consistent",
                          "girth_required_consistent", "effective_alpha"]


class TestZeroSites:
    """Without sites r enters only effective_alpha, so build and verify
    agree for every r, also at and above M's bit length (5 for M = 24)."""

    @pytest.mark.parametrize("r", range(10))
    def test_round_trip(self, mcgee, r):
        sg = multi_glue(mcgee, 0, r)
        cert = build_certificate(sg)
        assert cert.all_ok and cert.k == 0 and cert.r == r
        assert cert.girth_bound == cert.girth_required == 0
        report = verify_certificate(
            sg.graph, Certificate.from_dict(json.loads(cert.to_json())))
        assert report.passed, report.summary()

    @pytest.mark.parametrize("r", [10 ** 400, -10 ** 400],
                             ids=["deep", "negative"])
    def test_absurd_depth_fails_on_alpha_alone(self, mcgee, r):
        # r * log d overflows a float; alpha is then infinite, never equal
        # to the recorded one
        sg = multi_glue(mcgee, 0, 9)
        data = build_certificate(sg).to_dict()
        data["r"] = r
        report = verify_certificate(sg.graph, Certificate.from_dict(data))
        assert [it.name for it in report.items if not it.ok] == \
            ["effective_alpha"]

    @pytest.mark.parametrize("r", [-1, 27], ids=["negative", "refused"])
    def test_depth_multi_glue_refuses_has_no_alpha(self, mcgee, r):
        # even with alpha set to r log d / log m, as the certificate of a
        # zero-site glue at this r would have recorded it
        sg = multi_glue(mcgee, 0, 1)
        data = build_certificate(sg).to_dict()
        data.update(r=r, effective_alpha=r * math.log(2) / math.log(24))
        report = verify_certificate(sg.graph, Certificate.from_dict(data))
        assert [it.name for it in report.items if not it.ok] == \
            ["effective_alpha"]


def test_to_json_refuses_non_finite_numbers(mcgee):
    cert = build_certificate(multi_glue(mcgee, 0, 1))
    json.loads(cert.to_json(), parse_constant=_reject)
    with pytest.raises(ValueError, match="not JSON compliant"):
        dataclasses.replace(cert, effective_alpha=math.inf).to_json()


def _reject(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.parametrize("value", [None, "0.5", [0.5]])
def test_non_numeric_value_fails_its_record(mcgee_sg, value):
    data = build_certificate(mcgee_sg).to_dict()
    data["localized"][0]["values"][0] = value
    report = verify_certificate(mcgee_sg.graph, Certificate.from_dict(data))
    failed = [it for it in report.items if not it.ok]
    assert [it.name for it in failed] == ["localized_0"]
    assert "numbers" in failed[0].detail


def _switched(n, edges, remove, add):
    """Graph on n vertices with the edge list ``edges`` minus ``remove``
    plus ``add`` (a double edge switch when both hold two edges)."""
    gone = {tuple(sorted(e)) for e in remove}
    kept = [tuple(e) for e in np.asarray(edges).tolist()
            if tuple(sorted(e)) not in gone]
    return build_graph(n, kept + list(add))


def _close_triangle(sg):
    """sg after one double edge switch, (a, x), (c, y) -> (a, c), (x, y)
    with a-b-c a path, that closes the triangle a-b-c at least four hops
    from every site vertex, so the localized eigenvectors stay exact."""
    g = sg.graph
    sites = [v for site in sg.sites for v in np.concatenate([site.v1, site.v2])]
    far = _hop_distances(g.indptr, g.indices, sites, 4) < 0
    adj = adjacency_lists(g)
    for b in np.nonzero(far)[0].tolist():
        a, c = adj[b][:2]
        x = next(v for v in adj[a] if v != b)
        y = next((v for v in adj[c] if v != b and v != x
                  and v not in adj[x]), None)
        if y is not None and c not in adj[a] and far[[a, c, x, y]].all():
            h = _switched(g.n, g.edges(), [(a, x), (c, y)], [(a, c), (x, y)])
            return dataclasses.replace(sg, graph=h, girth=None)
    raise AssertionError("no far path a-b-c")


class TestVerdictsAreRederived:
    """A certificate whose recorded verdict is flipped to True must fail on
    the verifier's own re-derivation of that verdict."""

    def test_spectral_verdict(self):
        # two LPS(13,17) copies joined by one double edge switch: a
        # bottleneck, so lambda2 is close to d + 1 = 14
        h = lps_graph(13, 17)
        e = h.edges()
        (a, b), (c, d) = e[0].tolist(), e[1000].tolist()
        two = _switched(2 * h.n, np.vstack([e, e + h.n]),
                        [(c + h.n, d + h.n), (a, b)],
                        [(a, c + h.n), (b, d + h.n)])
        sg = multi_glue(two, 1, 1, seed=1)
        cert = build_certificate(sg)
        assert cert.lambda_max_nontrivial > 13.9 > cert.spectral_threshold
        assert [n for n, ok in cert.checks.items() if not ok] == [
            "spectral_within_threshold"]
        data = cert.to_dict()
        data["checks"]["spectral_within_threshold"] = True
        report = verify_certificate(sg.graph, Certificate.from_dict(data))
        failed = [it for it in report.items if not it.ok]
        assert [it.name for it in failed] == ["spectral_within_threshold"]
        assert not report.passed

    def test_girth_verdict(self, cubic6):
        # r = 2 needs girth 4; a triangle far from the site breaks only that
        sg = _close_triangle(multi_glue(cubic6, 1, 2, seed=1))
        assert girth(sg.graph) == 3 == girth_bound(2, 2) < girth_required(2, 2)
        cert = build_certificate(sg)
        assert [n for n, ok in cert.checks.items() if not ok] == [
            "girth_at_least_required"]
        data = cert.to_dict()
        data["checks"]["girth_at_least_required"] = True
        report = verify_certificate(sg.graph, Certificate.from_dict(data))
        failed = [it for it in report.items if not it.ok]
        assert [it.name for it in failed] == ["girth_at_least_required"]
        assert not report.passed

    def test_girth_bound_verdict(self, cubic6, monkeypatch):
        # no simple graph has girth below girth_bound(d, 2) = 3, so the
        # verifier's girth measurement reads one less than the truth: the
        # recorded girth and both verdicts agree with it, yet both re-derived
        # verdicts fail
        sg = _close_triangle(multi_glue(cubic6, 1, 2, seed=1))
        data = build_certificate(sg).to_dict()
        data["girth"] = 2
        data["checks"]["girth_at_least_required"] = True
        monkeypatch.setattr("scargraph.certificate.girth", lambda g: 2)
        report = verify_certificate(sg.graph, Certificate.from_dict(data))
        failed = [it.name for it in report.items if not it.ok]
        assert failed == ["girth_at_least_bound", "girth_at_least_required"]

    def test_honest_verdicts_pass(self, cubic6):
        sg = multi_glue(cubic6, 1, 2, seed=1)
        report = verify_certificate(sg.graph, build_certificate(sg))
        names = [it.name for it in report.items]
        assert {"spectral_within_threshold", "girth_at_least_bound",
                "girth_at_least_required"} <= set(names)
        assert report.passed, report.summary()


def _bottleneck_sg():
    """Two LPS(13,17) copies joined by one double edge switch, glued at
    r = 1: lambda2 is close to d + 1 = 14, above the threshold."""
    h = lps_graph(13, 17)
    e = h.edges()
    (a, b), (c, d) = e[0].tolist(), e[1000].tolist()
    two = _switched(2 * h.n, np.vstack([e, e + h.n]),
                    [(c + h.n, d + h.n), (a, b)],
                    [(a, c + h.n), (b, d + h.n)])
    return multi_glue(two, 1, 1, seed=1)


class TestOneJudge:
    """build_certificate's checks are the verifier's items, judged by the
    same code from the builder's own measurements."""

    @pytest.fixture(scope="class", params=["mcgee", "cubic6-r2", "lps13",
                                           "bottleneck", "triangle"])
    def case(self, request):
        if request.param == "mcgee":
            return request.getfixturevalue("mcgee_sg"), []
        if request.param == "lps13":
            return multi_glue(lps_graph(13, 17), 1, 1, seed=1), []
        if request.param == "bottleneck":
            return _bottleneck_sg(), ["spectral_within_threshold"]
        sg = multi_glue(request.getfixturevalue("cubic6"), 1, 2, seed=1)
        if request.param == "triangle":
            return _close_triangle(sg), ["girth_at_least_required"]
        return sg, []

    def test_builder_and_verifier_agree(self, case):
        sg, failing = case
        cert = build_certificate(sg)
        items = [it for it in verify_certificate(sg.graph, cert).items
                 if it.name != "recorded_checks"]
        assert cert.checks == {it.name: it.ok for it in items}
        assert list(cert.checks) == [it.name for it in items]
        assert [n for n, ok in cert.checks.items() if not ok] == failing
        names = set(cert.checks)
        assert {"girth", "lambda_max_nontrivial", "spectral_within_threshold",
                "girth_at_least_bound", "girth_at_least_required"} <= names
        assert {f"localized_{i}" for i in range(cert.k * cert.r)} <= names

    @pytest.mark.parametrize("known_girth", [True, False])
    def test_one_girth_and_one_spectral_call(self, mcgee_sg, monkeypatch,
                                             known_girth):
        calls = {"girth": 0, "extreme_eigenvalues": 0}

        def counted(name):
            fn = getattr(scargraph.certificate, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(scargraph.certificate, name, counted(name))
        # multi_glue records the glued girth; without it the builder
        # measures it once
        assert mcgee_sg.girth is not None
        sg = mcgee_sg if known_girth \
            else dataclasses.replace(mcgee_sg, girth=None)
        cert = build_certificate(sg)
        assert calls == {"girth": 0 if known_girth else 1,
                         "extreme_eigenvalues": 1}
        assert cert.all_ok and cert.girth == 4

    @pytest.mark.parametrize("components", [1, 2])
    def test_verify_tests_connectivity_once(self, mcgee_sg, monkeypatch,
                                            components):
        # the lambda2 solve tests connectivity, and verify reads it off
        # the solve: a disconnected graph fails both spectral checks
        cert = build_certificate(mcgee_sg)
        g = mcgee_sg.graph
        if components == 2:
            # the last vertex cut off
            e = g.edges()
            g = build_graph(g.n, e[e.max(axis=1) < g.n - 1])
        calls = []

        def counted(h):
            calls.append(h)
            return is_connected(h)

        monkeypatch.setattr(scargraph.spectral, "is_connected", counted)
        assert not hasattr(scargraph.certificate, "is_connected")
        report = verify_certificate(g, cert)
        assert calls == [g]
        failed = {it.name for it in report.items if not it.ok}
        spectral = {"lambda_max_nontrivial", "spectral_within_threshold"}
        assert (spectral <= failed) == (components == 2)
