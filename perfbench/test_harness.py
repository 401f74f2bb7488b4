"""The benchmark's own test: smoke runs through every wrapper, span and
correctness gate, in seconds.

    python -m pytest perfbench/test_harness.py -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import scargraph.certificate  # noqa: E402
import scargraph.pairing  # noqa: E402
import scargraph.scars  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, cert_digest, check_certificate  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name, 1) for name in WORKLOADS}


def test_untraced_run_reports_every_end_to_end_metric():
    proc, lines = _run("construct-lps29", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # warm-up plus one measured op
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_report_every_layer_metric(traced):
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (proc, lines) in traced.items():
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert result["correct"], name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_every_boundary_is_crossed(traced):
    calls = {}
    for proc, lines in traced.values():
        line = next(ln for ln in lines if ln.startswith("boundary_calls "))
        for key, n in json.loads(line.split(" ", 1)[1]).items():
            calls[key] = calls.get(key, 0) + n
    assert calls.keys() == {spans.boundary_key(o, a)
                            for o, a, _, _ in spans.BOUNDARIES}
    assert [k for k, n in calls.items() if n == 0] == []


def test_tracer_restores_every_attribute():
    before = [inspect.getattr_static(o, a)
              for o, a, _, _ in spans.BOUNDARIES]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    after = [inspect.getattr_static(o, a)
             for o, a, _, _ in spans.BOUNDARIES]
    assert all(x is y for x, y in zip(before, after))


class _FirstOpRaises:
    """The first op raises inside wrapped boundaries that have counters;
    later ops succeed with one digest."""

    def op(self, inputs, stage, errors):
        if not inputs:
            inputs.append(1)
            for call in (lambda: scargraph.pairing.pair_trees(1, 1),
                         lambda: scargraph.scars.glue(None, [None]),
                         lambda: scargraph.certificate.extreme_eigenvalues(
                             None)):
                try:
                    call()
                except Exception as exc:
                    errors.append(repr(exc))
            raise RuntimeError("op failed")
        return "good"


def test_traced_failed_op_is_kept_and_does_not_fail_the_others():
    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs = []
        measured = [run.run_op(_FirstOpRaises(), inputs, tracer, i)
                    for i in (1, 2, 3)]
    finally:
        tracer.uninstall()
    assert len(measured[0]["errors"]) == 4
    assert run.check_digests(measured) == "good"
    assert [len(rec["errors"]) for rec in measured[1:]] == [0, 0]
    values, _ = run._layer_metrics(tracer, measured, spans)
    assert values["pairing.swaps"] == 0
    assert values["scars.glue.attempts"] == 0.0
    assert values["spectral.dense.calls"] == 0
    assert values["trace.spans"] == 1  # the "op" root of a good op


def test_self_time_subtracts_children():
    spans_ = [["op", 0.0, 10.0, -1, 1, {}], ["a", 1.0, 4.0, 0, 1, {}],
              ["b", 2.0, 3.0, 1, 1, {}], ["c", 5.0, 9.0, 0, 1, {}]]
    assert spans.self_times(spans_) == [3.0, 2.0, 1.0, 4.0]


def test_gate_rejects_false_checks_and_short_girth():
    cert = {"checks": {"regular": True, "spectral_within_threshold": False},
            "k": 1, "d": 5, "r": 2, "girth": 2}
    errors = []
    check_certificate(cert, errors)
    assert len(errors) == 2
    assert "spectral_within_threshold" in errors[0]
    assert "guaranteed" in errors[1]


def test_digest_ignores_creation_time_only():
    cert = {"created_utc": "2026-01-01T00:00:00", "girth": 6}
    assert cert_digest(cert) == cert_digest(dict(cert, created_utc="x"))
    assert cert_digest(cert) != cert_digest(dict(cert, girth=7))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc, lines = _run("pair-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)
