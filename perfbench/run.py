"""scargraph benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload construct-lps29 --seed 3 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, table
    python3 perfbench/run.py --workload all --smoke  # seconds-long self-check

One process runs one workload as a closed loop: one client, one op at a
time.  One untimed warm-up op runs the workload's code on its smoke inputs
(every import, lazy cache and first call, in milliseconds); then ops repeat
on the workload's own inputs until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics with no tracer installed;
``--trace 1`` installs the tracer of ``spans.py`` after the warm-up and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median of SETUP_REPEATS fresh processes that each
start Python, import scargraph and make the workload's inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_REPEATS = 3
NAMES = ("construct-lps29", "pair-grid", "multisite-lps41", "dense-lps13")

# closed loop on the machine's own cores: BLAS may use each of them once
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var, NPROC)), NPROC))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure ops until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-sized inputs over the same boundaries")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child_argv(args, workload, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    return argv + list(extra)


def _time_setup(args):
    """Wall time of one fresh process doing import plus input generation."""
    t0 = time.perf_counter()
    subprocess.run(_child_argv(args, args.workload, "--setup-only"),
                   check=True, timeout=120, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment():
    """What the numbers depend on: versions, BLAS threads, cores, commit."""
    import numpy  # after the BLAS thread cap above
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(scipy.__file__), "..", "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        threads = ctypes.CDLL(path).scipy_openblas_get_num_threads()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
            timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads, "nproc": NPROC,
            "machine": platform.machine(), "commit": commit}


def run_op(workload, inputs, tracer, op_id):
    """One op through the correctness gate: its time, stages, digest and
    errors."""
    stages, errors = {}, []

    @contextmanager
    def stage(name):
        span = tracer.begin("stage." + name) if tracer else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0
            if span:
                tracer.end(span)

    if tracer:
        tracer.op = op_id
        root = tracer.begin("op")
    t0 = time.perf_counter()
    digest = None
    try:
        digest = workload.op(inputs, stage, errors)
    except Exception:  # the op boundary: record the failure, keep measuring
        errors.append(traceback.format_exc(limit=8))
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
    return {"op": op_id, "seconds": seconds, "stages": stages,
            "digest": digest, "errors": errors}


def check_digests(measured):
    """Determinism: every good op must reproduce the digest of the first
    good op.  A mismatch is recorded as that op's error.  Returns the
    reference digest, or None when no op succeeded."""
    good = [rec for rec in measured if not rec["errors"]]
    reference = good[0]["digest"] if good else None
    for rec in good[1:]:
        if rec["digest"] != reference:
            rec["errors"].append(f"digest {rec['digest']} differs from "
                                 f"the first good op's {reference}")
    return reference


def _median(values):
    return statistics.median(values) if values else None


def run_one(args):
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    RUNS.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=RUNS) as workdir:
            workload.setup(seed, workdir, args.smoke)
        return 0

    setup_samples = [_time_setup(args) for _ in range(SETUP_REPEATS)]
    tracer = spans.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=RUNS) as workdir:
        warm = os.path.join(workdir, "warm-up")
        os.mkdir(warm)
        ops = [run_op(workload, workload.setup(seed, warm, True), None, 0)]
        inputs = workload.setup(seed, workdir, args.smoke)
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            while True:
                ops.append(run_op(workload, inputs, tracer, len(ops)))
                if time.perf_counter() - start >= args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()

    measured = ops[1:]
    reference = check_digests(measured)
    failed = [rec for rec in ops if rec["errors"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def stage_median(name):
        return _median([r["stages"][name] for r in measured
                        if name in r["stages"]])

    summary = {
        "workload": args.workload, "seed": seed, "smoke": args.smoke,
        "trace": args.trace, "ops": len(measured), "warmup_ops": 1,
        "setup_samples": len(setup_samples),
        "setup_s": statistics.median(setup_samples),
        "op_s": _median([r["seconds"] for r in measured]),
        "construct_s": stage_median("construct"),
        "verify_s": stage_median("verify"),
        "qe_s": stage_median("qe"),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(failed) / len(ops),
        "digest": reference,
    }
    if tracer:
        values, record = _layer_metrics(tracer, measured, spans)
    else:
        values, record = summary, {}
    # BENCHMARK.json names the metrics a run reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if tracer else "end_to_end"]}

    env = environment()
    stem = f"{args.workload}-seed{seed}-trace{args.trace}" \
        + ("-smoke" if args.smoke else "")
    if tracer:
        tracer.write_jsonl(RUNS / f"{stem}.spans.jsonl")
    with open(RUNS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "summary": summary,
                   "metrics": metrics, "ops": ops, **record}, fh, indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    for rec in failed:
        print(f"FAILED op {rec['op']}:\n" + "\n".join(rec["errors"]))
    print("summary " + json.dumps(summary))
    for key, val in record.items():
        print(f"{key} " + json.dumps(val))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _layer_metrics(tracer, measured, spans):
    """Per-layer medians over the traced ops, plus the trace's own record."""
    own = spans.self_times(tracer.spans)
    per_op = []
    for rec in measured:
        idx = [i for i, s in enumerate(tracer.spans)
               if s[spans.OP] == rec["op"]]
        per_op.append(spans.layer_metrics([tracer.spans[i] for i in idx],
                                          [own[i] for i in idx],
                                          rec["seconds"]))
    cost = spans.span_cost_s()
    for m in per_op:
        m["trace.overhead_frac"] = m["trace.spans"] * cost / m["trace.op_s"]
    values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    ranking = spans.self_time_ranking(tracer.spans, own)
    return values, {
        "self_time_s": {name: t / len(measured) for name, t in ranking},
        "span_cost_s": cost,
        "boundary_calls": tracer.calls,
    }


def run_all(args):
    """Each workload in its own process (so ``ru_maxrss`` is its own), then
    one table of the seven end-to-end metrics."""
    cols = ("setup_s", "op_s", "construct_s", "verify_s", "qe_s",
            "peak_rss_mb", "failed_frac")
    units = ("s", "s", "s", "s", "s", "MB", "frac")
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(_child_argv(args, name), capture_output=True,
                              text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary = next(json.loads(ln[len("summary "):]) for ln in lines
                       if ln.startswith("summary "))
        for ln in lines[:-1]:
            print(f"[{name}] {ln}")
        rows.append((name, summary))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    print(f"{'workload':18s} {'n':>3s} " + " ".join(
        f"{c + ' [' + u + ']':>17s}" for c, u in zip(cols, units)))
    for name, s in rows:
        cells = ["n/a" if s[c] is None else f"{s[c]:.4f}" for c in cols]
        print(f"{name:18s} {s['ops']:3d} "
              + " ".join(f"{c:>17s}" for c in cells))
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "scargraph" / "__init__.py").is_file():
        print(f"error: no scargraph sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
