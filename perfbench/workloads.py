"""The four seeded workloads and the correctness gate every op passes.

A workload has a ``setup`` that makes its inputs from the seed (untimed by
the op loop; ``run.py`` times it separately as ``setup_s``) and an ``op``
that runs one closed-loop operation, timing its stages through ``stage``
and appending every broken contract to ``errors``.  The op returns the
determinism digest that must repeat across the ops of one run.

Every call into scargraph goes through the module attribute the program
itself uses (``scargraph.cli.main``, ``scargraph.scars.multi_glue``, ...),
so the tracer in ``spans.py`` sees the benchmark's calls too.

``smoke=True`` swaps each workload's inputs for seconds-sized ones (the
24-vertex McGee cage, a 200-vertex cubic base, the grid up to D = 3) that
cross the same boundaries and gates.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

import scargraph.base
import scargraph.certificate
import scargraph.cli
import scargraph.graphs
import scargraph.pairing
import scargraph.scars
from scargraph.named import mcgee_graph, random_regular_with_girth


def cert_digest(data: dict) -> str:
    """SHA-256 of a certificate's JSON text with ``created_utc`` blanked."""
    data = dict(data, created_utc="")
    text = json.dumps(data, sort_keys=True, indent=1) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_certificate(data: dict, errors: list) -> None:
    """Every recorded check true, and the girth at least the pairing's
    guaranteed girth for the certificate's (d, r)."""
    bad = sorted(name for name, ok in data["checks"].items() if not ok)
    if bad:
        errors.append(f"certificate checks false: {', '.join(bad)}")
    if data["k"]:
        d, r = data["d"], data["r"]
        need = scargraph.pairing.guaranteed_girth(d, (d + 1) * d ** (r - 1))
        if data["girth"] < need:
            errors.append(
                f"achieved girth {data['girth']} < guaranteed {need}")


def run_cli(argv: list, errors: list) -> None:
    """``scargraph.cli.main`` in-process; a nonzero exit code is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = scargraph.cli.main(argv)
    if code != 0:
        errors.append(f"scargraph {argv[0]} exited {code}: "
                      f"{out.getvalue().strip()[-500:]}")


def _read_json(path):
    # read directly, not via Certificate.load, so the gate stays untraced
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- construct-lps29: the documented command-line path -----------------------

def setup_construct(seed, workdir, smoke):
    h = mcgee_graph() if smoke else scargraph.base.lps_graph(5, 29)
    base = os.path.join(workdir, "base.edges")
    scargraph.graphs.save_edge_list(h, base)
    d, r = (2, 1) if smoke else (5, 2)
    return {"base": base, "d": d, "r": r, "seed": seed, "workdir": workdir}


def op_construct(inp, stage, errors):
    graph = os.path.join(inp["workdir"], "g.edges")
    cert = os.path.join(inp["workdir"], "cert.json")
    with stage("construct"):
        run_cli(["construct", "--base", inp["base"], "--d", str(inp["d"]),
                 "--r", str(inp["r"]), "--sites", "1",
                 "--seed", str(inp["seed"]), "--out", graph, "--cert", cert],
                errors)
    with stage("verify"):
        run_cli(["verify", "--graph", graph, "--cert", cert], errors)
    data = _read_json(cert)
    check_certificate(data, errors)
    return cert_digest(data)


# -- pair-grid: the swap engine alone -----------------------------------------

def setup_pair(seed, workdir, smoke):
    depths = range(1, 4) if smoke else range(1, 7)
    return {"cells": [(d, D) for d in (2, 3, 4) for D in depths],
            "seed": seed}


def op_pair(inp, stage, errors):
    with stage("construct"):
        pairings = [scargraph.pairing.pair_trees(d, D, seed=inp["seed"])
                    for d, D in inp["cells"]]
    with stage("verify"):
        measured = [scargraph.graphs.girth(p.glued) for p in pairings]
    for p, g in zip(pairings, measured):
        need = scargraph.pairing.guaranteed_girth(
            p.d, (p.d + 1) * p.d ** (p.depth - 1))
        if p.achieved_girth < need:
            errors.append(f"pair_trees({p.d}, {p.depth}) girth "
                          f"{p.achieved_girth} < guaranteed {need}")
        if g != p.achieved_girth:
            errors.append(f"pair_trees({p.d}, {p.depth}) reports girth "
                          f"{p.achieved_girth}, glued graph has {g}")
    text = "\n".join(p.to_json() for p in pairings)
    return hashlib.sha256(text.encode()).hexdigest()


# -- multisite-lps41: large base, several sites, iterative spectra ------------

def setup_multisite(seed, workdir, smoke):
    h = random_regular_with_girth(200, 3, 6, seed=5) if smoke \
        else scargraph.base.lps_graph(5, 41)
    return {"h": h, "k": 2, "r": 1 if smoke else 2, "seed": seed}


def op_multisite(inp, stage, errors):
    with stage("construct"):
        sg = scargraph.scars.multi_glue(inp["h"], inp["k"], inp["r"],
                                        seed=inp["seed"])
        cert = scargraph.certificate.build_certificate(sg)
    with stage("verify"):
        report = scargraph.certificate.verify_certificate(sg.graph, cert)
    if not report.passed:
        errors.append("verify_certificate failed:\n" + report.summary())
    data = cert.to_dict()
    check_certificate(data, errors)
    return cert_digest(data)


# -- dense-lps13: below DENSE_CUTOFF, full eigenbasis for qe ------------------

def setup_dense(seed, workdir, smoke):
    h = mcgee_graph() if smoke else scargraph.base.lps_graph(13, 17)
    return {"h": h, "d": 2 if smoke else 13, "r": 1, "seed": seed,
            "workdir": workdir}


def op_dense(inp, stage, errors):
    graph = os.path.join(inp["workdir"], "g.edges")
    cert_path = os.path.join(inp["workdir"], "cert.json")
    table = os.path.join(inp["workdir"], "qe.csv")
    with stage("construct"):
        base = scargraph.base.validate_base(inp["h"], inp["d"], inp["r"])
        sg = scargraph.scars.multi_glue(inp["h"], 1, inp["r"],
                                        seed=inp["seed"])
        cert = scargraph.certificate.build_certificate(sg)
        scargraph.graphs.save_edge_list(sg.graph, graph)
        cert.save(cert_path)
    if not base.all_ok:
        errors.append(f"validate_base failed: {base.to_json()}")
    with stage("verify"):
        report = scargraph.certificate.verify_certificate(sg.graph, cert)
    if not report.passed:
        errors.append("verify_certificate failed:\n" + report.summary())
    with stage("qe"):
        run_cli(["qe", "--graph", graph, "--cert", cert_path, "--out", table],
                errors)
    with open(table, newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != cert.M:
        errors.append(f"qe wrote {rows} rows for M = {cert.M}")
    data = cert.to_dict()
    check_certificate(data, errors)
    return cert_digest(data)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    setup: object
    op: object


WORKLOADS = {w.name: w for w in [
    Workload("construct-lps29", 3, setup_construct, op_construct),
    Workload("pair-grid", 0, setup_pair, op_pair),
    Workload("multisite-lps41", 5, setup_multisite, op_multisite),
    Workload("dense-lps13", 1, setup_dense, op_dense),
]}
