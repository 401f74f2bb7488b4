"""Command-line front end.

Subcommands: base (lps | validate), pair, construct, spectrum, qe, verify,
report.  Exit codes: 0 all certified checks pass, 1 a certified check fails,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

import numpy as np

from .base import load_graph, lps_graph, validate_base
from .certificate import (Certificate, build_certificate, record_shape_error,
                          verify_certificate)
from .graphs import ConstructionError, EdgeListFormatError, save_edge_list
from .pairing import pair_trees
from .qe import min_support_for_mass, scarring_witness
from .scars import multi_glue
from .spectral import extreme_eigenvalues

# qe takes every eigenvector from one dense eigh, whatever DENSE_CUTOFF is
QE_MAX_VERTICES = 4096
# consecutive eigenvalues at most this far apart share one eigenspace
EIGENSPACE_GAP = 1e-8


@dataclass
class RunConfig:
    d: int
    r: int
    sites: int
    seed: int
    base_file: str | None = None
    lps_p: int | None = None
    lps_q: int | None = None
    out_graph: str | None = None
    out_cert: str | None = None

    def validate(self):
        if (self.base_file is None) == (self.lps_p is None):
            raise ValueError("exactly one base source: --base or --lps P Q")
        if self.r < 1:
            raise ValueError("r must be at least 1")


def run_pipeline(cfg: RunConfig) -> Certificate:
    """base -> validate -> construct -> certificate; raises on stage errors."""
    cfg.validate()
    if cfg.base_file is not None:
        h = load_graph(cfg.base_file)
    else:
        h = lps_graph(cfg.lps_p, cfg.lps_q)
    report = validate_base(h, cfg.d, cfg.r)
    structural = ["regular_d_plus_1", "connected", "girth_exceeds_4r",
                  "tree_balls_radius_r_plus_1"]
    bad = [name for name in structural if not report.checks[name]]
    if bad:
        raise ConstructionError(f"base validation failed: {', '.join(bad)}")
    sg = multi_glue(h, cfg.sites, cfg.r, seed=cfg.seed)
    cert = build_certificate(sg)
    if cfg.out_graph:
        save_edge_list(sg.graph, cfg.out_graph)
    if cfg.out_cert:
        cert.save(cfg.out_cert)
    return cert


def _cmd_base(args) -> int:
    if args.base_cmd == "lps":
        g = lps_graph(args.p, args.q)
        save_edge_list(g, args.out)
        print(f"wrote {g.n} vertices, {g.num_edges} edges to {args.out}")
        return 0
    g = load_graph(args.graph)
    report = validate_base(g, args.d, args.r)
    print(report.to_json())
    return 0 if report.all_ok else 1


def _cmd_pair(args) -> int:
    p = pair_trees(args.d, args.depth, seed=args.seed)
    p.save(args.out)
    print(f"girth {p.achieved_girth} after {p.swap_count} swaps -> {args.out}")
    return 0


def _cmd_construct(args) -> int:
    cfg = RunConfig(d=args.d, r=args.r, sites=args.sites, seed=args.seed,
                    base_file=args.base, lps_p=args.lps[0] if args.lps else None,
                    lps_q=args.lps[1] if args.lps else None,
                    out_graph=args.out, out_cert=args.cert)
    cert = run_pipeline(cfg)
    print(f"M={cert.M} girth={cert.girth} lambda2={cert.lambda_max_nontrivial:.6f}"
          f" threshold={cert.spectral_threshold:.6f}"
          f" localized={len(cert.localized)} alpha={cert.effective_alpha:.4f}")
    for name, ok in sorted(cert.checks.items()):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if cert.all_ok else 1


def _cmd_spectrum(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    g = load_graph(args.graph)
    summary = extreme_eigenvalues(g, how_many=args.k)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "lambda", "residual"])
        for i, (lam, res) in enumerate(summary.pairs):
            w.writerow([i, repr(lam), repr(res)])
    print(f"lambda_top={summary.lambda_top:.8f} "
          f"lambda2_abs={summary.lambda2_abs:.8f} ({summary.method})")
    return 0


def _check_records(cert: Certificate, n: int) -> None:
    """Raise ValueError naming the first localized record that does not
    read as a vector on n vertices."""
    for i, rec in enumerate(cert.localized):
        bad = record_shape_error(rec, n)
        if bad:
            raise ValueError(f"certificate: localized[{i}]: {bad}")


def qe_rows(w, vecs, S) -> list:
    """The ``qe`` table of ascending eigenvalues ``w`` with orthonormal
    eigenvector columns ``vecs``, for the sorted vertex list ``S``.

    Consecutive eigenvalues at most ``EIGENSPACE_GAP`` apart form one
    eigenspace with a basis V of k columns.  Each of its k rows is (mean
    eigenvalue, k, min_support_0.5, witness, witness_max), computed from the
    projector density p = diag(V V^T) / k and from V_S, so no entry depends
    on the basis chosen inside the eigenspace:

    - ``min_support_0.5``: the fewest vertices carrying half of p;
    - ``witness``: the scarring witness of sqrt(p) on S;
    - ``witness_max``: lambda_max(V_S^T V_S) - |S|/M, the largest witness of
      any unit vector in the eigenspace.

    For a simple eigenvalue these are the eigenvector's own statistics.
    """
    n = len(w)
    cuts = np.flatnonzero(np.diff(w) > EIGENSPACE_GAP) + 1
    los, his = np.r_[0, cuts][:n], np.r_[cuts, n][:n]   # none when n = 0
    sizes, tops = his - los, np.zeros(len(los))
    for k in (np.unique(sizes) if S else ()):
        at = np.flatnonzero(sizes == k)
        cols = (los[at, None] + np.arange(k)).ravel()
        VS = vecs[np.ix_(S, cols)].reshape(len(S), len(at), k)
        sv = np.linalg.svd(VS.transpose(1, 0, 2), compute_uv=False)
        tops[at] = sv[:, 0] ** 2 - len(S) / n
    rows = []
    for lo, hi, top in zip(los, his, tops):
        k = int(hi - lo)
        V = vecs[:, lo:hi]
        amp = np.sqrt(np.einsum("ij,ij->i", V, V) / k)
        size, _ = min_support_for_mass(amp, 0.5)
        wit = scarring_witness(amp, S, n).value if S else 0.0
        rows += [(float(w[lo:hi].mean()), k, size, wit, float(top))] * k
    return rows


def _cmd_qe(args) -> int:
    from scipy.linalg import eigh
    g = load_graph(args.graph)
    if g.n > QE_MAX_VERTICES:
        print("qe statistics need the full eigenbasis; graph exceeds "
              f"{QE_MAX_VERTICES} vertices", file=sys.stderr)
        return 2
    cert = Certificate.load(args.cert)
    if cert.M != g.n:
        raise ValueError(f"certificate is for M = {cert.M} vertices but the "
                         f"graph has {g.n}")
    _check_records(cert, g.n)
    S = sorted({v for rec in cert.localized for v in rec.support})
    # the table is basis-invariant, so LAPACK's divide-and-conquer solver
    # (evd) may choose any basis; overwriting the Fortran-ordered matrix
    # keeps the eigenvectors in its buffer instead of a second n x n array
    w, vecs = eigh(g.csr().toarray(order="F"), driver="evd",
                   overwrite_a=True, check_finite=False)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        cw = csv.writer(fh)
        cw.writerow(["lambda", "multiplicity", "min_support_0.5", "witness",
                     "witness_max"])
        for lam, k, size, wit, top in qe_rows(w, vecs, S):
            cw.writerow([repr(lam), k, size, repr(wit), repr(top)])
    print(f"wrote {g.n} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    cert = Certificate.load(args.cert)
    report = verify_certificate(g, cert)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    cert = Certificate.load(args.cert)
    _check_records(cert, cert.M)
    print(f"construction: d={cert.d} r={cert.r} sites={cert.k} seed={cert.seed}")
    print(f"vertices: M={cert.M} (base m={cert.m}); effective alpha "
          f"{cert.effective_alpha:.4f}")
    print(f"girth: {cert.girth} (bound {cert.girth_bound}, required "
          f"{cert.girth_required})")
    print(f"spectral radius (nontrivial): {cert.lambda_max_nontrivial:.8f} "
          f"vs threshold {cert.spectral_threshold:.8f}")
    print(f"localized eigenpairs: {len(cert.localized)}")
    for rec in cert.localized:
        print(f"  site {rec.site_id}: lambda={rec.eigenvalue:+.8f} "
              f"support={len(rec.support)} residual={rec.residual_inf:.2e} "
              f"witness={rec.witness_value:.10f}")
    for name, ok in sorted(cert.checks.items()):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if cert.all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scargraph")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("base", help="generate or validate a base graph")
    bsub = b.add_subparsers(dest="base_cmd", required=True)
    bl = bsub.add_parser("lps", help="quaternion Cayley graph on PSL(2,q)")
    bl.add_argument("--p", type=int, required=True)
    bl.add_argument("--q", type=int, required=True)
    bl.add_argument("--out", required=True)
    bv = bsub.add_parser("validate", help="measure base-graph preconditions")
    bv.add_argument("--graph", required=True)
    bv.add_argument("--d", type=int, required=True)
    bv.add_argument("--r", type=int, required=True)

    p = sub.add_parser("pair", help="glue two trees leaf-to-leaf")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--depth", "--D", type=int, required=True, dest="depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    c = sub.add_parser("construct", help="full pipeline with certificate")
    c.add_argument("--base", help="edge-list file for the base graph")
    c.add_argument("--lps", nargs=2, type=int, metavar=("P", "Q"))
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--sites", type=int, default=1)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.add_argument("--cert", required=True)

    s = sub.add_parser("spectrum", help="extreme eigenvalues with residuals")
    s.add_argument("--graph", required=True)
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--out", required=True)

    q = sub.add_parser("qe", help="per-eigenspace localization statistics")
    q.add_argument("--graph", required=True)
    q.add_argument("--cert", required=True)
    q.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="re-check a certificate from the graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--cert", required=True)

    r = sub.add_parser("report", help="summarize a certificate")
    r.add_argument("--cert", required=True)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"base": _cmd_base, "pair": _cmd_pair,
                "construct": _cmd_construct, "spectrum": _cmd_spectrum,
                "qe": _cmd_qe, "verify": _cmd_verify, "report": _cmd_report}
    try:
        return handlers[args.cmd](args)
    except (ValueError, EdgeListFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
