"""Machine-readable certificates: every claimed property of a constructed
graph (girth, nontrivial spectral radius, localized eigenpairs, scarring
witnesses) recorded with enough data to be re-checked from the graph alone.
One judge, _judge, turns measurements into verdicts: build_certificate
feeds it its own, verify_certificate those it re-measures on the graph."""

from __future__ import annotations

import datetime
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .graphs import MAX_VERTICES, Graph, girth, is_regular
from .pairing import girth_bound, girth_required
from .qe import scarring_witness
from .scars import ScarredGraph, _check_depth, localized_eigenvector
from .spectral import (DisconnectedGraphError, extreme_eigenvalues, norm2,
                       residual, spectral_threshold)
from .trees import interior_size, radial_spectrum

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"
SUPPORT_EPS = 1e-12
RESIDUAL_TOL = 1e-10     # max |A nu - lambda nu| of a certified eigenvector
SPECTRAL_TOL = 1e-7      # verify: |measured - recorded lambda2| at most this


@dataclass
class LocalizedRecord:
    site_id: int
    eigenvalue: float
    support: list                 # vertex ids with |nu| > SUPPORT_EPS
    values: list                  # nu on the support, same order
    residual_inf: float
    residual_two: float
    witness_value: float          # <nu, a nu> for a = 1_S - |S|/M
    support_in_site: bool
    interior_eigenvalue: bool     # |lambda| < 2 sqrt(d)


@dataclass
class Certificate:
    d: int
    r: int
    k: int
    m: int
    M: int
    seed: int
    seeds_used: list
    girth: int
    girth_bound: int
    girth_required: int
    lambda_max_nontrivial: float
    spectral_threshold: float          # (3/sqrt 2) sqrt d
    proposition_threshold: float       # (3d-1)/sqrt(2d-1)
    effective_alpha: float
    spectral_method: str
    localized: list
    sites: list                        # per-site vertex bookkeeping
    checks: dict
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION
    created_utc: str = ""              # excluded from determinism comparisons

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1,
                          allow_nan=False)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        """Certificate from its JSON object; raises ValueError when a key
        is unknown or missing or a value has the wrong JSON type, at the
        top level or in a localized record."""
        _check_fields(cls, data, "certificate")
        for i, rec in enumerate(data["localized"]):
            _check_fields(LocalizedRecord, rec, f"localized[{i}]")
        recs = [LocalizedRecord(**r) for r in data["localized"]]
        kw = {k: v for k, v in data.items() if k != "localized"}
        return cls(localized=recs, **kw)

    @classmethod
    def load(cls, path) -> "Certificate":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _is_number(v) -> bool:
    """A float, or an int no larger in magnitude than the largest float."""
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


# JSON type of each annotated field type; a record's support and values
# are left to verify_certificate, which fails only that record
_KINDS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: type(v) is bool, "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}
_UNTYPED = {"support", "values"}


def _check_fields(cls, data, where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object")
    expected = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - expected)
    missing = sorted(expected - set(data))
    if unknown:
        raise ValueError(f"{where}: unknown keys {', '.join(unknown)}")
    if missing:
        raise ValueError(f"{where}: missing keys {', '.join(missing)}")
    for f in fields(cls):
        ok, kind = _KINDS[f.type]
        if f.name not in _UNTYPED and not ok(data[f.name]):
            raise ValueError(f"{where}: '{f.name}' must be {kind}")


def _site_dict(site) -> dict:
    return {
        "root": int(site.root),
        "t1_levels": [lv.tolist() for lv in site.t1_levels],
        "leaves": site.leaves.tolist(),
        "partners": site.partners.tolist(),
        "removed_matching": site.removed_matching.tolist(),
        "t2_levels": [lv.tolist() for lv in site.t2_levels],
        "t3_levels": [lv.tolist() for lv in site.t3_levels],
    }


def record_shape_error(rec: LocalizedRecord, n: int) -> str:
    """Why a localized record cannot be read as a vector on n vertices, or
    "" when its support holds one id in [0, n) per value and the values are
    numbers."""
    ids = rec.support
    if (isinstance(ids, list) and isinstance(rec.values, list)
            and len(ids) == len(rec.values)
            and all(type(v) is int and 0 <= v < n for v in ids)
            and all(_is_number(x) for x in rec.values)):
        return ""
    return (f"support must hold one id in [0, {n}) per value, "
            "and the values must be numbers")


def _derived_fields(d: int, r: int, k: int, M: int, m: int):
    """(girth_bound, girth_required, M - 2k|T1 interior|, effective_alpha
    on the base size m), or None when d < 2, or when there are sites and r
    is negative or at least M's bit length: a depth-r site holds 2^r
    vertices or more, so the bounds, which grow like d^r, are not evaluated.
    effective_alpha is None for an r that multi_glue refuses."""
    if d < 2 or k and not 0 <= r < M.bit_length():
        return None
    alpha = (r * math.log(d) / math.log(m) if m > 1 else 0.0) \
        if 0 <= r < MAX_VERTICES.bit_length() else None
    if not k:
        return 0, 0, M, alpha
    return (girth_bound(d, r), girth_required(d, r),
            M - 2 * k * interior_size(d, r), alpha)


def build_certificate(sg: ScarredGraph) -> Certificate:
    """Measure and record every certified quantity of a scarred graph; its
    checks map holds _judge's verdicts on these measurements, failures
    recorded, never raised.  A depth r multi_glue refuses raises its
    ValueError."""
    _check_depth(sg.r)
    g = sg.graph
    d, r, k = sg.d, sg.r, len(sg.sites)
    M, m = g.n, sg.base_size
    gv = sg.girth if sg.girth is not None else girth(g)
    gv = int(gv) if gv != math.inf else -1
    bound, required, _, alpha = _derived_fields(d, r, k, M, m)
    summary = extreme_eigenvalues(g, how_many=0)
    thm, prop = spectral_threshold(d)
    sites = [_site_dict(s) for s in sg.sites]
    spec = radial_spectrum(d, r - 1).eigenvalues.tolist() if k else []
    localized, measured = [], []
    for sid in range(k):
        for lam in spec:
            nu = localized_eigenvector(sg, sid, lam)
            rinf, rtwo = residual(g, nu, lam)
            support = np.nonzero(np.abs(nu) > SUPPORT_EPS)[0]
            ids = support.tolist()
            wit = scarring_witness(nu, support, M).value
            localized.append(LocalizedRecord(
                sid, lam, ids, nu[support].tolist(), rinf, rtwo, wit,
                *_record_flags(sid, ids, lam, sites, d)))
            measured.append((norm2(nu), rinf, rtwo, wit))

    cert = Certificate(
        d=d, r=r, k=k, m=m, M=M, seed=sg.seed, seeds_used=list(sg.seeds_used),
        girth=gv, girth_bound=bound, girth_required=required,
        lambda_max_nontrivial=summary.lambda2_abs,
        spectral_threshold=thm, proposition_threshold=prop,
        effective_alpha=alpha, spectral_method=summary.method,
        localized=localized, sites=sites, checks={},
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat())
    items = _judge(cert, M, is_regular(g), gv, summary.lambda2_abs, measured)
    cert.checks = {it.name: it.ok for it in items}
    return cert


@dataclass
class VerificationItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    items: list
    passed: bool

    def summary(self) -> str:
        lines = [f"[{'PASS' if it.ok else 'FAIL'}] {it.name}"
                 + (f": {it.detail}" if it.detail else "")
                 for it in self.items]
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def _site_vertices(site) -> set:
    """T1 and T2 interior vertex ids of a recorded site; empty if malformed."""
    try:
        return {int(v) for key in ("t1_levels", "t2_levels")
                for level in site[key] for v in level}
    except (KeyError, TypeError, ValueError):
        return set()


def _record_flags(sid, ids: list, lam: float, sites: list, d: int):
    """A record's (support_in_site, interior_eigenvalue) on recorded sites."""
    in_site = type(sid) is int and 0 <= sid < len(sites) \
        and set(ids) <= _site_vertices(sites[sid])
    return in_site, abs(lam) < 2.0 * math.sqrt(d)


def _judge(cert: Certificate, n: int, deg, gv, lam2, records) -> list:
    """The verdicts on a certificate from what was measured on its graph:
    n vertices of common degree deg and, when n is cert.M, the girth gv
    (-1 for a forest), the nontrivial spectral radius lam2 and per record
    its vector's (norm, max-norm residual, 2-norm residual, witness), or
    None when it reads as none.  Tolerances are fixed, never the
    certificate's; counts, girth bounds, m, effective_alpha and every
    verdict are re-derived, and each vector must be of unit norm, in its
    site and with |lambda| < 2 sqrt d, and its record must say so and
    record a max-norm residual <= RESIDUAL_TOL and two nonnegative
    residuals, each within RESIDUAL_TOL of the measured one."""
    items = []

    def check(name, ok, detail=""):
        items.append(VerificationItem(name, bool(ok), detail))

    check("vertex_count", n == cert.M, f"graph {n} vs certificate {cert.M}")
    check("regularity", deg == cert.d + 1, f"degree {deg}")
    bound, required, m, alpha = _derived_fields(
        cert.d, cert.r, cert.k, cert.M, cert.m) or (None,) * 4
    check("site_count", cert.k == len(cert.sites) and cert.m == m,
          f"k={cert.k} vs {len(cert.sites)} sites; m={cert.m} vs "
          f"M - 2k|T1 interior|={m}")
    check("localized_count", len(cert.localized) == cert.k * cert.r,
          f"{len(cert.localized)} records vs k*r={cert.k * cert.r}")
    check("girth_bound_consistent", cert.girth_bound == bound,
          f"{cert.girth_bound} vs {bound}")
    check("girth_required_consistent", cert.girth_required == required,
          f"{cert.girth_required} vs {required}")
    check("effective_alpha",
          alpha is not None and abs(alpha - cert.effective_alpha) <= 1e-12,
          f"{cert.effective_alpha!r} vs r log d / log m = {alpha!r}")
    check("spectral_method", cert.spectral_method in ("dense", "iterative"),
          repr(cert.spectral_method))
    if n != cert.M:
        return items
    check("girth", gv == cert.girth, f"measured {gv} vs {cert.girth}")
    check("lambda_max_nontrivial",
          abs(lam2 - cert.lambda_max_nontrivial) <= SPECTRAL_TOL,
          f"measured {lam2!r} vs {cert.lambda_max_nontrivial!r}")
    thm, prop = spectral_threshold(cert.d)
    check("spectral_threshold", abs(thm - cert.spectral_threshold) < 1e-12)
    check("proposition_threshold",
          abs(prop - cert.proposition_threshold) < 1e-12)
    check("spectral_within_threshold", lam2 <= thm,
          f"measured {lam2!r} vs (3/sqrt 2) sqrt d = {thm!r}")
    if cert.k and bound is not None:
        check("girth_at_least_bound", gv >= bound, f"measured {gv} vs {bound}")
        check("girth_at_least_required", gv >= required,
              f"measured {gv} vs {required}")
    for i, (rec, meas) in enumerate(zip(cert.localized, records)):
        if meas is None:
            check(f"localized_{i}", False, record_shape_error(rec, n))
            continue
        norm, rinf, rtwo, wit = meas
        ok = abs(norm - 1.0) <= 1e-9 and rinf <= RESIDUAL_TOL \
            and abs(wit - rec.witness_value) <= 1e-12
        in_site, interior = _record_flags(rec.site_id, rec.support,
                                          rec.eigenvalue, cert.sites, cert.d)
        measured = all(0 <= got and abs(got - want) <= RESIDUAL_TOL
                       for got, want in ((rec.residual_inf, rinf),
                                         (rec.residual_two, rtwo)))
        recorded = rec.residual_inf <= RESIDUAL_TOL and measured and (
            rec.support_in_site, rec.interior_eigenvalue) == (in_site, interior)
        check(f"localized_{i}", ok and in_site and interior and recorded,
              f"lambda={rec.eigenvalue!r} residual={rinf:.2e} "
              f"in_site={in_site} interior={interior} record_agrees={recorded}")
    return items


def verify_certificate(g: Graph, cert: Certificate) -> VerificationReport:
    """Measure the graph, judge the certificate by it (_judge, which
    build_certificate takes its checks from), and fail any check the
    certificate records as failed; each mismatch is itemized."""
    gv, lam2, records = None, None, []
    if g.n == cert.M:
        gv = girth(g)
        gv = int(gv) if gv != math.inf else -1
        try:
            lam2 = extreme_eigenvalues(g, how_many=0).lambda2_abs
        except DisconnectedGraphError:
            # no spectral gap: both spectral checks fail
            lam2 = math.inf
        for rec in cert.localized:
            ids = rec.support
            if record_shape_error(rec, g.n):
                records.append(None)
                continue
            nu = np.zeros(g.n)
            nu[ids] = rec.values
            norm = norm2(nu)
            # a zero vector fails on its norm; residual() would raise
            rinf, rtwo = residual(g, nu, rec.eigenvalue) if norm \
                else (math.inf, math.inf)
            records.append((norm, rinf, rtwo,
                            float(np.sum(nu[ids] ** 2) - len(ids) / g.n)))
    items = _judge(cert, g.n, is_regular(g), gv, lam2, records)
    failed = sorted(name for name, ok in cert.checks.items() if ok is not True)
    items.append(VerificationItem(
        "recorded_checks", not failed,
        f"recorded as failed: {', '.join(failed)}" if failed else ""))
    return VerificationReport(items, all(it.ok for it in items))
