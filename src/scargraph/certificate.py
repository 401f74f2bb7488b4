"""Machine-readable certificates: every claimed property of a constructed
graph (girth, nontrivial spectral radius, localized eigenpairs, scarring
witnesses) recorded with enough data to be re-checked from the graph alone,
plus the verifier that does the re-checking."""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .graphs import MAX_VERTICES, Graph, girth, is_regular
from .pairing import girth_bound, girth_required
from .qe import scarring_witness
from .scars import ScarredGraph, _check_depth, localized_eigenvector
from .spectral import extreme_eigenvalues, norm2, residual, spectral_threshold
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
    return type(v) in (int, float)


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


def build_certificate(sg: ScarredGraph, timestamp: bool = True) -> Certificate:
    """Measure every certified quantity of a scarred graph; failures are
    recorded in the checks map, never raised.  A depth r that multi_glue
    refuses raises its ValueError."""
    _check_depth(sg.r)
    g = sg.graph
    d, r, k = sg.d, sg.r, len(sg.sites)
    M, m = g.n, sg.base_size
    gv = sg.girth if sg.girth is not None else girth(g)
    gv = int(gv) if gv != math.inf else -1
    bound, required, _, alpha = _derived_fields(d, r, k, M, m)
    summary = extreme_eigenvalues(g, how_many=0)
    thm, prop = spectral_threshold(d)

    localized = []
    checks = {
        "regular": is_regular(g) == d + 1,
        "vertex_count": M == m + sum(len(s.v1) + len(s.v2) for s in sg.sites),
    }
    if k:
        spec = radial_spectrum(d, r - 1)
        for sid, site in enumerate(sg.sites):
            allowed = set(int(v) for v in np.concatenate([site.v1, site.v2]))
            for lam in spec.eigenvalues:
                nu = localized_eigenvector(sg, sid, float(lam))
                rinf, rtwo = residual(g, nu, float(lam))
                support = np.nonzero(np.abs(nu) > SUPPORT_EPS)[0]
                wit = scarring_witness(nu, support, M)
                localized.append(LocalizedRecord(
                    sid, float(lam), support.tolist(),
                    nu[support].tolist(),
                    rinf, rtwo, wit.value,
                    all(int(v) in allowed for v in support),
                    abs(float(lam)) < 2.0 * math.sqrt(d)))
        checks["localized_residuals"] = all(
            rec.residual_inf <= RESIDUAL_TOL for rec in localized)
        checks["localized_supports"] = all(
            rec.support_in_site for rec in localized)
        checks["localized_interior"] = all(
            rec.interior_eigenvalue for rec in localized)
        checks["localized_count"] = len(localized) == k * r
        checks["girth_at_least_bound"] = gv >= bound
        checks["girth_at_least_required"] = gv >= required
    checks["spectral_within_threshold"] = summary.lambda2_abs <= thm

    created = datetime.datetime.now(datetime.timezone.utc).isoformat() \
        if timestamp else ""
    return Certificate(
        d=d, r=r, k=k, m=m, M=M, seed=sg.seed, seeds_used=list(sg.seeds_used),
        girth=gv, girth_bound=bound, girth_required=required,
        lambda_max_nontrivial=summary.lambda2_abs,
        spectral_threshold=thm, proposition_threshold=prop,
        effective_alpha=alpha, spectral_method=summary.method,
        localized=localized, sites=[_site_dict(s) for s in sg.sites],
        checks=checks, created_utc=created)


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


def verify_certificate(g: Graph, cert: Certificate) -> VerificationReport:
    """Recompute every certified quantity from the graph and diff it
    against the certificate; each mismatch is itemized.  The site and
    record counts are re-derived, and each eigenvector must lie inside its
    site's T1 and T2 interiors with |lambda| < 2 sqrt(d).  Eigenvector
    residuals are judged against the fixed RESIDUAL_TOL and lambda2 against
    the fixed SPECTRAL_TOL, never against a tolerance the certificate
    records, and a check the certificate records as failed fails the
    verification too.  A record whose support holds an id outside [0, M) or
    whose values are not numbers matching it one to one fails, and so does
    one whose vector is not of unit norm.  The girth bounds, the base size
    m (M minus 2k T1 interiors), effective_alpha and the method name are
    re-derived, not trusted; either method passes, whichever this verifier
    uses.  The verdicts are re-derived too: the measured lambda2 against
    the theorem threshold and, with sites, the measured girth against both
    girth bounds."""
    items = []

    def check(name, ok, detail=""):
        items.append(VerificationItem(name, bool(ok), detail))

    check("vertex_count", g.n == cert.M, f"graph {g.n} vs certificate {cert.M}")
    deg = is_regular(g)
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
    sites = [_site_vertices(site) for site in cert.sites]
    if g.n == cert.M:
        gv = girth(g)
        gv = int(gv) if gv != math.inf else -1
        check("girth", gv == cert.girth, f"measured {gv} vs {cert.girth}")
        summary = extreme_eigenvalues(g, how_many=0)
        check("lambda_max_nontrivial",
              abs(summary.lambda2_abs - cert.lambda_max_nontrivial)
              <= SPECTRAL_TOL,
              f"measured {summary.lambda2_abs!r} vs {cert.lambda_max_nontrivial!r}")
        thm, prop = spectral_threshold(cert.d)
        check("spectral_threshold", abs(thm - cert.spectral_threshold) < 1e-12)
        check("proposition_threshold",
              abs(prop - cert.proposition_threshold) < 1e-12)
        check("spectral_within_threshold", summary.lambda2_abs <= thm,
              f"measured {summary.lambda2_abs!r} vs (3/sqrt 2) sqrt d = "
              f"{thm!r}")
        if cert.k and bound is not None:
            check("girth_at_least_bound", gv >= bound,
                  f"measured {gv} vs {bound}")
            check("girth_at_least_required", gv >= required,
                  f"measured {gv} vs {required}")
        for i, rec in enumerate(cert.localized):
            bad = record_shape_error(rec, g.n)
            if bad:
                check(f"localized_{i}", False, bad)
                continue
            ids = rec.support
            nu = np.zeros(g.n)
            nu[ids] = rec.values
            norm = norm2(nu)
            # a zero vector fails on its norm; residual() would raise
            rinf = residual(g, nu, rec.eigenvalue)[0] if norm else math.inf
            ok = abs(norm - 1.0) <= 1e-9 and rinf <= RESIDUAL_TOL
            wit = float(np.sum(nu[ids] ** 2) - len(ids) / g.n)
            ok = ok and abs(wit - rec.witness_value) <= 1e-12
            sid = rec.site_id
            in_site = type(sid) is int and 0 <= sid < len(sites) \
                and set(ids) <= sites[sid]
            interior = abs(rec.eigenvalue) < 2.0 * math.sqrt(cert.d)
            check(f"localized_{i}", ok and in_site and interior,
                  f"lambda={rec.eigenvalue!r} residual={rinf:.2e} "
                  f"in_site={in_site} interior={interior}")
    failed = sorted(name for name, ok in cert.checks.items() if ok is not True)
    check("recorded_checks", not failed,
          f"recorded as failed: {', '.join(failed)}" if failed else "")
    passed = all(it.ok for it in items)
    return VerificationReport(items, passed)
