"""Localization statistics: scarring witnesses, the eigenbasis
quantum-ergodicity average, minimal support for a given mass, and the
explicit support lower bound implied by girth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scars import ScarSite
from .spectral import norm2

ORTH_TOL = 1e-8         # largest |B^T B - I| entry qe_average accepts


@dataclass
class ScarWitness:
    """<psi, a psi> for a = 1_S - |S|/M, the mean-zero indicator of S."""
    value: float
    mass: float                 # squared l2 mass of psi on S
    sup_norm_ok: bool           # the test function satisfies |a| <= 1


def scarring_witness(psi, S, M: int) -> ScarWitness:
    psi = np.asarray(psi, dtype=float)
    if len(psi) != M:
        raise ValueError("psi must live on all M vertices")
    norm = norm2(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"psi must be a unit vector, got norm {norm}")
    S = np.asarray(sorted(int(v) for v in S), dtype=np.int64)
    mass = float(np.sum(psi[S] ** 2))
    frac = len(S) / M
    value = mass - frac
    sup_ok = max(abs(1.0 - frac), frac) <= 1.0 + 1e-12
    return ScarWitness(value, mass, sup_ok)


def qe_average(basis, a) -> float:
    """(1/M) sum_i <psi_i, a psi_i>^2 over an orthonormal eigenbasis, for a
    mean-zero test function with sup norm at most 1.

    ``basis`` holds the vectors as columns.  Diagnostic only: needs the full
    basis, so it is restricted to graphs small enough to diagonalize.  The
    average depends on the basis chosen inside each degenerate eigenspace:
    rotating the basis of a repeated eigenvalue can change it.
    """
    basis = np.asarray(basis, dtype=float)
    a = np.asarray(a, dtype=float)
    M = len(a)
    if basis.shape != (M, M):
        raise ValueError("basis must be a full M x M column matrix")
    if abs(a.sum()) > 1e-9 * max(1.0, M):
        raise ValueError("test function must have zero mean")
    if np.abs(a).max() > 1.0 + 1e-12:
        raise ValueError("test function must have sup norm at most 1")
    err = np.abs(basis.T @ basis - np.eye(M)).max()
    if err > ORTH_TOL:
        raise ValueError(f"basis is not orthonormal within {ORTH_TOL}: {err}")
    vals = a @ (basis ** 2)
    return float(np.mean(vals ** 2))


def min_support_for_mass(v, eps: float):
    """Size (and members) of the smallest vertex set carrying squared mass
    at least eps; the greedy prefix of coordinates sorted by |v| descending
    is optimal, ties going to the lowest ids first.

    k comes from the cumulative sum of the values sorted alone: tied entries
    are equal, so the sums match those over the stably ordered entries bit
    for bit.  Only the entries at least the k-th largest are then ordered.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    w = np.asarray(v, dtype=float) ** 2
    if not np.isfinite(w).all():
        raise ValueError("squared entries of v must be finite")
    desc = np.sort(w)[::-1]
    k = min(int(np.searchsorted(np.cumsum(desc), eps - 1e-12)) + 1, len(w))
    heavy = np.flatnonzero(w >= desc[k - 1]) if k else np.arange(0)
    return k, heavy[np.argsort(-w[heavy], kind="stable")][:k]


@dataclass
class LocalizationBounds:
    """Support lower bounds for an eigenvector carrying mass eps.

    ``gs_bound`` is the fully explicit eps * d^(eps*girth/4) / (2 d^2).
    The older bound has an unspecified constant; only its exponent is
    evaluated, as ``bl_exponent`` with shape constant * eps^2 * d^exponent.
    """
    gs_bound: float
    bl_exponent: float
    bl_term: float               # eps^2 * d^bl_exponent, constant unknown


def localization_bounds(d: int, girth_value: float, eps: float) -> LocalizationBounds:
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    gs = eps * d ** (eps * girth_value / 4.0) / (2.0 * d * d)
    expo = 2.0 ** (-7) * eps * eps * girth_value
    return LocalizationBounds(gs, expo, eps * eps * d ** expo)


@dataclass
class PartialLocalization:
    levels_used: int
    mass: float


def partial_localization(nu, site: ScarSite, eps: float) -> PartialLocalization:
    """Mass of a localized eigenvector on the top floor(eps*r) levels of the
    carved tree; floor(eps*r) = 0 degenerates to the empty set."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    nu = np.asarray(nu, dtype=float)
    t = math.floor(eps * site.r)
    if t == 0:
        return PartialLocalization(0, 0.0)
    support = np.concatenate(site.t1_levels[:t])
    return PartialLocalization(t, float(np.sum(nu[support] ** 2)))
