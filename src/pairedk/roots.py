"""Polynomial root extraction and classification relative to the unit circle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import tolerances as tol
from .errors import DegreeOverflow
from .laurent import MAX_DEGREE, LaurentPoly

LOC_IN = "in"
LOC_ON = "on"
LOC_OUT = "out"


@dataclass(frozen=True)
class Root:
    value: complex
    mult: int
    loc: str


@dataclass(frozen=True)
class RootSet:
    roots: Tuple[Root, ...]


def classify(value: complex) -> str:
    m = abs(value)
    if m > 1.0 + tol.EPS_CIRCLE:
        return LOC_OUT
    if m < 1.0 - tol.EPS_CIRCLE:
        return LOC_IN
    return LOC_ON


def same_root(u: complex, v: complex) -> bool:
    """Whether u and v name one root: |u - v| <= eps_cluster * max(1, |v|),
    the only radius of root identity."""
    return abs(u - v) <= tol.EPS_CLUSTER * max(1.0, abs(v))


def _cluster(values: np.ndarray) -> List[Tuple[complex, int]]:
    """Greedy clustering of near-identical roots; centroid representative."""
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    clusters: List[List[complex]] = []
    for i in order:
        v = values[i]
        placed = False
        for c in clusters:
            if same_root(v, c[0]):
                c.append(v)
                placed = True
                break
        if not placed:
            clusters.append([v])
    out = []
    for c in clusters:
        centroid = sum(c) / len(c)
        out.append((centroid, len(c)))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _polish(coeffs_desc: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One guarded Newton step per root against the original polynomial,
    taken for all roots in one vectorised pass."""
    deriv = np.polyder(np.poly1d(coeffs_desc)).coeffs
    scale = np.max(np.abs(coeffs_desc))
    pv = np.polyval(coeffs_desc, roots)
    dv = np.polyval(deriv, roots)
    # a near-multiple root keeps its value: Newton would wander
    ok = np.abs(dv) > tol.NEWTON_GUARD * scale * np.maximum(1.0, np.abs(roots)) ** (len(deriv) - 1)
    cand = np.where(ok, roots - pv / np.where(ok, dv, 1.0), roots)
    better = ok & (np.abs(np.polyval(coeffs_desc, cand)) < np.abs(pv))
    return np.where(better, cand, roots)


def poly_roots(p: LaurentPoly) -> RootSet:
    """All roots of the polynomial part of p (the monomial z^lo factored out).

    Companion-matrix eigenvalues refined by a guarded Newton step, then
    clustered into multiplicities.  Raises DegreeOverflow above degree 64.
    """
    if p.is_zero:
        raise ValueError("cannot take roots of the zero polynomial")
    lo, arr = p.to_array()
    deg = len(arr) - 1
    if deg > MAX_DEGREE:
        raise DegreeOverflow(f"degree {deg} exceeds {MAX_DEGREE}")
    if deg == 0:
        return RootSet(())
    # scaled by an exact power of two to a largest modulus in [0.5, 1):
    # the roots are unchanged, and subnormal or huge coefficients no longer
    # overflow np.roots' complex division
    desc = arr[::-1].copy()
    desc = np.ldexp(desc.view(float), -np.frexp(np.abs(desc).max())[1]).view(complex)
    raw = np.roots(desc)
    raw = _polish(desc, raw)
    clustered = _cluster(raw)
    roots = tuple(Root(v, m, classify(v)) for v, m in clustered)
    return RootSet(roots)
