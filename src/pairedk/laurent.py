"""Sparse Laurent polynomials sum_k c_k z^k with complex coefficients.

These are the exact building blocks: every rational function on the circle
is a quotient of two of them.  Instances are immutable and hashable by
identity; all arithmetic returns fresh objects, and ``from_roots`` may return
a shared one.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from . import tolerances as tol
from .errors import DegreeOverflow

MAX_DEGREE = 64
_SPAN_LIMIT = 4096  # runaway-product guard, far above anything legitimate
# Entries kept by each memo of pole-only data, here and in ``rational``; a
# trial of the property suite needs a few dozen.
MEMO_SIZE = 256


class LaurentPoly:
    """Finite Laurent polynomial stored as {exponent: coefficient}.

    Coefficients of modulus <= EPS_DROP * scale are pruned, where scale is
    the largest coefficient magnitude (or an explicit, larger reference
    supplied by cancellation-aware callers).  The zero polynomial is the one
    with an empty map.  The largest kept magnitude is recorded once, as
    ``norm_inf()``, and so are the ends of the support, ``lo`` and ``hi``.
    """

    __slots__ = ("_c", "_norm", "_lo", "_hi")

    def __init__(self, coeffs: Mapping[int, complex] | None = None, *, scale: float = 0.0):
        c: Dict[int, complex] = {}
        cmax = 0.0
        if coeffs:
            mods = [abs(v) for v in coeffs.values()]
            cmax = max(mods)
            # NaN and inf make the sum non-finite; so can finite moduli whose
            # sum overflows, which only the per-coefficient check tells apart
            if not math.isfinite(sum(mods)) and not all(map(cmath.isfinite, coeffs.values())):
                raise ValueError("non-finite coefficient")
            thr = tol.EPS_DROP * max(cmax, scale)
            for (k, v), av in zip(coeffs.items(), mods):
                if av > thr:
                    c[int(k)] = complex(v)
        self._c = c
        self._norm = float(cmax) if c else 0.0
        self._lo, self._hi = (min(c), max(c)) if c else (0, 0)
        if self._hi - self._lo > _SPAN_LIMIT:
            raise DegreeOverflow(f"Laurent support span {self._hi - self._lo} exceeds limit")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def from_roots(cls, roots: Iterable[complex], lead: complex = 1.0) -> "LaurentPoly":
        """Expand lead * prod (z - r) over the given roots (with repeats).

        The expansion is memoized: equal inputs, bit for bit, share one
        (immutable) result."""
        ordered = sorted(roots, key=lambda w: (w.real, w.imag))
        return _expand(np.array([lead, *(-r for r in ordered)], dtype=complex).tobytes())

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def lo(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return self._lo

    @property
    def hi(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return self._hi

    def coeff(self, k: int) -> complex:
        return self._c.get(k, 0.0 + 0.0j)

    def items(self):
        return self._c.items()

    def support(self):
        return sorted(self._c)

    def norm_inf(self) -> float:
        return self._norm

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0.0) + v
        return LaurentPoly(c, scale=max(self.norm_inf(), other.norm_inf()))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0.0) - v
        return LaurentPoly(c, scale=max(self.norm_inf(), other.norm_inf()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -v for k, v in self._c.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        c: Dict[int, complex] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                c[k] = c.get(k, 0.0) + v1 * v2
        return LaurentPoly(c, scale=self.norm_inf() * other.norm_inf())

    def scale(self, a: complex) -> "LaurentPoly":
        a = complex(a)
        if a == 0:
            return LaurentPoly()
        return LaurentPoly({k: a * v for k, v in self._c.items()})

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by z^n (exact index shift)."""
        return LaurentPoly({k + n: v for k, v in self._c.items()})

    def conj_reflect(self) -> "LaurentPoly":
        """The polynomial z -> conj(p(z)) for |z| = 1: negate indices, conjugate."""
        return LaurentPoly({-k: v.conjugate() for k, v in self._c.items()})

    # -- evaluation / conversion ---------------------------------------

    def eval(self, z: complex) -> complex:
        """Evaluate by Horner in z over k >= 0 plus Horner in 1/z over k < 0;
        z may be a scalar or a numpy array of points."""
        if not self._c:
            return 0.0 + 0.0j
        pos = 0.0 + 0.0j
        if self.hi >= 0:
            for k in range(self.hi, -1, -1):
                pos = pos * z + self._c.get(k, 0.0)
        neg = 0.0 + 0.0j
        if self.lo < 0:
            w = 1.0 / z
            for k in range(self.lo, 0):
                neg = neg * w + self._c.get(k, 0.0)
            neg = neg * w
        return pos + neg

    def to_array(self) -> Tuple[int, np.ndarray]:
        """Return (lo, ascending coefficient array) for the support block."""
        if self.is_zero:
            return 0, np.zeros(0, dtype=complex)
        lo, hi = self.lo, self.hi
        arr = np.zeros(hi - lo + 1, dtype=complex)
        for k, v in self._c.items():
            arr[k - lo] = v
        return lo, arr

    @classmethod
    def from_array(cls, lo: int, arr: np.ndarray) -> "LaurentPoly":
        return cls(dict(enumerate(np.asarray(arr, dtype=complex).tolist(), lo)))

    def degree_span(self) -> int:
        return 0 if self.is_zero else self.hi - self.lo

    # -- misc -----------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = []
        for k in self.support():
            v = self._c[k]
            if k == 0:
                parts.append(f"({v:.4g})")
            elif k > 0:
                parts.append(f"({v:.4g})z^{k}")
            else:
                parts.append(f"({v:.4g})z^{k}")
        return "LaurentPoly(" + " + ".join(parts) + ")"


@functools.lru_cache(maxsize=MEMO_SIZE)
def _expand(key: bytes) -> LaurentPoly:
    """lead * prod (z + c) for ``key``, the bytes of the complex array
    [lead, c_1, c_2, ...]: these bits are all the expansion reads.  It reads
    no settable tolerance (the pruning threshold EPS_DROP is fixed), so the
    memo needs nothing else in its key; a raising input is not stored.
    Without the memo the ``perfbench`` identities workload took about 1.13x
    as long on a 2-core VM."""
    lead, *factors = np.frombuffer(key, dtype=complex)
    arr = np.array([lead], dtype=complex)
    for c in factors:
        arr = np.convolve(arr, np.array([c, 1.0], dtype=complex))
    return LaurentPoly.from_array(0, arr)
