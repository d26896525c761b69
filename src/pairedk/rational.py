"""Rational functions on the unit circle in zero-pole-gain form.

A symbol is stored as  gain * z^zpow * prod (z - z_i)^{m_i} / prod (z - p_j)^{n_j}
with all listed zeros and poles nonzero (powers of z live in ``zpow``).  The
factored form is authoritative; coefficient caches, partial fractions, Fourier
coefficients and Riesz projections are derived from it.  Every value is
immutable after construction and every operation is a pure function.

Coefficient caches are ``LaurentPoly`` blocks, and only ``laurent`` knows
their layout: every sum over their coefficients runs in ascending exponent
order, however a caller listed them.

Zeros are derived lazily.  ``from_fraction`` keeps its deflated numerator
and a product keeps its two factors' zeros; the zeros are located (by
``poly_roots``) and merged on first read, with the same calls and the same
tolerances as at construction, so they come out as an eager computation
would give them.  Poles are always located.  Fourier windows and Riesz
projections never read zeros.

A zero cancels a pole by one rule, in ``_cancel_poles``, on every path
(``from_fraction``, products, and ``from_zpk`` through the product): first
the numerator's value at the pole must vanish relative to its Horner
magnitude, and then a zero of the numerator must be one root with the pole.
The Newton disc certifies that zero without locating any; where the disc is
too wide, zeros are located once per call.  Nothing cancels by distance
alone.  A sum tries only the poles both summands hold: a pole of one summand
keeps its principal part in the sum.

``roots.same_root`` (radius ``eps_cluster``) is the one test of root
identity: it clusters located roots, finds a zero beside a pole and matches a
reflected zero to a pole (``circle_modulus``).  After clustering, two root
entries name one root exactly when their values are equal, and every merge
of root lists is one pass over a multiset keyed by value.

Every Fourier window of num/den is num convolved with a window of the split
1/den = A/D_in + B/D_out, and only ``_Split.window`` knows how the split's
coefficient streams are indexed.  Every Riesz projection is one rule: the
denominator factor on its side, D_in for P- or D_out for P+, convolved with
one Fourier window gives the projection's numerator over that factor.

Denominator data depends on the poles alone and is memoized on exact bit
keys: ``LaurentPoly.from_roots`` on the bits of its lead and sorted roots,
the Bezout split of 1/den on the bits of the two denominator factors it
solves with, and each coefficient stream of a split is kept at the longest
order asked for and served as a prefix.  Each memo keeps the ``MEMO_SIZE``
(256) most recent entries; none reads a tolerance, so a memoized result is
the computed one bit for bit.

Where a mechanism says what removing it costs, the cost was measured on the
``perfbench`` workloads on a 2-core VM (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import tolerances as tol
from .errors import CertificateFailed, PoleOnCircle, ZeroDenominator
from .laurent import MAX_DEGREE, MEMO_SIZE, LaurentPoly
from .roots import LOC_IN, LOC_ON, LOC_OUT, Root, classify, poly_roots, same_root

_GOLDEN_FRAC = 0.3819660112501051


def probe_points(n: int = 16) -> List[complex]:
    """Deterministic probe points on the circle, offset off the usual suspects."""
    return [cmath.exp(2j * cmath.pi * (j + _GOLDEN_FRAC) / n) for j in range(n)]


class SpaceTag(enum.Enum):
    L2 = "L2"
    H2PLUS = "H2plus"
    H2MINUS = "H2minus"
    HINF = "Hinf"
    HINF_BAR = "HinfBar"
    INNER_PLUS = "InnerPlus"
    OUTER_PLUS = "OuterPlus"
    OUTER_MINUS = "OuterMinus"


def decay_window(elems: Sequence["RationalSymbol"], floor: int = 48, cap: int = 400) -> int:
    """Half-width w, between ``floor`` and ``cap``, with r^w below 1e-16 for
    the largest decay radius r of ``elems``.  This is not a bound on the
    coefficient tails beyond w: it ignores pole multiplicity (the tail of
    1/(z - 0.7)^3 at its w = 104 is 2.4e-13 relative to the largest
    coefficient), and the cap binds for r > 0.912.  ROADMAP item 10 asks for
    a certified tail bound in its place."""
    r = max((e.max_decay_radius() for e in elems), default=0.0)
    if r <= 0.0:
        return floor
    need = int(math.ceil(-16.0 * math.log(10.0) / math.log(r))) if r < 1 else cap
    return max(floor, min(cap, need))


def _sorted_roots(roots: Iterable[Root]) -> Tuple[Root, ...]:
    return tuple(sorted(roots, key=lambda r: (r.value.real, r.value.imag, r.mult)))


def _multiset(roots: Iterable[Root]) -> Dict[complex, Root]:
    """Root entries keyed by value, in order of first appearance: entries of
    equal value are one root, with the summed multiplicity and the first
    entry's loc."""
    out: Dict[complex, Root] = {}
    for r in roots:
        have = out.get(r.value)
        out[r.value] = r if have is None else Root(have.value, have.mult + r.mult, have.loc)
    return out


def _combine_repeats(roots: Iterable[Root]) -> Tuple[Root, ...]:
    """Merge root entries of equal value, sorted by value."""
    return _sorted_roots(_multiset(roots).values())


# Rounding of a Horner sum, per coefficient, relative to the sum of the
# moduli of its terms.
_ROUND = 16 * np.finfo(float).eps


def _near(zeros: Iterable[Root], pvals: Sequence[complex]) -> bool:
    """Whether a located zero is one root with a pole p (``same_root``)."""
    return any(same_root(z.value, p) for z in zeros for p in pvals)


def _newton_disc(coeffs: Sequence[complex], p: complex) -> bool:
    """Whether the polynomial q with ascending coefficients ``coeffs``
    provably has a zero within eps_cluster * max(1, |p|) of p, the radius
    of ``same_root``, without locating one.

    For the n zeros z_i of q, q'/q = sum 1/(p - z_i), so some zero lies
    within n |q(p) / q'(p)| of p.  One Horner pass computes q(p), q'(p) and
    the magnitudes sum |a_j| |p|^j and sum j |a_j| |p|^(j-1) that bound
    their rounding; the test allows for that rounding, and a NaN proves
    nothing."""
    n = len(coeffs) - 1
    ap = abs(p)
    q, dq, mag, dmag = 0j, 0j, 0.0, 0.0
    for c in reversed(coeffs):
        dq = dq * p + q
        dmag = dmag * ap + mag
        q = q * p + c
        mag = mag * ap + abs(c)
    slack = _ROUND * len(coeffs)
    return n > 0 and n * (abs(q) + slack * mag) <= tol.EPS_CLUSTER * max(1.0, ap) * (abs(dq) - slack * dmag)


class _LazyZeros:
    """Zeros not located yet: the roots of one numerator (``arr``, ascending
    coefficients, located under the tolerances ``tols`` in force when it was
    stored) or the merged zeros of a product's two factors (``parts``, each
    a tuple of roots or another _LazyZeros).  ``resolve`` locates them once;
    the result is what the eager computation gives.  Plain slots, so it
    pickles.  Most symbols built in a Riesz projection or a sum are never
    asked for their zeros: eager location, even memoized on the numerator's
    bytes, made the identities workload about 1.44x as long."""

    __slots__ = ("arr", "tols", "parts", "roots")

    def __init__(self, arr: Optional[np.ndarray] = None, parts: Optional[tuple] = None):
        self.arr = arr
        self.tols = (tol.EPS_CIRCLE, tol.EPS_CLUSTER) if parts is None else None
        self.parts = parts
        self.roots: Optional[Tuple[Root, ...]] = None

    def resolve(self) -> Tuple[Root, ...]:
        if self.roots is None:
            if self.parts is None:
                eps_circle, eps_cluster = self.tols
                with tol.configured(eps_circle=eps_circle, eps_cluster=eps_cluster):
                    found = poly_roots(LaurentPoly.from_array(0, self.arr)).roots if len(self.arr) > 1 else ()
                self.arr = None
            else:
                a, b = (z.resolve() if isinstance(z, _LazyZeros) else z for z in self.parts)
                found = _combine_repeats(a + b)
            self.roots = _sorted_roots(found)
        return self.roots


def _product_zeros(a, b):
    """Zeros of a product whose factors have zeros a and b (tuples of roots
    or _LazyZeros), merged as ``_combine_repeats`` merges them."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return _combine_repeats(a + b)
    return _LazyZeros(parts=(a, b))


class RationalSymbol:
    __slots__ = ("gain", "zpow", "_zeros", "poles", "_num", "_den", "_invden")

    def __init__(self, gain: complex, zpow: int, zeros, poles: Iterable[Root]):
        gain = complex(gain)
        if not (math.isfinite(gain.real) and math.isfinite(gain.imag)):
            raise ValueError("non-finite gain")
        if gain == 0:
            self.gain = 0.0 + 0.0j
            self.zpow = 0
            self._zeros = ()
            self.poles = ()
        else:
            self.gain = gain
            self.zpow = int(zpow)
            self._zeros = zeros if isinstance(zeros, _LazyZeros) else _sorted_roots(zeros)
            self.poles = _sorted_roots(poles)
        self._num = None
        self._den = None
        self._invden = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "RationalSymbol":
        return cls(0.0, 0, (), ())

    @classmethod
    def const(cls, c: complex) -> "RationalSymbol":
        return cls(c, 0, (), ())

    @classmethod
    def monomial(cls, k: int, c: complex = 1.0) -> "RationalSymbol":
        return cls(c, k, (), ())

    @classmethod
    def from_coeffs(cls, coeffs: Dict[int, complex]) -> "RationalSymbol":
        return cls.from_fraction(LaurentPoly(coeffs), LaurentPoly.one())

    @classmethod
    def from_zpk(cls, gain: complex, zpow: int, zeros: Iterable[Root], poles: Iterable[Root]) -> "RationalSymbol":
        """Repeated entries merge; a zero beside a pole is left to the
        cancellation rule of the product, as for any other product."""
        zs, ps = _combine_repeats(zeros), _combine_repeats(poles)
        for r in zs + ps:
            if r.value == 0:
                raise ValueError("zeros/poles at the origin belong in zpow")
        if _near(zs, [p.value for p in ps]):
            return cls(gain, zpow, zs, ()) * cls(1.0, 0, (), ps)
        return cls(gain, zpow, zs, ps)

    @classmethod
    def from_fraction(
        cls,
        num: LaurentPoly,
        den: LaurentPoly,
        den_roots: Optional[Sequence[Root]] = None,
    ) -> "RationalSymbol":
        """Normalize num/den: cancel common roots, factor, classify locations."""
        if den.is_zero:
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero:
            return cls.zero()
        return cls._reduce(num, den, poly_roots(den).roots if den_roots is None else den_roots)

    @classmethod
    def _reduce(
        cls, num: LaurentPoly, den: LaurentPoly, tested: Sequence[Root], held: Sequence[Root] = ()
    ) -> "RationalSymbol":
        """num/den, both nonzero, where den has the roots ``tested`` and
        ``held``: the cancellation rule tries the roots in ``tested`` only."""
        n_lo, n_arr = num.to_array()
        d_lo, d_arr = den.to_array()
        d_lead = d_arr[-1]
        p_arr, q_arr, kept_poles, cancelled = _cancel_poles(n_arr, d_arr, tested)
        # deflation keeps the top of num; its bottom may come out as exactly 0,
        # a factor z that belongs in zpow.  Gain, zeros and the cached num all
        # read this one trimmed array, so they cannot disagree
        low = int(np.flatnonzero(p_arr)[0])
        p_arr = p_arr[low:]
        zpow = n_lo - d_lo + low
        zeros = _LazyZeros(p_arr)
        if len(p_arr) - 1 > MAX_DEGREE or not np.isfinite(p_arr).all():
            zeros.resolve()  # raises now, where an eager location would
        gain = p_arr[-1] / d_lead
        sym = cls(gain, zpow, zeros, kept_poles + list(held))
        # exact coefficient caches from the caller's data, deflation included;
        # where nothing cancelled and den is monic from z^0 they are num and
        # den themselves
        if not cancelled and d_lead == 1 and d_lo == 0:
            sym._num, sym._den = num, den
        else:
            sym._num = LaurentPoly.from_array(zpow, p_arr / d_lead)
            sym._den = LaurentPoly.from_array(0, q_arr / d_lead)
        return sym

    # ------------------------------------------------------------------
    # derived coefficient forms

    @property
    def zeros(self) -> Tuple[Root, ...]:
        """Zeros, sorted; located on first read where construction left them lazy."""
        if isinstance(self._zeros, _LazyZeros):
            self._zeros = self._zeros.resolve()
        return self._zeros

    @property
    def num(self) -> LaurentPoly:
        """gain * z^zpow * prod (z - z_i)^{m_i} as a Laurent polynomial."""
        if self._num is None:
            if self.is_zero:
                self._num = LaurentPoly.zero()
            else:
                vals: List[complex] = []
                for r in self.zeros:
                    vals.extend([r.value] * r.mult)
                self._num = LaurentPoly.from_roots(vals, self.gain).shift(self.zpow)
        return self._num

    @property
    def den(self) -> LaurentPoly:
        """Monic denominator prod (z - p_j)^{n_j}.  Its constant term is 0
        only where it underflowed: a pole within rounding of 0."""
        if self._den is None:
            vals: List[complex] = []
            for r in self.poles:
                vals.extend([r.value] * r.mult)
            self._den = LaurentPoly.from_roots(vals, 1.0)
        return self._den

    # ------------------------------------------------------------------
    # structure queries

    @property
    def is_zero(self) -> bool:
        return self.gain == 0

    @property
    def delta_infinity(self) -> int:
        """Growth order at infinity: f ~ z^delta."""
        return self.zpow + sum(r.mult for r in self.zeros) - sum(r.mult for r in self.poles)

    def poles_at(self, loc: str) -> int:
        return sum(r.mult for r in self.poles if r.loc == loc)

    def zeros_at(self, loc: str) -> int:
        return sum(r.mult for r in self.zeros if r.loc == loc)

    @property
    def has_circle_pole(self) -> bool:
        return self.poles_at(LOC_ON) > 0

    @property
    def has_circle_zero(self) -> bool:
        return self.zeros_at(LOC_ON) > 0

    def circle_zeros(self) -> List[Root]:
        return [r for r in self.zeros if r.loc == LOC_ON]

    def max_decay_radius(self) -> float:
        """max(|p| inside, 1/|p| outside) over poles; controls Fourier tails."""
        r = 0.0
        for p in self.poles:
            a = abs(p.value)
            r = max(r, a if a < 1 else 1.0 / a)
        return r

    # ------------------------------------------------------------------
    # arithmetic

    def __mul__(self, other) -> "RationalSymbol":
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return RationalSymbol.zero()
            out = RationalSymbol(self.gain * other, self.zpow, self._zeros, self.poles)
            if self._num is not None:
                out._num = self._num.scale(other)
            out._den = self._den
            return out
        if self.is_zero or other.is_zero:
            return RationalSymbol.zero()
        poles = list(self.poles) + list(other.poles)
        num_prod = self.num * other.num
        den_prod = self.den * other.den
        lo, arr = num_prod.to_array()
        _, d_arr = den_prod.to_array(0)
        arr, d_arr, poles, cancelled = _cancel_poles(arr, d_arr, poles, lambda: self.zeros + other.zeros)
        if cancelled:
            num_prod = LaurentPoly.from_array(lo, arr)
            den_prod = LaurentPoly.from_array(0, d_arr)
            # each zero loses one unit per cancelled pole beside it, up to its
            # multiplicity; a cancelled pole is matched to one zero only
            kept_zeros: List[Root] = []
            remaining = cancelled
            for z in self.zeros + other.zeros:
                hits = [i for i, v in enumerate(remaining) if same_root(z.value, v)][: z.mult]
                remaining = [v for i, v in enumerate(remaining) if i not in hits]
                if z.mult > len(hits):
                    kept_zeros.append(Root(z.value, z.mult - len(hits), z.loc))
            zs = _combine_repeats(kept_zeros)
        else:
            zs = _product_zeros(self._zeros, other._zeros)
        ps = _combine_repeats(poles)
        out = RationalSymbol(self.gain * other.gain, self.zpow + other.zpow, zs, ps)
        out._num = num_prod
        out._den = den_prod
        return out

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSymbol":
        if self.is_zero:
            raise ZeroDenominator("reciprocal of the zero function")
        out = RationalSymbol(1.0 / self.gain, -self.zpow, self.poles, self.zeros)
        out._num = self.den.scale(1.0 / self.gain).shift(-self.zpow)
        out._den = self.num.shift(-self.zpow).scale(1.0 / self.gain)
        return out

    def __truediv__(self, other) -> "RationalSymbol":
        if isinstance(other, (int, float, complex)):
            if other == 0:
                raise ZeroDenominator("division by zero")
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __neg__(self) -> "RationalSymbol":
        return self * (-1.0)

    def __add__(self, other) -> "RationalSymbol":
        if isinstance(other, (int, float, complex)):
            other = RationalSymbol.const(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # the multiset union: each pole at the larger of its two multiplicities
        mine, theirs = _multiset(self.poles), _multiset(other.poles)
        union = dict(mine)
        for v, r in theirs.items():
            u = union.setdefault(v, r)
            if u.mult < r.mult:
                union[v] = Root(u.value, r.mult, u.loc)
        a, b = (_over_union(s.num, have, union) for s, have in ((self, mine), (other, theirs)))
        num = a + b
        if num.is_zero or num.norm_inf() <= tol.EPS_EQ * (a.norm_inf() + b.norm_inf()):
            return RationalSymbol.zero()
        den = LaurentPoly.from_roots([v for r in union.values() for v in [r.value] * r.mult])
        # a pole of one summand keeps its principal part in the sum
        both = mine.keys() & theirs.keys()
        shared = [r for v, r in union.items() if v in both]
        held = [r for v, r in union.items() if v not in both]
        return RationalSymbol._reduce(num, den, shared, held)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalSymbol":
        if isinstance(other, (int, float, complex)):
            other = RationalSymbol.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "RationalSymbol":
        return (-self) + other

    def conj_circle(self) -> "RationalSymbol":
        """The function z -> conj(f(z)) on |z| = 1, again rational."""
        if self.is_zero:
            return self
        den = self.den
        d0 = den.coeff(0)
        if d0 == 0:
            # the constant term the reflection is normalised by, the product
            # of the poles, underflowed to 0
            raise ZeroDenominator("a pole within rounding of 0 leaves no constant term to reflect by")
        gain = self.gain.conjugate()
        zpow = -self.zpow
        flip = {LOC_IN: LOC_OUT, LOC_OUT: LOC_IN, LOC_ON: LOC_ON}
        zeros = []
        for r in self.zeros:
            v = r.value.conjugate()
            gain *= (-v) ** r.mult
            zpow -= r.mult
            zeros.append(Root(1.0 / v, r.mult, flip[r.loc]))
        poles = []
        for r in self.poles:
            v = r.value.conjugate()
            gain /= (-v) ** r.mult
            zpow += r.mult
            poles.append(Root(1.0 / v, r.mult, flip[r.loc]))
        out = RationalSymbol(gain, zpow, zeros, poles)
        # exact caches: conj-reflect and re-normalize against the den constant
        deg = den.degree_span()
        out._num = self.num.conj_reflect().shift(deg).scale(1.0 / d0.conjugate())
        out._den = den.conj_reflect().shift(deg).scale(1.0 / d0.conjugate())
        return out

    def derivative(self) -> "RationalSymbol":
        """d/dz, via the logarithmic derivative of the factored form."""
        if self.is_zero:
            return self
        logd = RationalSymbol.zero()
        if self.zpow:
            logd = logd + RationalSymbol(self.zpow, -1, (), ())
        for r in self.zeros:
            logd = logd + RationalSymbol(r.mult, 0, (), (Root(r.value, 1, r.loc),))
        for r in self.poles:
            logd = logd + RationalSymbol(-r.mult, 0, (), (Root(r.value, 1, r.loc),))
        return self * logd

    # ------------------------------------------------------------------
    # evaluation and equality

    def eval(self, z: complex) -> complex:
        # coefficient caches are exact where present; expansion from separated
        # roots is the fallback (clustered numerical roots never feed eval)
        if self.is_zero:
            return 0.0 + 0.0j
        return self.num.eval(z) / self.den.eval(z)

    def equals(self, other) -> bool:
        """Exact equality as rational functions: the cross-multiplied
        coefficient residual is at most EPS_EQ of the products' scale."""
        if isinstance(other, (int, float, complex)):
            other = RationalSymbol.const(other)
        if self.is_zero and other.is_zero:
            return True
        a = self.num * other.den
        b = other.num * self.den
        scale = a.norm_inf() + b.norm_inf()
        if scale == 0.0:
            return True
        return (a - b).norm_inf() / scale <= tol.EPS_EQ

    # ------------------------------------------------------------------
    # Fourier data
    #
    # Coefficient extraction rests on the two-sided split of the inverse
    # denominator: 1/den = A/D_in + B/D_out with D_in the inside factor and
    # D_out the outside factor.  A and B come from a Bezout (Sylvester)
    # solve whose conditioning is set by the separation of the two root
    # GROUPS across the circle, never by distances within a group.  The
    # coefficient streams of A/D_in (negative indices) and B/D_out
    # (nonnegative indices) follow from series-division recurrences that are
    # stable precisely because of where the roots live.  ``_Split.window``
    # reads them on an index range, and ``fourier_range`` convolves the
    # exact numerator with that window.  A Riesz projection needs no more:
    # D_in * P- f and D_out * P+ f are Laurent polynomials of known support,
    # so each is one window of f's coefficients convolved with D_in or D_out.

    def _invden_split(self) -> "_Split":
        """The split of 1/den, shared with every symbol of the same poles."""
        if self._invden is None:
            in_vals: List[complex] = []
            out_vals: List[complex] = []
            for r in self.poles:
                (in_vals if r.loc == LOC_IN else out_vals).extend([r.value] * r.mult)
            d_in, d_out = (LaurentPoly.from_roots(vals).to_array(0)[1].tobytes() for vals in (in_vals, out_vals))
            self._invden = _split(len(in_vals), d_in, len(out_vals), d_out)
        return self._invden

    def fourier_range(self, lo: int, hi: int) -> np.ndarray:
        """Fourier coefficients hat f(k) for k in [lo, hi].

        Each coefficient depends only on its index k, never on the window's
        ends: the window of any wider range, sliced to [lo, hi], equals this
        one byte for byte.  ``operators`` reads its truncation blocks from
        one window on that basis."""
        if self.has_circle_pole:
            raise PoleOnCircle("Fourier coefficients need a pole-free circle")
        num = self.num
        out = np.zeros(hi - lo + 1, dtype=complex)
        if self.is_zero or not self.poles:
            for k, v in num.items():
                if lo <= k <= hi:
                    out[k - lo] += v
            return out
        w = self._invden_split().window(lo - num.hi, hi - num.lo)
        for t, v in num.items():
            # out(k) += v * w(k - t) for k in [lo, hi]
            start = num.hi - t
            out += v * w[start : start + len(out)]
        return out

    def fourier(self, k: int) -> complex:
        return complex(self.fourier_range(k, k)[0])

    def riesz(self, side: str) -> "RationalSymbol":
        """Riesz projection: 'plus' keeps indices >= 0, 'minus' the rest."""
        if side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")
        if self.is_zero:
            return self
        if self.has_circle_pole:
            raise PoleOnCircle("Riesz projection needs a pole-free circle")
        return self._assemble(side)

    def _assemble(self, side: str) -> "RationalSymbol":
        """One Riesz projection: its denominator factor convolved with one
        Fourier window of f, over that factor.

        P- f has the inside poles only and vanishes at infinity, so
        Q = D_in * P- f is a Laurent polynomial on [L, n_in) with
        L = min(num.lo, 0); P+ f has the outside poles only and grows at
        most like z^(H - n_out), so R = D_out * P+ f is a polynomial on
        [0, H] with H = max(num.hi - n_in, n_out - 1).  Each coefficient of
        Q or R is D's row against hat f on the projection's own indices:
            Q = (D_in conv hat f[L - n_in .. -1])[n_in:],
            R = (D_out conv hat f[0 .. H])[:H + 1],
        with D_in and D_out served by the split and their roots located
        already.  P+ f is f itself, and P- f zero, where f has no inside
        pole and num.lo >= 0; P+ f is zero where H < 0 or R is at most
        EPS_EQ of f's numerator."""
        minus = side == "minus"
        num = self.num
        n_in = self.poles_at(LOC_IN)
        if not n_in and num.lo >= 0:
            return RationalSymbol.zero() if minus else self
        kept = [r for r in self.poles if (r.loc == LOC_IN) == minus]
        split = self._invden_split()
        den, d = (split.den_in, split.d_in) if minus else (split.den_out, split.d_out)
        n = len(d) - 1
        if minus:
            lo = min(num.lo, 0)
            top = np.convolve(d, self.fourier_range(lo - n, -1))[n:]
        else:
            lo, hi = 0, max(num.hi - n_in, n - 1)
            if hi < 0:
                return RationalSymbol.zero()
            top = np.convolve(d, self.fourier_range(0, hi))[: hi + 1]
        top = LaurentPoly.from_array(lo, top)
        if not minus and top.norm_inf() <= tol.EPS_EQ * num.norm_inf():
            return RationalSymbol.zero()
        return RationalSymbol.from_fraction(top, den, den_roots=kept)

    # ------------------------------------------------------------------
    # membership

    def membership(self, tag: SpaceTag) -> bool:
        if tag == SpaceTag.L2:
            return not self.has_circle_pole
        if tag in (SpaceTag.H2PLUS, SpaceTag.HINF):
            return (not self.has_circle_pole) and self.poles_at(LOC_IN) == 0 and self.zpow >= 0
        if tag == SpaceTag.H2MINUS:
            return (
                (not self.has_circle_pole)
                and self.poles_at(LOC_OUT) == 0
                and (self.is_zero or self.delta_infinity < 0)
            )
        if tag == SpaceTag.HINF_BAR:
            return (
                (not self.has_circle_pole)
                and self.poles_at(LOC_OUT) == 0
                and (self.is_zero or self.delta_infinity <= 0)
            )
        if tag == SpaceTag.INNER_PLUS:
            reflected = self.circle_modulus() if self.membership(SpaceTag.HINF) else None
            if reflected is None or any(r.loc != LOC_IN for r in self.zeros):
                return False
            modulus, spread = reflected
            return abs(modulus - 1.0) + modulus * spread <= tol.EPS_CIRCLE
        if tag == SpaceTag.OUTER_PLUS:
            return (
                (not self.is_zero)
                and self.membership(SpaceTag.H2PLUS)
                and self.zeros_at(LOC_IN) == 0
                and self.zpow == 0
            )
        if tag == SpaceTag.OUTER_MINUS:
            # conj(f) / z is outer plus: its zeros are f's reflected, and
            # its power of z is -delta_infinity - 1
            return (
                (not self.is_zero)
                and self.membership(SpaceTag.H2MINUS)
                and self.zeros_at(LOC_OUT) == 0
                and self.delta_infinity == -1
            )
        raise ValueError(f"unknown space tag {tag}")

    def circle_modulus(self) -> Optional[Tuple[float, float]]:
        """(c, e) with | |f| - c | <= c e on the circle, where every zero a_i,
        reflected to w_i = 1/conj(a_i), is one pole p_i of its multiplicity
        m_i under ``same_root`` and no pole is left over: c = |gain| prod
        |a_i|^{m_i}, as |z - a| = |a| |z - w| for |z| = 1, and |z - w_i| /
        |z - p_i| is within d_i = |p_i - w_i| / ||p_i| - 1| of 1, so
        e = prod (1 + d_i)^{m_i} - 1.  Else None, also for f = 0 and for a
        pole on the circle."""
        if self.is_zero or self.has_circle_pole:
            return None
        poles = list(self.poles)
        spread = 1.0
        for z in self.zeros:
            w = 1.0 / z.value.conjugate()
            mirror = next((p for p in poles if p.mult == z.mult and same_root(w, p.value)), None)
            if mirror is None:
                return None
            poles.remove(mirror)
            spread *= (1.0 + abs(mirror.value - w) / abs(abs(mirror.value) - 1.0)) ** z.mult
        if poles:
            return None
        return abs(self.gain) * math.prod(abs(z.value) ** z.mult for z in self.zeros), spread - 1.0

    # ------------------------------------------------------------------
    # circle norms

    def sup_circle(self, n: int = 8192) -> float:
        """sup |f| on the circle, grid search plus Newton refinement."""
        if self.is_zero:
            return 0.0
        if self.has_circle_pole:
            raise PoleOnCircle("unbounded on the circle")
        mod2 = self * self.conj_circle()  # real and nonnegative on |z|=1
        thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        vals = mod2.eval(np.exp(1j * thetas)).real
        i0 = int(np.argmax(vals))
        theta = float(thetas[i0])
        d1 = mod2.derivative()
        d2 = d1.derivative()
        for _ in range(4):
            z = cmath.exp(1j * theta)
            u1 = (1j * z * d1.eval(z)).real
            u2 = (-(z * z) * d2.eval(z) - z * d1.eval(z)).real
            if u2 >= 0 or not math.isfinite(u1) or not math.isfinite(u2):
                break
            step = u1 / u2
            if abs(step) > 2.0 * math.pi / n:
                break
            theta -= step
        best = max(float(np.max(vals)), mod2.eval(cmath.exp(1j * theta)).real)
        return math.sqrt(max(best, 0.0))

    # ------------------------------------------------------------------
    # serialization

    def to_json(self):
        if self.is_zero:
            return {"coeffs": {}}
        if not self.poles:
            return {"coeffs": {str(k): [float(v.real), float(v.imag)] for k, v in self.num.items()}}
        return {
            "gain": [float(self.gain.real), float(self.gain.imag)],
            "zpow": self.zpow,
            "zeros": [
                {"z": [float(r.value.real), float(r.value.imag)], "m": r.mult, "loc": r.loc}
                for r in self.zeros
            ],
            "poles": [
                {"z": [float(r.value.real), float(r.value.imag)], "m": r.mult, "loc": r.loc}
                for r in self.poles
            ],
        }

    @classmethod
    def from_json(cls, data) -> "RationalSymbol":
        if "coeffs" in data:
            coeffs = {int(k): complex(v[0], v[1]) for k, v in data["coeffs"].items()}
            return cls.from_coeffs(coeffs)
        gain = complex(data["gain"][0], data["gain"][1])
        zpow = int(data.get("zpow", 0))

        def load(entries):
            out = []
            for e in entries:
                v = complex(e["z"][0], e["z"][1])
                loc, m = classify(v), int(e.get("m", 1))
                if e.get("loc", loc) != loc:
                    raise ValueError(f"location tag {e['loc']!r} contradicts |z| = {abs(v)!r}")
                if m < 1:
                    raise ValueError(f"multiplicity {m} is below 1")
                out.append(Root(v, m, loc))
            return out

        return cls.from_zpk(gain, zpow, load(data.get("zeros", [])), load(data.get("poles", [])))

    def __repr__(self) -> str:
        if self.is_zero:
            return "RationalSymbol(0)"
        zs = ", ".join(f"{r.value:.4g}^{r.mult}{r.loc[0]}" for r in self.zeros)
        ps = ", ".join(f"{r.value:.4g}^{r.mult}{r.loc[0]}" for r in self.poles)
        return f"RationalSymbol(gain={self.gain:.4g}, z^{self.zpow}, zeros=[{zs}], poles=[{ps}])"


def _over_union(num: LaurentPoly, have: Dict[complex, Root], union: Dict[complex, Root]) -> LaurentPoly:
    """The numerator num over the poles ``have``, brought over the common
    denominator of the multiset ``union``, which contains ``have``."""
    missing = [v for v, u in union.items() for _ in range(u.mult - (have[v].mult if v in have else 0))]
    return num * LaurentPoly.from_roots(missing) if missing else num


class _Split:
    """The split 1/den = A/D_in + B/D_out of one pole set (ascending arrays,
    read-only), with the longest coefficient stream of each side computed so
    far.  ``_series_div`` computes each coefficient from num, den and the
    coefficients before it, so a stream is a bit-exact prefix of any longer
    stream of the same quotient: a stream only grows, and a shorter one is
    served as a slice.  Both pay: recomputing every stream made the
    identities and truncations workloads about 1.09x as long, and computing
    a longer stream afresh instead of continuing the kept one cost the
    truncations workload 7 % of its operations per second.  ``window``
    reads both sides on an index range, for ``fourier_range``, and is the
    only reader of a stream's layout.  ``den_in`` and ``den_out`` are D_in
    and D_out as Laurent polynomials, for the Riesz projections: bit for bit
    what ``LaurentPoly.from_roots`` gives for each side's poles.  One
    instance serves every symbol with these poles.  Plain slots, so it
    pickles."""

    __slots__ = ("a", "d_in", "b", "d_out", "den_in", "den_out", "_streams")

    def __init__(self, a: np.ndarray, d_in: np.ndarray, b: np.ndarray, d_out: np.ndarray):
        for arr in (a, d_in, b, d_out):
            arr.flags.writeable = False
        self.a, self.d_in, self.b, self.d_out = a, d_in, b, d_out
        self.den_in, self.den_out = LaurentPoly.from_array(0, d_in), LaurentPoly.from_array(0, d_out)
        self._streams = {LOC_IN: self.a[:0], LOC_OUT: self.b[:0]}

    def stream(self, side: str, order: int) -> np.ndarray:
        """The first ``order`` Taylor coefficients of rev(A)/rev(D_in) (side
        LOC_IN) or of B/D_out (side LOC_OUT), read-only.  Threads racing to
        extend a stream can only lose the longer one, never serve a wrong
        one."""
        have = self._streams[side]
        if len(have) < order:
            if side == LOC_IN:
                have = _series_div(self.a[::-1], self.d_in[::-1], order, have)
            else:
                have = _series_div(self.b, self.d_out, order, have)
            have.flags.writeable = False
            self._streams[side] = have
        return have[:order]

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients on [lo, hi] of 1/den = A/D_in + B/D_out.  A/D_in is
        supported on k <= -1: at z = 1/w it is w * rev(A)(w)/rev(D_in)(w),
        so its coefficient at k is the inside stream's at -k-1.  B/D_out is
        supported on k >= 0 and is its own Taylor series, read at k."""
        out = np.zeros(hi - lo + 1, dtype=complex)
        top = min(hi, -1)
        if top >= lo and len(self.a):
            out[: top - lo + 1] = self.stream(LOC_IN, -lo)[-top - 1 :][::-1]
        start = max(lo, 0)
        if start <= hi and len(self.b):
            out[start - lo :] = self.stream(LOC_OUT, hi + 1)[start:]
        return out


@functools.lru_cache(maxsize=MEMO_SIZE)
def _split(n_in: int, d_in_key: bytes, n_out: int, d_out_key: bytes) -> _Split:
    """The split of 1/(D_in D_out) for the monic D_in and D_out of degrees
    n_in and n_out whose ascending coefficient arrays from z^0 have the
    bytes d_in_key and d_out_key.  These are all the Bezout solve reads, and it
    reads no tolerance, so one pole set's split is solved once while it
    stays among the MEMO_SIZE most recent; a raising solve is not stored.
    Without the memo the identities workload took about 1.18x as long.
    A symbol without poles splits as B = 1 over D_out = 1."""
    d_in, d_out = (np.frombuffer(key, dtype=complex) for key in (d_in_key, d_out_key))
    if n_in == 0:
        a_arr = np.zeros(0, dtype=complex)
        b_arr = np.zeros(max(n_out, 1), dtype=complex)
        b_arr[0] = 1.0
    elif n_out == 0:
        a_arr = np.zeros(n_in, dtype=complex)
        a_arr[0] = 1.0
        b_arr = np.zeros(0, dtype=complex)
    else:
        # solve A*D_out + B*D_in = 1 with deg A < n_in, deg B < n_out
        size = n_in + n_out
        M = np.zeros((size, size), dtype=complex)
        for j in range(n_in):  # columns for A coefficients
            M[j : j + n_out + 1, j] = d_out
        for j in range(n_out):  # columns for B coefficients
            M[j : j + n_in + 1, n_in + j] = d_in
        rhs = np.zeros(size, dtype=complex)
        rhs[0] = 1.0
        sol = np.linalg.solve(M, rhs)
        a_arr = sol[:n_in]
        b_arr = sol[n_in:]
    return _Split(a_arr, d_in, b_arr, d_out)


def _cancel_poles(num_arr: np.ndarray, den_arr: np.ndarray, poles: Iterable[Root], zeros=None):
    """Deflate each pole out of numerator and denominator (ascending arrays)
    as often as the one cancellation rule allows, in this order:

    - the value test: the numerator vanishes at the pole, relative to its
      Horner magnitude;
    - then a zero beside the pole: ``_newton_disc`` certifies one, or else
      a located zero is one root with it under ``same_root``, within
      eps_cluster * max(1, |p|).

    ``zeros()`` gives the located zeros of the given num_arr (by default
    its ``poly_roots``); it is called at most once, and only for a pole
    that passes the value test and that the Newton disc cannot decide.

    Returns (numerator, denominator, kept poles, cancelled pole values)."""
    kept: List[Root] = []
    cancelled: List[complex] = []
    given, located = num_arr, None
    coeffs = num_arr.tolist()  # Python scalars: the same bits, fewer conversions
    for r in poles:
        mult = r.mult
        while mult > 0 and len(coeffs) > 1:
            val, mag = _horner_asc(coeffs, r.value)
            if mag == 0.0 or abs(val) > tol.EPS_EQ * mag:
                break
            if not _newton_disc(coeffs, r.value):
                if located is None:
                    located = zeros() if zeros else poly_roots(LaurentPoly.from_array(0, given)).roots
                if not _near(located, (r.value,)):
                    break
            num_arr = _deflate_root(num_arr, r.value)
            coeffs = num_arr.tolist()
            cancelled.append(r.value)
            mult -= 1
        if mult > 0:
            kept.append(Root(r.value, mult, r.loc))
    for v in cancelled:
        den_arr = _deflate_root(den_arr, v)
    return num_arr, den_arr, kept, cancelled


def _horner_asc(arr: Sequence[complex], v: complex) -> Tuple[complex, float]:
    """The value at v and the Horner magnitude sum |c_k| |v|^k, the natural
    scale for value tests, in one pass."""
    out, mag, av = 0.0 + 0.0j, 0.0, abs(v)
    for c in arr[::-1]:
        out = out * v + c
        mag = mag * av + abs(c)
    return out, mag


def _deflate_root(coeffs_asc: np.ndarray, v: complex) -> np.ndarray:
    """Divide by (z - v) assuming v is a root.

    Forward synthetic division is stable for |v| <= 1; for larger roots the
    recursion must run from the constant term upward (dividing by v damps
    the rounding instead of amplifying it)."""
    n = len(coeffs_asc)
    if n <= 1:
        return np.zeros(0, dtype=complex)
    q = np.zeros(n - 1, dtype=complex)
    if abs(v) <= 1.0:
        acc = coeffs_asc[-1]
        for j in range(n - 2, -1, -1):
            q[j] = acc
            acc = coeffs_asc[j] + acc * v
        return q
    acc = -coeffs_asc[0] / v
    q[0] = acc
    for j in range(1, n - 2):
        acc = (acc - coeffs_asc[j]) / v
        q[j] = acc
    # exact: division by a monic factor keeps the top coefficient, which the
    # recursion would form as a difference
    q[-1] = coeffs_asc[-1]
    return q


def _series_div(num: np.ndarray, den: np.ndarray, order: int, head: np.ndarray = ()) -> np.ndarray:
    """Power-series quotient num/den to the given order (den[0] != 0),
    continuing ``head``, the same quotient to a lower order."""
    out = np.zeros(order, dtype=complex)
    out[: len(head)] = head
    d0 = den[0]
    for i in range(len(head), order):
        acc = num[i] if i < len(num) else 0.0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out[i] = acc / d0
    return out


def rf_normalize(num: LaurentPoly, den: LaurentPoly) -> RationalSymbol:
    """Public normalizer: cancel, factor, and certify by probe evaluation."""
    sym = RationalSymbol.from_fraction(num, den)
    checked = 0
    for t in probe_points(16):
        dv = den.eval(t)
        if abs(dv) < tol.PROBE_DEN_MIN * max(den.norm_inf(), 1e-300):
            continue
        want = num.eval(t) / dv
        got = sym.eval(t)
        scale = max(abs(want), abs(got), 1.0)
        if abs(want - got) > tol.PROBE_DRIFT * scale:
            raise CertificateFailed(
                f"normalization drifted at probe {t:.4f}: {want} vs {got}"
            )
        checked += 1
    if checked < 4:
        raise CertificateFailed("too few usable probe points (denominator vanishes)")
    return sym


def inner_product(f: RationalSymbol, g: RationalSymbol) -> complex:
    """L2 inner product <f, g> as the 0th Fourier coefficient of f * conj(g)."""
    prod = f * g.conj_circle()
    if prod.is_zero:
        return 0.0 + 0.0j
    return prod.fourier(0)
