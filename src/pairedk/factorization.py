"""Inner-outer and Wiener-Hopf factorization of rational circle functions.

Conventions: an inner function is a finite Blaschke product times a power of
z (rational data admits no singular inner factor).  On the minus side we call
O_- outer when z^(-1) * conj(O_-) is outer on the plus side; the minus-side
factorization is obtained by reflecting through z -> 1/conj(z).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateFailed, NotInHardySpace, ZeroFunction, ZeroOrPoleOnCircle
from .rational import RationalSymbol, SpaceTag
from .roots import LOC_IN, LOC_OUT, Root


@dataclass(frozen=True)
class InnerOuterPair:
    inner: RationalSymbol
    outer: RationalSymbol
    side: str  # "plus" | "minus"

    def product(self) -> RationalSymbol:
        return self.inner * self.outer


@dataclass(frozen=True)
class WHFactorization:
    """g = g_minus * z^kappa * g_plus with g_plus^{+-1} analytic inside and
    g_minus^{+-1} analytic outside the closed disc."""

    g_minus: RationalSymbol
    kappa: int
    g_plus: RationalSymbol

    def product(self) -> RationalSymbol:
        return self.g_minus * RationalSymbol.monomial(self.kappa) * self.g_plus

    def to_json(self):
        return {
            "g_minus": self.g_minus.to_json(),
            "kappa": self.kappa,
            "g_plus": self.g_plus.to_json(),
        }


def blaschke(a: complex, mult: int = 1) -> RationalSymbol:
    """Normalized Blaschke factor with zero a (0 < |a| < 1), positive at 0.

    b_a(z) = (1/|a|) (z - a) / (z - 1/conj(a)); then |b_a| = 1 on the circle
    and b_a(0) = |a| > 0.
    """
    if not 0 < abs(a) < 1:
        raise ValueError("Blaschke zero must lie strictly inside the punctured disc")
    refl = 1.0 / a.conjugate()
    gain = (1.0 / abs(a)) ** mult
    return RationalSymbol(
        gain,
        0,
        (Root(a, mult, LOC_IN),),
        (Root(refl, mult, LOC_OUT),),
    )


def winding_index(g: RationalSymbol) -> int:
    """Winding number of g around 0: zeros minus poles inside, plus z-power."""
    if g.is_zero:
        raise ZeroFunction("winding index of the zero function")
    if g.has_circle_pole or g.has_circle_zero:
        raise ZeroOrPoleOnCircle("winding index needs a zero/pole-free circle")
    return g.zpow + g.zeros_at(LOC_IN) - g.poles_at(LOC_IN)


def wiener_hopf(g: RationalSymbol) -> WHFactorization:
    """Factor g = g_minus z^kappa g_plus by allocating roots by location.

    Each zero/pole alpha inside the circle contributes a (1 - alpha/z)^{+-1}
    factor to g_minus and one power of z to kappa; outside roots contribute
    (z - alpha)^{+-1} factors to g_plus, which also absorbs the gain.
    """
    if g.is_zero:
        raise ZeroFunction("cannot factor the zero function")
    if g.has_circle_pole or g.has_circle_zero:
        raise ZeroOrPoleOnCircle("Wiener-Hopf factorization needs a regular circle")
    in_zeros = [r for r in g.zeros if r.loc == LOC_IN]
    out_zeros = [r for r in g.zeros if r.loc == LOC_OUT]
    in_poles = [r for r in g.poles if r.loc == LOC_IN]
    out_poles = [r for r in g.poles if r.loc == LOC_OUT]
    a_count = sum(r.mult for r in in_zeros)
    b_count = sum(r.mult for r in in_poles)
    kappa = g.zpow + a_count - b_count
    g_minus = RationalSymbol(1.0, b_count - a_count, in_zeros, in_poles)
    g_plus = RationalSymbol(g.gain, 0, out_zeros, out_poles)
    fac = WHFactorization(g_minus, kappa, g_plus)
    _certify_wh(g, fac)
    return fac


def _certify_wh(g: RationalSymbol, fac: WHFactorization):
    if not fac.product().equals(g):
        raise CertificateFailed("Wiener-Hopf product does not reproduce the symbol")
    for s, tag in (
        (fac.g_plus, SpaceTag.HINF),
        (fac.g_plus.reciprocal(), SpaceTag.HINF),
        (fac.g_minus, SpaceTag.HINF_BAR),
        (fac.g_minus.reciprocal(), SpaceTag.HINF_BAR),
    ):
        if not s.membership(tag):
            raise CertificateFailed("Wiener-Hopf factor fails its side membership")


def inner_outer(f: RationalSymbol, side: str = "plus") -> InnerOuterPair:
    """Inner-outer factorization in H2 of the given side.

    Plus side: inner = z^k times the Blaschke product over zeros in the open
    disc; circle zeros stay in the outer part (outer means zero-free in the
    OPEN disc).  Minus side: reflect, factor, and pull back.
    """
    if f.is_zero:
        raise ZeroFunction("inner-outer factorization of 0")
    if side == "plus":
        if not f.membership(SpaceTag.H2PLUS):
            raise NotInHardySpace("input is not in the plus Hardy space")
        inner = RationalSymbol.monomial(f.zpow) if f.zpow else RationalSymbol.const(1.0)
        for r in f.zeros:
            if r.loc == LOC_IN:
                inner = inner * blaschke(r.value, r.mult)
        outer = f / inner
        pair = InnerOuterPair(inner, outer, "plus")
        _certify_io(f, pair)
        return pair
    if side == "minus":
        if not f.membership(SpaceTag.H2MINUS):
            raise NotInHardySpace("input is not in the minus Hardy space")
        reflected = f.conj_circle() * RationalSymbol.monomial(-1)
        plus_pair = inner_outer(reflected, "plus")
        inner = plus_pair.inner.conj_circle()
        outer = plus_pair.outer.conj_circle() * RationalSymbol.monomial(-1)
        pair = InnerOuterPair(inner, outer, "minus")
        _certify_io(f, pair)
        return pair
    raise ValueError("side must be 'plus' or 'minus'")


def _certify_io(f: RationalSymbol, pair: InnerOuterPair):
    if not pair.product().equals(f):
        raise CertificateFailed("inner*outer does not reproduce the input")
    if pair.side == "plus":
        if not pair.inner.membership(SpaceTag.INNER_PLUS):
            raise CertificateFailed("inner factor fails the inner membership")
        if not pair.outer.membership(SpaceTag.OUTER_PLUS):
            raise CertificateFailed("outer factor fails the outer membership")
    else:
        if not pair.inner.conj_circle().membership(SpaceTag.INNER_PLUS):
            raise CertificateFailed("minus-side inner factor fails reflection test")
        if not pair.outer.membership(SpaceTag.OUTER_MINUS):
            raise CertificateFailed("minus-side outer factor fails membership")
