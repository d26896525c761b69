"""Hypothesis fuzzing of Riesz projections and of the zero-pole cancellation
rule over zero-pole-gain symbols.

Poles lie in the sampler's annuli, 0.2-0.8 inside and 1.25-5 outside, at
least 0.05 apart and of multiplicity 1 or 2; zeros lie inside, outside or on
the circle.  Every projection is checked algebraically (P+ + P- = id, each
side idempotent and annihilating the other's image) and against the FFT of
f on a 4 096-point grid.  The Newton disc must never certify a zero beside
a pole where every zero lies beyond the rule's radius, and the rule must
give the verdict of the value test and located zeros.  A sum of two simple
poles at a relative gap of 1e-10 to 1e-9 must keep both.  A numerator whose
top (or bottom) coefficient is near roundoff must keep it when a pole it
shares with the denominator cancels, and so must its JSON round trip."""

import cmath
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairedk import LaurentPoly, RationalSymbol, rational, tolerances
from pairedk.roots import Root, classify

import fftcheck as fc

R = RationalSymbol

angle = st.floats(0.0, 2.0 * cmath.pi)
inside = st.floats(0.2, 0.8)
outside = st.floats(1.25, 5.0)


def _root(radius, theta, mult=1):
    v = cmath.rect(radius, theta)
    return Root(v, mult, classify(v))


@st.composite
def zpk_symbols(draw):
    poles = draw(
        st.lists(st.tuples(st.one_of(inside, outside), angle, st.integers(1, 2)), min_size=1, max_size=4)
    )
    values = [cmath.rect(r, t) for r, t, _ in poles]
    assume(all(abs(u - v) >= 0.05 for i, u in enumerate(values) for v in values[:i]))
    zeros = draw(st.lists(st.tuples(st.one_of(inside, outside, st.just(1.0)), angle), max_size=3))
    gain = cmath.rect(draw(st.floats(0.5, 2.0)), draw(angle))
    return R.from_zpk(
        gain, draw(st.integers(-3, 3)), [_root(r, t) for r, t in zeros], [_root(r, t, m) for r, t, m in poles]
    )


@settings(max_examples=100, deadline=None)
@given(zpk_symbols())
def test_riesz_projections_of_zpk_symbols(f):
    plus, minus = f.riesz("plus"), f.riesz("minus")
    assert (plus + minus).equals(f)
    assert plus.riesz("plus").equals(plus) and minus.riesz("minus").equals(minus)
    assert plus.riesz("minus").is_zero and minus.riesz("plus").is_zero
    want = fc.fourier(f.eval(fc.circle_grid(4096)), -40, 40)
    k = np.arange(-40, 41)
    scale = np.abs(want).max()
    for p, keep in ((plus, k >= 0), (minus, k < 0)):
        assert np.abs(p.fourier_range(-40, 40) - np.where(keep, want, 0.0)).max() <= 1e-11 * scale


def _exact_expansion(roots, lead):
    """lead * prod (z - r), ascending, in exact complex rationals (re, im)."""
    out = [(Fraction(lead.real), Fraction(lead.imag))]
    for r in roots:
        cr, ci = -Fraction(r.real), -Fraction(r.imag)
        nxt = [(Fraction(0), Fraction(0))] * (len(out) + 1)
        for j, (a, b) in enumerate(out):
            nxt[j] = (nxt[j][0] + a * cr - b * ci, nxt[j][1] + a * ci + b * cr)
            nxt[j + 1] = (nxt[j + 1][0] + a, nxt[j + 1][1] + b)
        out = nxt
    return out


def _no_zero_within(arr, zeros, lead, center, s):
    """Whether the stored coefficients arr of lead prod (z - zero) over
    ``zeros`` provably have no zero within s of ``center``: every exact
    zero lies beyond s, so on that disc the exact polynomial has modulus at
    least |lead| prod (|zero - center| - s), which must exceed the exact
    coefficient error there, with a factor 4 to spare for the float sums
    below."""
    low = abs(lead)
    for z in zeros:
        if abs(z - center) <= s:
            return False
        low *= abs(z - center) - s
    x = abs(center) + s
    err = sum(
        math.hypot(float(Fraction(c.real) - a), float(Fraction(c.imag) - b)) * x**j
        for j, (c, (a, b)) in enumerate(zip(arr.tolist(), _exact_expansion(zeros, lead)))
    )
    return low > 4 * err


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(inside, outside),
    angle,
    st.floats(1.0, 8.0),
    angle,
    st.integers(1, 3),
    st.lists(st.tuples(st.floats(0.1, 10.0), angle), max_size=17),
)
# at the radius (t = 1, nudged by 1e-7 so that the stored coefficients
# provably keep the zero outside) and at 5e-7 * max(1, |p|), inside the
# 1e-6 radius the rule once had
@example(radius=0.5, theta=0.3, t=1.0000001, phi=0.7, mult=1, others=[(0.3, 1.0), (3.0, 2.0)])
@example(radius=2.5, theta=1.0, t=1.0000001, phi=2.0, mult=1, others=[(0.3, 1.0)])
@example(radius=0.5, theta=0.3, t=5.0, phi=0.7, mult=2, others=[(0.3, 1.0), (3.0, 2.0)])
def test_newton_disc_never_certifies_a_pole_without_a_zero_beside_it(radius, theta, t, phi, mult, others):
    # a zero of multiplicity 1-3 at distance t * rho from a pole p, with
    # rho = eps_cluster * max(1, |p|) and t >= 1, among up to 17 other zeros
    # (degree <= 20).  Rounding the expanded coefficients moves it, so an
    # example counts where the stored polynomial provably has no zero
    # within rho of p; the linear case at t = 1 takes exact arithmetic,
    # which tests/test_rational.py does
    p = cmath.rect(radius, theta)
    rho = tolerances.EPS_CLUSTER * max(1.0, radius)
    zeros = [p + cmath.rect(t * rho, phi)] * mult + [cmath.rect(r, a) for r, a in others]
    lead = cmath.rect(1.5, phi)
    _, arr = LaurentPoly.from_roots(zeros, lead).to_array()
    assume(_no_zero_within(arr, zeros, lead, p, rho))
    assert not rational._newton_disc(arr.tolist(), p)


@st.composite
def planted_products(draw):
    """A symbol with lazy zeros, some of them planted 1e-12 to 1e-2 from the
    poles of a second symbol, and that second symbol."""
    poles = draw(st.lists(st.tuples(st.one_of(inside, outside), angle), min_size=1, max_size=3))
    pvals = [cmath.rect(r, a) for r, a in poles]
    zeros = draw(st.lists(st.tuples(st.one_of(inside, outside), angle), max_size=4))
    zvals = [cmath.rect(r, a) for r, a in zeros]
    for i, gap, a in draw(st.lists(st.tuples(st.integers(0, 2), st.floats(-12.0, -2.0), angle), max_size=2)):
        zvals.append(pvals[i % len(pvals)] + cmath.rect(10.0**gap, a))
    own = [cmath.rect(draw(st.one_of(inside, outside)), draw(angle))]
    return _planted(pvals, zvals, own, draw(st.booleans()))


def _planted(pvals, zvals, own, product):
    f = RationalSymbol.from_fraction(LaurentPoly.from_roots(zvals, 0.7 - 0.2j), LaurentPoly.from_roots(own))
    if product:  # a product's zeros: two lazy parts
        h = RationalSymbol.from_fraction(LaurentPoly.from_roots([-0.4 + 1.1j], 1.0), LaurentPoly.from_roots([3.0]))
        f = f * h
    return f, RationalSymbol.from_zpk(1.0, 0, (), [Root(v, 1, classify(v)) for v in pvals])


def _parts(sym):
    return (sym.gain, sym.zpow, sym.zeros, sym.poles, dict(sym.num.items()), dict(sym.den.items()))


_P = 0.4 + 0.2j


@settings(max_examples=200, deadline=None)
@given(planted_products())
# a triple zero at the radius, 1e-7 from the pole, and a double zero at 5e-7,
# inside the 1e-6 radius the rule once had: both pass the value test
@example(_planted([_P], [_P + 1e-7] * 3 + [-0.3], [2.5], True))
@example(_planted([_P, 2.0], [_P + 5e-7j] * 2 + [1.7j], [2.5], False))
def test_rule_equals_the_value_test_and_located_zeros(case):
    # the Newton disc only saves locating zeros: with it switched off, every
    # pole that passes the value test is decided on located zeros
    f, g = case
    got = pickle.loads(pickle.dumps(f)) * g
    with mock.patch.object(rational, "_newton_disc", lambda coeffs, p: False):
        want = f * g
    assert _parts(got) == _parts(want)


@settings(max_examples=200, deadline=None)
@given(st.one_of(inside, outside), angle, st.floats(1e-10, 1e-9), angle, st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_sums_keep_near_coincident_poles_apart(radius, theta, gap, phi, ga, gb):
    # simple poles p and q at a relative gap of 1e-10 to 1e-9: only equal
    # values are one root, so the sum of g_a / (z - p) and g_b / (z - q)
    # keeps both, in either order
    p = cmath.rect(radius, theta)
    q = p + cmath.rect(gap * max(1.0, radius), phi)
    data = [{"gain": [g, 0.0], "poles": [{"z": [v.real, v.imag]}]} for g, v in ((ga, p), (gb, q))]
    a, b = (R.from_json(d) for d in data)
    z = fc.circle_grid(4096)
    want = fc.fourier(fc.eval_json(data[0], z) + fc.eval_json(data[1], z), -20, 20)
    poles = sorted([(p, 1), (q, 1)], key=lambda t: (t[0].real, t[0].imag))
    for f in (a + b, b + a):
        assert [(r.value, r.mult) for r in f.poles] == poles
        assert fc.rel(f.fourier_range(-20, 20) - want, want) <= 1e-12


_C = 0.7 - 0.2j


def _top_case(p, eps, q=0.5, c=_C, as_sum=False):
    """c (z - p) + eps z^2 over (z - p)(z - q), with p outside: the pole p
    cancels, and the quotient's top coefficient is eps.  As a sum it is
    (1 + eps) z^2 / den plus (c (z - p) - z^2) / den."""
    den = LaurentPoly.from_roots([p, q])
    if as_sum:
        a = R.from_fraction(LaurentPoly({2: 1 + eps}), den)
        f = a + R.from_fraction(LaurentPoly.from_roots([p], c) - LaurentPoly({2: 1.0}), den)
        eps = (1 + eps) - 1
    else:
        f = R.from_fraction(LaurentPoly.from_roots([p], c) + LaurentPoly({2: eps}), den)
    return f, lambda t: (c * (t - p) + eps * t**2) / ((t - p) * (t - q))


def _bottom_case(p, eps, q=2.0, c=_C):
    """The mirror, with p inside: (z - p)(eps + c z) over (z - p)(z - q),
    whose quotient's bottom coefficient is eps."""
    f = R.from_fraction(LaurentPoly.from_roots([p]) * LaurentPoly({0: eps, 1: c}), LaurentPoly.from_roots([p, q]))
    return f, lambda t: (eps + c * t) / (t - q)


@st.composite
def planted_ends(draw):
    """A symbol whose numerator has a coefficient near roundoff at the end
    that a cancelled pole's deflation forms last: the top over an outside
    pole (from a fraction or a sum), or the bottom over an inside one."""
    eps = 10.0 ** draw(st.floats(-17.0, -12.0))
    c = cmath.rect(draw(st.floats(0.5, 2.0)), draw(angle))
    if draw(st.booleans()):
        p, q = cmath.rect(draw(outside), draw(angle)), cmath.rect(draw(st.one_of(inside, outside)), draw(angle))
        assume(abs(p - q) >= 0.05)
        return _top_case(p, eps, q, c, draw(st.booleans()))
    p, q = cmath.rect(draw(inside), draw(angle)), cmath.rect(draw(st.one_of(inside, outside)), draw(angle))
    assume(abs(p - q) >= 0.05)
    return _bottom_case(p, eps, q, c)


@settings(max_examples=100, deadline=None)
@given(planted_ends())
# the sum and the fractions that read as zero, or with a gain near 1e-18,
# when deflation formed the top as a difference
@example(_top_case(2.0, 1e-12, as_sum=True))
@example(_top_case(2.0, 1e-12))
@example(_top_case(2.0, 3e-13))
@example(_top_case(3.849 + 0.761j, 1e-12))
@example(_top_case(3.849 + 0.761j, 3e-13))
@example(_top_case(1.5 - 0.5j, 1e-12))
@example(_top_case(1.5 - 0.5j, 3e-13))
# the mirror: a bottom that deflation rounds to exactly 0 is a factor z
@example(_bottom_case(0.5, 1e-12))
@example(_bottom_case(0.5, 1e-15))
@example(_bottom_case(0.5, 1e-17))
@example(_bottom_case(0.3 + 0.4j, 1e-15))
@example(_bottom_case(0.3 + 0.4j, 1e-17))
def test_a_coefficient_near_roundoff_survives_a_cancelled_pole(case):
    f, exact = case
    want = fc.fourier(exact(fc.circle_grid(4096)), -20, 20)
    for g in (f, R.from_json(f.to_json())):
        assert fc.rel(g.fourier_range(-20, 20) - want, want) <= 1e-11
