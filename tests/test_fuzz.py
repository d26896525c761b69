"""Hypothesis fuzzing of Riesz projections and of the product's proximity
gate over zero-pole-gain symbols.

Poles lie in the sampler's annuli, 0.2-0.8 inside and 1.25-5 outside, at
least 0.05 apart and of multiplicity 1 or 2; zeros lie inside, outside or on
the circle.  Every projection is checked algebraically (P+ + P- = id, each
side idempotent and annihilating the other's image) and against the FFT of
f on a 4 096-point grid.  The gate's value bound must never clear a zero
planted within its radius of a pole, and the gate must answer as the test
on located zeros does."""

import cmath
import math
import pickle
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairedk import LaurentPoly, RationalSymbol, rational
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


def _keeps_its_cluster(arr, zero, mult, others, lead, s):
    """Whether the stored coefficients arr of lead (z - zero)^mult prod (z - o)
    provably keep mult zeros within s of ``zero``: by Rouche's theorem, when
    the exact coefficient error stays below the exact polynomial on that
    circle, with a factor 4 to spare for the float sums below."""
    if s <= 0:
        return False
    low = abs(lead) * s**mult
    for o in others:
        if abs(zero - o) <= s:
            return False
        low *= abs(zero - o) - s
    x = abs(zero) + s
    err = sum(
        math.hypot(float(Fraction(c.real) - a), float(Fraction(c.imag) - b)) * x**j
        for j, (c, (a, b)) in enumerate(zip(arr.tolist(), _exact_expansion([zero] * mult + others, lead)))
    )
    return low > 4 * err


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(inside, outside),
    angle,
    st.floats(0.0, 1.0, exclude_min=True),
    angle,
    st.integers(1, 3),
    st.lists(st.tuples(st.floats(0.1, 10.0), angle), max_size=17),
    st.lists(st.tuples(st.one_of(inside, outside), angle), max_size=3),
)
def test_gate_bound_never_clears_a_planted_zero(radius, theta, t, phi, mult, others, more_poles):
    # a zero of multiplicity 1-3 at distance t * rho from a pole p, with
    # rho = _CLEAR * max(1, |p|), among up to 17 other zeros (degree <= 20).
    # Rounding the expanded coefficients moves it, so an example counts
    # where the stored polynomial provably keeps a zero within rho of p;
    # at t = 1 that takes exact arithmetic, which the linear case of
    # tests/test_rational.py does
    p = cmath.rect(radius, theta)
    rho = rational._CLEAR * max(1.0, radius)
    zero = p + cmath.rect(t * rho, phi)
    zvals = [cmath.rect(r, a) for r, a in others]
    lead = cmath.rect(1.5, phi)
    _, arr = LaurentPoly.from_roots([zero] * mult + zvals, lead).to_array()
    assume(_keeps_its_cluster(arr, zero, mult, zvals, lead, (1.0 - 1e-12) * rho - abs(zero - p)))
    pvals = [cmath.rect(r, a) for r, a in more_poles] + [p]
    assert not rational._bound_clears(arr, pvals)


@st.composite
def gated_products(draw):
    """A symbol with lazy zeros, some of them planted 1e-9 to 1e-2 from the
    poles of the other factor, and those poles."""
    poles = draw(st.lists(st.tuples(st.one_of(inside, outside), angle), min_size=1, max_size=3))
    pvals = [cmath.rect(r, a) for r, a in poles]
    zeros = draw(st.lists(st.tuples(st.one_of(inside, outside), angle), max_size=4))
    zvals = [cmath.rect(r, a) for r, a in zeros]
    for i, gap, a in draw(st.lists(st.tuples(st.integers(0, 2), st.floats(-9.0, -2.0), angle), max_size=2)):
        zvals.append(pvals[i % len(pvals)] + cmath.rect(10.0**gap, a))
    own = [cmath.rect(draw(st.one_of(inside, outside)), draw(angle))]
    f = RationalSymbol.from_fraction(LaurentPoly.from_roots(zvals, 0.7 - 0.2j), LaurentPoly.from_roots(own))
    if draw(st.booleans()):  # a product's zeros: two lazy parts
        h = RationalSymbol.from_fraction(LaurentPoly.from_roots([-0.4 + 1.1j], 1.0), LaurentPoly.from_roots([3.0]))
        f = f * h
    return f, pvals + own


@settings(max_examples=200, deadline=None)
@given(gated_products())
def test_gate_equals_the_test_on_located_zeros(case):
    f, pvals = case
    located = pickle.loads(pickle.dumps(f))
    assert rational._gate(f, pvals) == rational._near(located.zeros, pvals)
