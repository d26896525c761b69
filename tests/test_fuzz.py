"""Hypothesis fuzzing of Riesz projections over zero-pole-gain symbols.

Poles lie in the sampler's annuli, 0.2-0.8 inside and 1.25-5 outside, at
least 0.05 apart and of multiplicity 1 or 2; zeros lie inside, outside or on
the circle.  Every projection is checked algebraically (P+ + P- = id, each
side idempotent and annihilating the other's image) and against the FFT of
f on a 4 096-point grid."""

import cmath

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairedk import RationalSymbol
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
