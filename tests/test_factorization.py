import numpy as np
import pytest

from pairedk import (
    LaurentPoly,
    RationalSymbol,
    SpaceTag,
    blaschke,
    inner_outer,
    poly_roots,
    wiener_hopf,
    winding_index,
)
from pairedk.errors import NotInHardySpace, ZeroFunction, ZeroOrPoleOnCircle
from pairedk.sampling import SamplerProfile, sample_symbol, trial_rng

import fftcheck as fc

R = RationalSymbol


def C(d):
    return R.from_coeffs(d)


# ---------------------------------------------------------------- roots


def test_roots_split_by_circle():
    # (z - 1/2)(z - 2) = z^2 - 5/2 z + 1; quadratic formula gives 1/2 and 2
    p = LaurentPoly({0: 1, 1: -2.5, 2: 1})
    rs = poly_roots(p)
    locs = sorted((round(abs(r.value), 6), r.loc) for r in rs.roots)
    assert locs == [(0.5, "in"), (2.0, "out")]


def test_root_on_circle():
    rs = poly_roots(LaurentPoly({0: 1, 1: 1}))
    assert len(rs.roots) == 1
    assert rs.roots[0].loc == "on"
    assert abs(rs.roots[0].value + 1) < 1e-12


def test_double_root_clusters():
    # (z - i)^2 = z^2 - 2i z - 1
    rs = poly_roots(LaurentPoly({0: -1, 1: -2j, 2: 1}))
    assert len(rs.roots) == 1
    r = rs.roots[0]
    assert r.mult == 2 and r.loc == "on"
    assert abs(r.value - 1j) < 1e-7


def test_reconstruction_matches_original():
    p = LaurentPoly({0: 2.0, 1: -1.5, 2: 0.25j, 3: 1.0})
    values = [r.value for r in poly_roots(p).roots for _ in range(r.mult)]
    back = LaurentPoly.from_roots(values, p.coeff(3))
    assert (back - p).norm_inf() <= 1e-10 * max(back.norm_inf(), p.norm_inf())


# ---------------------------------------------------------------- winding


def test_winding_examples():
    assert winding_index(R.monomial(-1)) == -1
    g = C({0: -2, 1: 1}) / C({0: -0.5, 1: 1})
    assert winding_index(g) == -1
    assert winding_index(C({0: -0.5, 1: 1}) * C({0: -1 / 3, 1: 1})) == 2


def test_winding_rejects_circle_roots():
    with pytest.raises(ZeroOrPoleOnCircle):
        winding_index(C({0: 1, 1: 1}))


def test_winding_multiplicative_and_conjugate():
    rng = trial_rng(11, 0)
    prof = SamplerProfile(class_constraint="invertible", degree_bound=3)
    g = sample_symbol(prof, rng)
    h = sample_symbol(prof, rng)
    assert winding_index(g * h) == winding_index(g) + winding_index(h)
    assert winding_index(g.conj_circle()) == -winding_index(g)


def test_winding_matches_argument_principle():
    rng = trial_rng(12, 3)
    prof = SamplerProfile(class_constraint="invertible", degree_bound=3)
    for _ in range(5):
        g = sample_symbol(prof, rng)
        assert winding_index(g) == fc.winding(fc.eval_json(g.to_json(), fc.circle_grid(16384)))


# ---------------------------------------------------------------- Wiener-Hopf


def test_wh_monomial():
    fac = wiener_hopf(R.monomial(-1))
    assert fac.kappa == -1
    assert fac.g_minus.equals(R.const(1))
    assert fac.g_plus.equals(R.const(1))


def test_wh_mixed_quotient():
    g = C({0: -2, 1: 1}) / C({0: -0.5, 1: 1})
    fac = wiener_hopf(g)
    assert fac.kappa == -1
    assert fac.g_plus.equals(C({0: -2, 1: 1}))
    # g_minus = (1 - 1/(2z))^{-1} = z/(z - 1/2)
    assert fac.g_minus.equals(R.monomial(1) / C({0: -0.5, 1: 1}))
    assert fac.product().equals(g)


def test_wh_inside_zero():
    fac = wiener_hopf(C({0: -0.5, 1: 1}))
    assert fac.kappa == 1
    assert fac.g_plus.equals(R.const(1))
    assert fac.g_minus.equals(C({0: 1, -1: -0.5}))


def test_wh_rejects_circle_roots():
    with pytest.raises(ZeroOrPoleOnCircle):
        wiener_hopf(C({0: 1, 1: 1}))


def test_wh_sampled_invariants():
    rng = trial_rng(5, 1)
    prof = SamplerProfile(class_constraint="invertible", degree_bound=3)
    for _ in range(25):
        g = sample_symbol(prof, rng)
        fac = wiener_hopf(g)
        assert fac.kappa == winding_index(g)
        assert fac.product().equals(g)
        assert fac.g_plus.membership(SpaceTag.HINF)
        assert fac.g_plus.reciprocal().membership(SpaceTag.HINF)
        assert fac.g_minus.membership(SpaceTag.HINF_BAR)
        assert fac.g_minus.reciprocal().membership(SpaceTag.HINF_BAR)


# ---------------------------------------------------------------- inner-outer


def test_inner_outer_blaschke_split():
    f = C({0: -1 / 3, 1: 1}) / C({0: 2, 1: 1})
    pair = inner_outer(f, "plus")
    assert pair.inner.membership(SpaceTag.INNER_PLUS)
    assert pair.outer.membership(SpaceTag.OUTER_PLUS)
    assert pair.product().equals(f)
    assert len(pair.inner.zeros) == 1
    assert abs(pair.inner.zeros[0].value - 1 / 3) < 1e-12


def test_inner_outer_no_disc_zeros():
    f = C({0: -2, 1: 1}).reciprocal()
    pair = inner_outer(f, "plus")
    assert pair.inner.equals(R.const(1))
    assert pair.outer.equals(f)


def test_inner_outer_minus_side_monomial():
    pair = inner_outer(R.monomial(-1), "minus")
    assert pair.inner.equals(R.const(1))
    assert pair.outer.equals(R.monomial(-1))
    assert pair.outer.membership(SpaceTag.OUTER_MINUS)


def test_inner_outer_rejects_bad_input():
    with pytest.raises(NotInHardySpace):
        inner_outer(R.monomial(-1), "plus")
    with pytest.raises(ZeroFunction):
        inner_outer(R.zero(), "plus")


def test_inner_outer_seeded_batch():
    # seeded batch: product reproduces, inner unimodular, outer zero-free inside
    rng = trial_rng(17, 0)
    prof = SamplerProfile(class_constraint="Hinf", degree_bound=3)
    count = 0
    trial = 0
    while count < 200:
        trial += 1
        g = sample_symbol(prof, rng)
        if g.is_zero or not g.membership(SpaceTag.H2PLUS):
            continue
        pair = inner_outer(g, "plus")
        assert pair.product().equals(g)
        for t in [np.exp(2j * np.pi * k / 8) for k in range(8)]:
            assert abs(abs(pair.inner.eval(t)) - 1.0) < 1e-9
        assert pair.outer.zeros_at("in") == 0 and pair.outer.zpow == 0
        count += 1


def test_blaschke_normalization():
    b = blaschke(0.4 + 0.1j)
    assert b.membership(SpaceTag.INNER_PLUS)
    v = b.eval(0.0)
    assert abs(v - abs(0.4 + 0.1j)) < 1e-13  # positive at the origin
