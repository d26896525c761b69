import json
import math

import numpy as np
import pytest

from pairedk import (
    LaurentPoly,
    RationalSymbol,
    SpaceTag,
    circle_conjugate,
    fourier_coefficient,
    inner_product,
    membership,
    rf_normalize,
    riesz_project,
)
from pairedk.errors import PoleOnCircle, ZeroDenominator

from oracles import fft_fourier, fft_fourier_window, fft_inner_product

R = RationalSymbol


def C(d):
    return R.from_coeffs(d)


# ---------------------------------------------------------------- conjugation


def test_conjugate_monomial():
    assert circle_conjugate(R.monomial(1)).equals(R.monomial(-1))


def test_conjugate_one_plus_inverse():
    # conj(1 + 1/z) = 1 + z; spot value at z = i: conj(1 - i) = 1 + i
    f = C({0: 1, -1: 1})
    g = circle_conjugate(f)
    assert g.equals(C({0: 1, 1: 1}))
    assert abs(g.eval(1j) - (1 + 1j)) < 1e-14


def test_conjugate_constant():
    assert circle_conjugate(R.const(1j)).equals(R.const(-1j))


def test_conjugate_involution_and_fourier_symmetry():
    f = C({0: 2, 1: 1j, -2: 0.5}) / C({0: -2.0, 1: 1.0})
    assert circle_conjugate(circle_conjugate(f)).equals(f)
    for k in (-3, -1, 0, 2):
        lhs = fourier_coefficient(circle_conjugate(f), k)
        rhs = fourier_coefficient(f, -k).conjugate()
        assert abs(lhs - rhs) < 1e-13


# ---------------------------------------------------------------- Fourier


def test_fourier_inside_pole_geometric_series():
    # 1/(z - p) = sum_{j>=1} p^{j-1} z^{-j}, so the -3 coefficient is p^2
    f = C({0: -0.5, 1: 1}).reciprocal()
    assert abs(fourier_coefficient(f, -3) - 0.25) < 1e-14
    assert abs(fourier_coefficient(f, 0)) < 1e-14


def test_fourier_polynomial_lookup():
    f = C({2: 2, 0: 3})
    assert fourier_coefficient(f, 0) == 3
    assert fourier_coefficient(f, 2) == 2
    assert fourier_coefficient(f, -1) == 0


def test_fourier_outside_pole_no_negative_indices():
    f = C({0: -2.0, 1: 1.0}).reciprocal()
    assert abs(fourier_coefficient(f, -1)) < 1e-15
    assert abs(fourier_coefficient(f, 0) + 0.5) < 1e-14


def test_fourier_pole_on_circle_raises():
    f = C({0: 1, 1: 1}).reciprocal()
    with pytest.raises(PoleOnCircle):
        fourier_coefficient(f, 0)


def test_fourier_window_against_fft():
    f = (C({0: 1, 1: 2j, 2: -0.25}) / C({0: -0.35 - 0.2j, 1: 1})) / C({0: 1.8, 1: 1})
    got = f.fourier_range(-12, 12)
    want = fft_fourier_window(f, -12, 12)
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------- projections


def test_riesz_index_split():
    f = C({2: 2, 0: 3, -1: 5})
    assert riesz_project(f, "plus").equals(C({2: 2, 0: 3}))
    assert riesz_project(f, "minus").equals(C({-1: 5}))


def test_riesz_inside_pole_all_minus():
    f = C({0: -0.5, 1: 1}).reciprocal()
    assert riesz_project(f, "plus").is_zero
    assert riesz_project(f, "minus").equals(f)


def test_riesz_outside_pole_all_plus():
    f = C({0: -2, 1: 1}).reciprocal()
    assert riesz_project(f, "minus").is_zero
    assert riesz_project(f, "plus").equals(f)


@pytest.mark.parametrize(
    "num,den",
    [
        ({0: 1, -1: 2, 3: 1j}, {0: 1}),
        ({0: 1}, {0: -0.5, 1: 1}),
        ({-2: 1, 1: 1}, {0: 1.21, 1: 2.2, 2: 1}),  # double pole at -1.1
        ({5: 1, -5: 1}, {0: -0.30 - 0.31j, 1: 1}),
    ],
)
def test_riesz_partition_idempotence_annihilation(num, den):
    f = R.from_fraction(LaurentPoly(num), LaurentPoly(den))
    plus = riesz_project(f, "plus")
    minus = riesz_project(f, "minus")
    assert (plus + minus).equals(f)
    assert riesz_project(plus, "plus").equals(plus)
    assert riesz_project(minus, "minus").equals(minus)
    assert riesz_project(riesz_project(f, "minus"), "plus").is_zero


def test_membership_iff_projection_vanishes():
    f = C({0: 1, 2: -1j}) / C({0: 2.5, 1: 1})
    assert membership(f, SpaceTag.H2PLUS)
    assert riesz_project(f, "minus").is_zero
    g = C({0: -0.5, 1: 1}).reciprocal()
    assert membership(g, SpaceTag.H2MINUS)
    assert riesz_project(g, "plus").is_zero


# ---------------------------------------------------------------- membership


def test_membership_examples():
    inside = C({0: -0.5, 1: 1}).reciprocal()  # 1/(z-1/2)
    assert membership(inside, SpaceTag.H2MINUS)
    assert membership(C({0: 1, -1: 1}), SpaceTag.L2)
    assert not membership(C({0: 1, 1: 1}).reciprocal(), SpaceTag.L2)
    blaschke = C({0: -0.5, 1: 1}) / C({0: 1, 1: -0.5})
    assert membership(blaschke, SpaceTag.INNER_PLUS)


def test_membership_hardy_and_bounded_classes():
    f = C({0: 1, -1: 1})  # 1 + 1/z
    assert membership(f, SpaceTag.HINF_BAR)
    assert not membership(f, SpaceTag.HINF)
    g = C({0: 1, 1: 1})
    assert membership(g, SpaceTag.HINF)
    assert membership(g, SpaceTag.OUTER_PLUS)  # circle zero stays outer
    assert membership(R.monomial(-1), SpaceTag.H2MINUS)
    assert not membership(R.monomial(-1), SpaceTag.H2PLUS)


def test_membership_outer_minus_reflection_convention():
    # 1/z is outer on the minus side: z^(-1) reflected and conjugated gives 1
    assert membership(R.monomial(-1), SpaceTag.OUTER_MINUS)
    inside_zero = C({0: -0.3, 1: 1}) * R.monomial(-1)
    assert not membership(inside_zero, SpaceTag.OUTER_MINUS)


def test_zero_function_membership_policy():
    z = R.zero()
    for tag in (SpaceTag.L2, SpaceTag.H2PLUS, SpaceTag.H2MINUS, SpaceTag.HINF, SpaceTag.HINF_BAR):
        assert membership(z, tag)
    assert not membership(z, SpaceTag.INNER_PLUS)
    assert not membership(z, SpaceTag.OUTER_PLUS)


# ---------------------------------------------------------------- normalize


def test_rf_normalize_cancels_common_root():
    out = rf_normalize(LaurentPoly({0: -1, 2: 1}), LaurentPoly({0: -1, 1: 1}))
    assert out.equals(C({0: 1, 1: 1}))


def test_rf_normalize_zpk_form():
    out = rf_normalize(LaurentPoly({0: 1, -1: 1}), LaurentPoly({0: 1}))
    assert out.zpow == -1
    assert len(out.zeros) == 1
    z = out.zeros[0]
    assert abs(z.value + 1) < 1e-12 and z.loc == "on"


def test_rf_normalize_zero_numerator_and_zero_denominator():
    assert rf_normalize(LaurentPoly(), LaurentPoly({1: 1})).is_zero
    with pytest.raises(ZeroDenominator):
        rf_normalize(LaurentPoly({0: 1}), LaurentPoly())


# ---------------------------------------------------------------- arithmetic


def test_quotient_cancellation_to_shift():
    a = C({0: 1, -1: 1})
    b = C({0: 1, 1: 1})
    assert (a / b).equals(R.monomial(-1))


def test_inner_product_matches_fft():
    f = C({0: 1, -1: 2}) / C({0: 3.0, 1: 1})
    g = C({1: 1, 0: -0.5}) / C({0: -0.4, 1: 1})
    got = inner_product(f, g)
    want = fft_inner_product(f, g)
    assert abs(got - want) < 1e-12


def test_inner_product_monomials_orthonormal():
    assert inner_product(R.monomial(3), R.monomial(3)) == pytest.approx(1)
    assert abs(inner_product(R.monomial(3), R.monomial(-2))) < 1e-15


def test_sup_circle_values():
    assert C({0: 1, -1: 1}).sup_circle(512) == pytest.approx(2.0, abs=1e-9)
    assert R.const(2.0).sup_circle(64) == pytest.approx(2.0)


def test_eval_on_point_array_matches_scalar_path():
    # sup_circle evaluates its whole grid in one array pass
    f = C({0: 1, 1: 0.5j}) / C({0: 2.4, 1: 1}) + C({-2: 1, 0: -0.3}) / C({0: -0.4 + 0.1j, 1: 1})
    mod2 = f * f.conj_circle()
    zs = np.exp(2j * np.pi * np.arange(8192) / 8192)
    ref = np.array([mod2.eval(complex(z)) for z in zs])
    assert np.abs(mod2.eval(zs) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_json_round_trip_probe_agreement():
    syms = [
        C({0: 1, -1: 1}),
        C({0: 1, 2: -1j}) / C({0: 2.5, 1: 1}),
        R.zero(),
        R.monomial(-3, 2j),
    ]
    from pairedk.rational import probe_points

    for s in syms:
        back = R.from_json(json.loads(json.dumps(s.to_json())))
        for t in probe_points(8):
            assert abs(back.eval(t) - s.eval(t)) <= 1e-11 * max(1.0, abs(s.eval(t)))


def test_json_explicit_location_tag_honoured():
    data = {
        "gain": [1.0, 0.0],
        "zpow": 0,
        "zeros": [{"z": [math.cos(math.pi / 4), math.sin(math.pi / 4)], "m": 1, "loc": "on"}],
        "poles": [],
    }
    sym = R.from_json(data)
    assert sym.zeros[0].loc == "on"
