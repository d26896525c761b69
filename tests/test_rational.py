import cmath
import json
import math
import pickle
from fractions import Fraction

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
    winding_index,
)
from pairedk import rational, tolerances
from pairedk.errors import PoleOnCircle, ZeroDenominator
from pairedk.factorization import blaschke
from pairedk.properties import GENERIC
from pairedk.rational import decay_window, probe_points
from pairedk.roots import Root, poly_roots
from pairedk.sampling import CLASS_CONSTRAINTS, sample_l2_function, sample_symbol, trial_rng

import fftcheck as fc

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


@pytest.mark.parametrize("rel", [1e-10, 1e-9, 1e-8])
def test_equals_window_fallback_agrees_with_the_fft(rel):
    # a gain off by rel puts the cross-multiplied residual just above
    # EPS_EQ; the residual alone decides, as the FFT windows do
    data = {"gain": [1.0, 0.0], "zeros": [{"z": [2.0, 0.0]}], "poles": [{"z": [0.5, 0.1]}, {"z": [-1.5, 0.3]}]}
    moved = dict(data, gain=[1.0 + rel, 0.0])
    z = fc.circle_grid(4096)
    want, got = (fc.fourier(fc.eval_json(d, z), -40, 40) for d in (data, moved))
    same = fc.rel(got - want, want) <= tolerances.EPS_EQ
    assert R.from_json(data).equals(R.from_json(moved)) is same


@pytest.mark.parametrize("gap", [1e-9, 1e-10, 1e-11])
def test_equals_tells_a_near_double_pole_from_its_json_round_trip(gap):
    # f keeps the caller's den but stores a double pole, so f and its JSON
    # round trip are different functions, though the Fourier windows of the
    # two, which both read the stored poles, agree
    f = R.from_fraction(LaurentPoly.one(), LaurentPoly.from_roots([0.5, 0.5 + gap]))
    g = R.from_json(f.to_json())
    z = fc.circle_grid(4096)
    want, got = (fc.fourier(h.eval(z), -40, 40) for h in (f, g))
    same = fc.rel(got - want, want) <= tolerances.EPS_EQ
    assert not same
    assert f.equals(g) is same


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
    want = fc.fourier(fc.eval_json(f.to_json(), fc.circle_grid(4096)), -12, 12)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("gap", [1e-4, 1e-5, 1e-6, 1e-7, 1e-9, 1e-10])
def test_nearby_roots_stay_distinct(gap):
    # a zero that close to a pole must not cancel it: only the value test
    # cancels, at any gap.  Two simple poles that close must not merge into
    # one: only equal values are one root
    pole = 0.5 + 0.1j
    ratio = {
        "gain": [1.0, 0.0],
        "zeros": [{"z": [pole.real + gap, pole.imag]}],
        "poles": [{"z": [pole.real, pole.imag]}],
    }
    simple = [{"gain": [1.0, 0.0], "poles": [{"z": [v.real, v.imag]}]} for v in (pole, pole + gap)]
    z = fc.circle_grid(4096)
    cases = [
        (R.from_json(ratio), fc.eval_json(ratio, z)),
        (R.from_json(simple[0]) + R.from_json(simple[1]), fc.eval_json(simple[0], z) + fc.eval_json(simple[1], z)),
    ]
    for f, values in cases:
        want = fc.fourier(values, -20, 20)
        assert fc.rel(f.fourier_range(-20, 20) - want, want) <= 1e-12


@pytest.mark.parametrize("mult", [2, 3])
@pytest.mark.parametrize("gap", [2e-7, 5e-7, 9e-7])
@pytest.mark.parametrize("pole", [0.5, 0.5 + 0.3j, 2.5, -1.7j])
def test_a_multiple_zero_beside_the_radius_keeps_its_pole(pole, gap, mult):
    # a double or triple zero gap * max(1, |p|) from the pole, beyond the
    # eps_cluster radius of root identity: JSON input, from_fraction and a
    # product all keep the pole, and match the FFT
    z0 = pole + gap * max(1.0, abs(pole))
    top = {"gain": [1.0, 0.0], "zeros": [{"z": [z0.real, z0.imag], "m": mult}]}
    bottom = {"gain": [1.0, 0.0], "poles": [{"z": [pole.real, pole.imag]}]}
    data = dict(top, poles=bottom["poles"])
    want = fc.fourier(fc.eval_json(data, fc.circle_grid(4096)), -20, 20)
    paths = (
        R.from_json(data),
        R.from_fraction(LaurentPoly.from_roots([z0] * mult), LaurentPoly.from_roots([pole])),
        R.from_json(top) * R.from_json(bottom),
    )
    for f in paths:
        assert [(r.value, r.mult) for r in f.poles] == [(pole, 1)]
        assert fc.rel(f.fourier_range(-20, 20) - want, want) <= 1e-15


# Two summands of a sum in P_COMMEXP (master seed 7, trial 2).  The far pole
# of the second, near -0.68-4.59i, has residue 1.4e-5, 8.7e-11 of the first
# summand's modulus there, so the sum's numerator passes the value test at it.
_ONE_SIDED = (
    {
        "gain": [0.6107772096818845, -1.4768409624191459],
        "zpow": 2,
        "zeros": [
            {"z": [-2.761376750727393, -1.4801960562768042]},
            {"z": [-0.670317819719213, -0.09892467927783576]},
            {"z": [-0.35470450283557703, -0.41552048695509625]},
            {"z": [-0.2199137995777028, 0.08304716197136984]},
            {"z": [-0.03102019910234969, -0.25783565803255304]},
            {"z": [0.21207409148639197, -0.03344067330706809]},
            {"z": [0.5908321666360126, 0.2757256553052953]},
        ],
        "poles": [{"z": [2.9369565207904738, 1.471893991918009]}],
    },
    {
        "gain": [0.0010623645237709824, -0.0012223969929980349],
        "zpow": -1,
        "zeros": [{"z": [-0.39645056040545307, -0.011450599736912119]}],
        "poles": [
            {"z": [-0.6847275023456934, -4.587024723187135]},
            {"z": [-0.5003537126929213, 0.20411574223283524]},
            {"z": [0.05745887679517741, 0.20229402091897747]},
            {"z": [0.27860550922231436, 0.15318655705773804]},
        ],
    },
)


def test_sum_keeps_a_pole_that_one_summand_holds():
    # a pole of one summand only keeps its principal part in the sum, so it
    # cannot cancel, whatever the value test says
    a, b = (R.from_json(d) for d in _ONE_SIDED)
    z = fc.circle_grid(4096)
    want = fc.fourier(fc.eval_json(_ONE_SIDED[0], z) + fc.eval_json(_ONE_SIDED[1], z), -20, 20)
    for f in (a + b, b + a):
        assert [r.value for r in f.poles] == sorted(
            [r.value for r in a.poles + b.poles], key=lambda v: (v.real, v.imag)
        )
        assert fc.rel(f.fourier_range(-20, 20) - want, want) <= 1e-12


def test_repeated_entries_merge_before_a_sum():
    # one double pole written as two entries and as one entry with m = 2:
    # both symbols hold one root of multiplicity 2, which a sum's common
    # denominator then matches once
    two = {"gain": [1.0, 0.0], "poles": [{"z": [0.5, 0.1]}, {"z": [0.5, 0.1]}]}
    one = {"gain": [1.0, 0.0], "poles": [{"z": [0.5, 0.1], "m": 2}]}
    z = fc.circle_grid(4096)
    want = fc.fourier(fc.eval_json(two, z) + fc.eval_json(one, z), -20, 20)
    a, b = R.from_json(two), R.from_json(one)
    assert [(r.mult, r.loc) for r in a.poles] == [(2, "in")]
    for f in (a + b, b + a):
        assert fc.rel(f.fourier_range(-20, 20) - want, want) <= 1e-12


def test_product_value_tests_only_the_poles_beside_a_zero():
    # the pole at 0.3 has a zero beside it; the pole at 0.95 has none, though
    # it passes the value test on the Horner magnitude of the 10-fold cluster
    # at 1.1
    top = {"gain": [1.0, 0.0], "zeros": [{"z": [1.1, 0.0], "m": 10}, {"z": [0.3, 0.0]}]}
    bottom = {"gain": [1.0, 0.0], "poles": [{"z": [0.95, 0.0]}, {"z": [0.3, 0.0]}]}
    f = R.from_json(top) * R.from_json(bottom)
    assert [(r.value, r.mult) for r in f.poles] == [(0.95, 1)]
    assert winding_index(f) == -1
    values = fc.eval_json(top, fc.circle_grid(4096)) * fc.eval_json(bottom, fc.circle_grid(4096))
    assert fc.winding(values) == -1
    want = fc.fourier(values, -20, 20)
    assert fc.rel(f.fourier_range(-20, 20) - want, want) <= 1e-12


def test_from_fraction_value_tests_only_the_poles_beside_a_zero():
    # the 10-fold cluster at 1.1 passes the value test at 0.95 on its Horner
    # magnitude, but no zero lies beside the pole, so the pole stays
    num, den = LaurentPoly.from_roots([1.1] * 10), LaurentPoly.from_roots([0.95])
    f = R.from_fraction(num, den)
    assert [(r.value, r.mult) for r in f.poles] == [(0.95, 1)]
    assert winding_index(f) == -1
    for t in probe_points(16):
        want = num.eval(t) / den.eval(t)
        assert abs(f.eval(t) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("pole,mult", [(0.95, 1), (1.0, 1), (0.5 - 0.2j, 2)])
def test_from_fraction_cancels_a_zero_at_its_pole(pole, mult):
    # (z - pole)^mult (z - 1.1)^3 / (z - pole)^mult is a polynomial; a double
    # zero splits under rounding, so the Newton disc may leave it to the
    # located zeros
    num = LaurentPoly.from_roots([pole] * mult + [1.1] * 3)
    f = R.from_fraction(num, LaurentPoly.from_roots([pole] * mult))
    assert f.poles == () and f.den.support() == [0]
    assert winding_index(f) == 0
    assert f.equals(R.from_fraction(LaurentPoly.from_roots([1.1] * 3), LaurentPoly.one()))


def test_subnormal_coefficients_keep_their_root():
    # 2.225e-311 (1 + z): np.roots' complex division overflowed on the
    # unscaled coefficients and raised numpy's LinAlgError
    zeros = C({0: 2.225e-311, 1: 2.225e-311}).zeros
    assert [(r.mult, r.loc) for r in zeros] == [(1, "on")]
    assert abs(zeros[0].value + 1.0) <= 1e-15


def test_huge_coefficients_keep_their_roots():
    # 1e300 (z - 0.5)(z - 3)
    zeros = C({0: 1.5e300, 1: -3.5e300, 2: 1e300}).zeros
    assert [(r.mult, r.loc) for r in zeros] == [(1, "in"), (1, "out")]
    assert abs(zeros[0].value - 0.5) <= 1e-15 and abs(zeros[1].value - 3.0) <= 1e-14


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


def test_riesz_windows_against_fft():
    # poles on both sides and a numerator reaching both z^-1 and z^1, so each
    # projection reads a nonempty window of the opposite side's stream
    z = fc.circle_grid(4096)
    checked = 0
    for i in range(200):
        f = sample_symbol(GENERIC, trial_rng(12, i))
        if f.is_zero or not (f.poles_at("in") and f.poles_at("out") and f.num.lo <= -1 and f.num.hi >= 1):
            continue
        values = f.eval(z)
        for side in ("plus", "minus"):
            assert fc.rel(f.riesz(side).eval(z) - fc.riesz(values, side), values) <= 1e-12
        checked += 1
    assert checked >= 10


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
    # a zero inside or on the circle reflects to one outside or on it
    for f in (C({0: -0.5, 1: 1}) * R.monomial(-2), C({0: -1, 1: 1}) * R.monomial(-2), R.monomial(-1, 3j)):
        assert membership(f, SpaceTag.OUTER_MINUS)


# a zero 1e-6 inside the circle, over its mirror moved by 1e-7: one root
# with the mirror under same_root, but |f(1)| is about 0.91
_MIRROR_NEAR_CIRCLE = R(1 / (1 - 1e-6), 0, (Root(1 - 1e-6, 1, "in"),), (Root(1 / (1 - 1e-6) + 1e-7, 1, "out"),))


@pytest.mark.parametrize(
    "f",
    [
        blaschke(0.5) * 2,  # modulus 2
        blaschke(0.5).reciprocal(),  # zero outside
        R.monomial(-1),  # negative power
        R(2.0, 0, (Root(0.5, 1, "in"),), (Root(2.0 * (1 + 3e-7), 1, "out"),)),  # mirror beyond the radius
        R(4.0, 0, (Root(0.5, 2, "in"),), (Root(2.0, 1, "out"),)),  # mirror of a double zero is simple
        R(2.0, 0, (Root(0.5, 1, "in"),), (Root(2.0, 1, "out"), Root(3.0, 1, "out"))),  # a pole left over
        _MIRROR_NEAR_CIRCLE,  # mirror within the radius, |f(1)| about 0.91
        R(2.0, 0, (Root(0.5, 1, "in"),), (Root(2.0 * (1 + 5e-8), 1, "out"),)),  # ditto, |f| - 1 about 1e-7
        R(4.0, 0, (Root(0.5, 2, "in"),), (Root(2.0 * (1 + 4e-10), 2, "out"),)),  # ditto, double, 1.6e-9
    ],
)
def test_inner_plus_rejections(f):
    assert not membership(f, SpaceTag.INNER_PLUS)
    assert not _inner_by_probes(f)


@pytest.mark.parametrize("f", [R.monomial(-2), C({0: -2, 1: 1}) * R.monomial(-2)])
def test_outer_minus_rejections(f):
    assert membership(f, SpaceTag.H2MINUS)
    assert not membership(f, SpaceTag.OUTER_MINUS)
    assert not _outer_minus_by_reflection(f)


def _inner_by_probes(f):
    """INNER_PLUS as it was decided before ``circle_modulus``: H-infinity,
    every zero inside, each zero mirrored within 1e-8 to a pole of its
    multiplicity, as many poles as zeros, and |f| = 1 to 1e-9 at 16 probe
    points."""
    if f.is_zero or not f.membership(SpaceTag.HINF):
        return False
    if f.zpow < 0 or any(r.loc != "in" for r in f.zeros):
        return False
    for r in f.zeros:
        w = 1.0 / r.value.conjugate()
        if not any(abs(p.value - w) <= 1e-8 * max(1.0, abs(w)) and p.mult == r.mult for p in f.poles):
            return False
    if sum(r.mult for r in f.poles) != sum(r.mult for r in f.zeros):
        return False
    return all(abs(abs(f.eval(t)) - 1.0) <= 1e-9 for t in probe_points(16))


def _outer_minus_by_reflection(f):
    """OUTER_MINUS as it was decided before: f in H2-, and conj(f) / z,
    built as a symbol, outer plus."""
    if f.is_zero or not f.membership(SpaceTag.H2MINUS):
        return False
    return (f.conj_circle() * R.monomial(-1)).membership(SpaceTag.OUTER_PLUS)


@pytest.mark.parametrize("constraint", CLASS_CONSTRAINTS)
def test_membership_agrees_with_the_constructions_it_replaced(constraint):
    # 200 samples of the class, circle zeros allowed in every other one, and
    # their conj_circle(), reciprocal() and conj_circle() / z
    verdicts = {SpaceTag.INNER_PLUS: set(), SpaceTag.OUTER_MINUS: set()}
    for i in range(200):
        profile = GENERIC.tighter(class_constraint=constraint, allow_circle_zeros=bool(i % 2))
        f = sample_symbol(profile, trial_rng(5, i))
        for g in (f, f.conj_circle(), f.reciprocal(), f.conj_circle() * R.monomial(-1)):
            inner, outer = membership(g, SpaceTag.INNER_PLUS), membership(g, SpaceTag.OUTER_MINUS)
            assert inner == _inner_by_probes(g)
            assert outer == _outer_minus_by_reflection(g)
            verdicts[SpaceTag.INNER_PLUS].add(inner)
            verdicts[SpaceTag.OUTER_MINUS].add(outer)
    assert verdicts[SpaceTag.OUTER_MINUS] == {True, False}
    if constraint == "inner":
        assert verdicts[SpaceTag.INNER_PLUS] == {True, False}


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


@pytest.mark.parametrize("zero", [0, 0.0, 0j, np.float64(0.0)])
def test_division_by_a_zero_number_raises_zero_denominator(zero):
    f = C({0: 1, 1: 0.5})
    for divisor in (zero, R.zero()):
        with pytest.raises(ZeroDenominator):
            f / divisor


def test_inner_product_matches_fft():
    f = C({0: 1, -1: 2}) / C({0: 3.0, 1: 1})
    g = C({1: 1, 0: -0.5}) / C({0: -0.4, 1: 1})
    got = inner_product(f, g)
    z = fc.circle_grid(8192)
    want = complex(np.mean(fc.eval_json(f.to_json(), z) * np.conj(fc.eval_json(g.to_json(), z))))
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


# ---------------------------------------------------------------- lazy zeros


def _eager_zeros(num, den):
    """The zeros an eager from_fraction locates: those of its deflated numerator."""
    _, n_arr = num.to_array()
    _, d_arr = den.to_array()
    p_arr = rational._cancel_poles(n_arr, d_arr, poly_roots(den).roots)[0]
    found = poly_roots(LaurentPoly.from_array(0, p_arr)).roots if len(p_arr) > 1 else ()
    return rational._sorted_roots(found)


def _located(sym):
    """A copy of sym whose zeros are located before it is used."""
    out = pickle.loads(pickle.dumps(sym))
    out.zeros
    return out


def _same_symbol(x, y):
    return (
        (x.gain, x.zpow, x.zeros, x.poles) == (y.gain, y.zpow, y.zeros, y.poles)
        and dict(x.num.items()) == dict(y.num.items())
        and dict(x.den.items()) == dict(y.den.items())
    )


def _count_poly_roots(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return poly_roots(p)

    monkeypatch.setattr(rational, "poly_roots", counting)
    return calls


def test_lazy_zeros_equal_eager_ones():
    for i in range(40):
        rng = trial_rng(5, i)
        f = sample_l2_function(GENERIC, rng)
        g = sample_symbol(GENERIC, rng)
        for num, den in ((g.num, g.den), (f.num, f.den), ((f * g).num, (f * g).den)):
            sym = R.from_fraction(num, den)
            assert isinstance(sym._zeros, rational._LazyZeros)
            assert sym.zeros == _eager_zeros(num, den)
        parts = [f.riesz("plus"), f.riesz("minus"), f + g, R.from_fraction(g.num, g.den)]
        for x in parts:
            for y in parts + [g]:
                if not (x.is_zero or y.is_zero):
                    assert _same_symbol(x * y, _located(x) * _located(y))


@pytest.mark.parametrize("gap", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
def test_zero_near_a_pole_takes_the_fallback(monkeypatch, gap):
    # a zero this close to a pole fails the value test, which comes first,
    # so no zero is located and the pole stays
    pole = 0.4 + 0.2j
    f = R.from_fraction(LaurentPoly.from_roots([pole + gap, -0.3, 1.7j]), LaurentPoly.from_roots([2.5]))
    g = R(1.0, 0, (), (Root(pole, 1, "in"),))
    calls = _count_poly_roots(monkeypatch)
    lazy = f * g
    assert not calls
    assert [r.value for r in lazy.poles] == [pole, 2.5]
    assert _same_symbol(lazy, _located(f) * g)


def test_cancellation_through_the_fallback():
    pole = 0.4 + 0.2j
    f = R.from_fraction(LaurentPoly.from_roots([pole, -0.3]), LaurentPoly.one())
    g = R(2.0, 0, (), (Root(pole, 1, "in"), Root(3.0, 1, "out")))
    prod = f * g
    assert [r.value for r in prod.poles] == [3.0]
    assert _same_symbol(prod, _located(f) * g)


def test_distant_zeros_are_never_located(monkeypatch):
    f = R.from_fraction(LaurentPoly.from_roots([0.4 + 0.3j, -0.3, 1.7j]), LaurentPoly.from_roots([2.5]))
    g = R(1.0, 0, (), (Root(0.4 + 0.2j, 1, "in"),))
    calls = _count_poly_roots(monkeypatch)
    prod = (f * g) * f
    assert not calls
    assert _same_symbol(prod, (_located(f) * g) * _located(f))


def test_unresolved_zeros_survive_pickling():
    f = R.from_fraction(LaurentPoly({0: 1, 1: -0.5, 3: 2j}), LaurentPoly.from_roots([0.5, 2.0]))
    g = R.from_fraction(LaurentPoly({-1: 1, 2: 0.25}), LaurentPoly.from_roots([-0.3j]))
    for sym in (f, f * g, (f * g) * R.monomial(2)):
        assert isinstance(sym._zeros, rational._LazyZeros)
        back = pickle.loads(pickle.dumps(sym))
        assert back.zeros == sym.zeros and back.zeros


def test_lazy_zeros_keep_the_tolerances_they_were_stored_under():
    f = R.from_fraction(LaurentPoly.from_roots([1.2, -0.5]), LaurentPoly.one())
    eager = _located(f).zeros
    with tolerances.configured(eps_circle=0.5):
        assert f.zeros == eager
    assert [r.loc for r in eager] == ["in", "out"]


def test_riesz_locates_no_zeros(monkeypatch):
    inputs = []
    for i in range(10):
        rng = trial_rng(45, i)
        a, b = sample_symbol(GENERIC, rng), sample_symbol(GENERIC, rng)
        f = sample_l2_function(GENERIC, rng)
        inputs += [b * f.riesz("minus"), a * f.riesz("plus"), (a - b) * f]
    calls = _count_poly_roots(monkeypatch)
    for x in inputs:
        x.riesz("plus")
        x.riesz("minus")
    assert not calls


def test_direct_plus_projection_matches_subtraction():
    worst = 0.0
    for i in range(300):
        rng = trial_rng(11, i)
        f = sample_l2_function(GENERIC, rng)
        if i % 2:
            f = sample_symbol(GENERIC, rng) * f
        K = decay_window([f])
        scale = np.abs(f.fourier_range(-K, K)).max()
        direct = f.riesz("plus").fourier_range(-K, K)
        subtracted = (f - f.riesz("minus")).fourier_range(-K, K)
        worst = max(worst, np.abs(direct - subtracted).max() / scale)
    assert worst <= 1e-15


# ---------------------------------------------------------------- Newton disc


def _exact_root_distance(a0: complex, a1: complex, p: complex) -> Fraction:
    """|p + a0/a1|^2 in exact arithmetic on the floats given."""
    a0r, a0i, a1r, a1i = map(Fraction, (a0.real, a0.imag, a1.real, a1.imag))
    n = a1r * a1r + a1i * a1i
    zr, zi = -(a0r * a1r + a0i * a1i) / n, -(a0i * a1r - a0r * a1i) / n
    return (Fraction(p.real) - zr) ** 2 + (Fraction(p.imag) - zi) ** 2


def test_newton_disc_allows_for_rounding_at_the_radius():
    # a1 (z - z0) with z0 at distance rho from p: where the exact root of
    # the stored coefficients lies beyond rho, the rounded |q(p) / q'(p)|
    # can still fall within rho, and only the rounding slack keeps such a
    # root from being certified
    rng = np.random.default_rng(3)
    beyond = rounded_within = 0
    for i in range(1000):
        p = cmath.rect(rng.uniform(0.2, 0.95) if i % 2 else rng.uniform(1.05, 5.0), rng.uniform(0, 2 * math.pi))
        rho = tolerances.EPS_CLUSTER * max(1.0, abs(p))
        a1 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
        a0 = -a1 * (p + cmath.rect(rho, rng.uniform(0, 2 * math.pi)))
        if _exact_root_distance(a0, a1, p) <= Fraction(rho) ** 2:
            continue
        beyond += 1
        rounded_within += abs(a1 * p + a0) <= rho * abs(a1)
        assert not rational._newton_disc([a0, a1], p)
    assert beyond > 300 and rounded_within > 30


# ---------------------------------------------------------------- cached forms


def _bits(lp: LaurentPoly):
    items = list(lp.items())
    return [k for k, _ in items], np.array([v for _, v in items], dtype=complex).tobytes(), lp.norm_inf()


def test_from_fraction_caches_equal_the_array_path(monkeypatch):
    # where from_fraction or a sum keeps the caller's num and den, they must
    # be what rebuilding them from the arrays gives, bit for bit; both
    # normalize through _reduce
    original = R._reduce.__func__
    kept = []

    def checked(cls, num, den, tested, held=()):
        sym = original(cls, num, den, tested, held)
        if not sym.is_zero:
            n_lo, n_arr = num.to_array()
            d_lo, d_arr = den.to_array()
            p_arr, q_arr, _, _ = rational._cancel_poles(n_arr, d_arr, tested)
            d_lead = d_arr[-1]
            assert _bits(sym._num) == _bits(LaurentPoly.from_array(n_lo - d_lo, p_arr / d_lead))
            assert _bits(sym._den) == _bits(LaurentPoly.from_array(0, q_arr / d_lead))
            kept.append(sym._num is num and sym._den is den)
        return sym

    monkeypatch.setattr(R, "_reduce", classmethod(checked))
    for i in range(30):
        rng = trial_rng(17, i)
        a, b = sample_symbol(GENERIC, rng), sample_symbol(GENERIC, rng)
        f = sample_l2_function(GENERIC, rng)
        for x in (f, a * f, (a - b) * f, f + a):
            x.riesz("plus")
            x.riesz("minus")
    # a cancelled pole and a denominator that is not monic are rebuilt
    pole = LaurentPoly.from_roots([0.5 + 0.25j])
    R.from_fraction(LaurentPoly({0: 1.0, 1: -2.0}) * pole, pole * LaurentPoly.from_roots([2.0]))
    R.from_fraction(LaurentPoly({-1: 1.0, 2: 0.5j}), LaurentPoly.from_roots([0.5, -3.0]).scale(2.0))
    assert any(kept) and not all(kept) and kept[-2:] == [False, False]


def test_a_product_cancels_a_pole_within_rounding_of_zero():
    # the double pole's expansion z^2 - 2e-7 z loses its constant 1e-14 to
    # pruning; the cancellation must still deflate the denominator from z^0
    s = R.from_zpk(1, 0, [Root(1e-7, 1, "in")], [Root(1e-7, 2, "in")])
    assert [(p.value, p.mult) for p in s.poles] == [(1e-7, 1)]
    assert _bits(s.den) == _bits(LaurentPoly({0: -1e-7, 1: 1.0}))
    assert s.reciprocal().fourier(0) == -1e-7
    assert s.conj_circle().equals(R(-1e7, 1, (), [Root(1e7, 1, "out")]))


def test_value_test_bits_do_not_depend_on_the_scalar_type():
    # _cancel_poles runs its Horner loops on Python complex numbers; numpy
    # scalars, which the loops once read, give the same bits
    for i in range(40):
        rng = trial_rng(29, i)
        f = sample_symbol(GENERIC, rng) * sample_l2_function(GENERIC, rng)
        _, arr = f.num.shift(-f.num.lo).to_array()
        for v in [r.value for r in f.poles] + [complex(w) for w in rng.normal(size=(4, 2)) @ [1, 1j]]:
            # the value and the magnitude, each compared bit for bit
            got, want = (np.array(rational._horner_asc(c, v)) for c in (arr, arr.tolist()))
            assert got.tobytes() == want.tobytes()
