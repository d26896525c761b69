import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairedk import LaurentPoly, RationalSymbol
from pairedk.errors import DegreeOverflow


def LP(d):
    return LaurentPoly(d)


def test_mul_index_shift():
    f = LP({0: 1, -1: 1})  # 1 + 1/z
    g = LP({1: 1})  # z
    out = f * g
    assert dict(out.items()) == {1: 1, 0: 1}


def test_add_cancellation_gives_empty_map():
    f = LP({2: 1})
    g = LP({2: -1})
    out = f + g
    assert out.is_zero
    assert dict(out.items()) == {}


def test_mul_difference_of_squares():
    # (1 - 1/z)(1 + 1/z) = 1 - 1/z^2, checked by expanding by hand
    f = LP({0: 1, -1: -1})
    g = LP({0: 1, -1: 1})
    out = f * g
    assert dict(out.items()) == {0: 1, -2: -1}


def test_scale_and_sub():
    f = LP({0: 2, 3: -1})
    assert dict(f.scale(0.5).items()) == {0: 1, 3: -0.5}
    assert (f - f).is_zero


def test_a_pruned_coefficient_inside_the_block_is_held_as_positive_zero():
    f = LP({0: 2, 3: -1j})
    for g in (f, -f, f.conj_reflect(), f.scale(-1)):
        block = g.to_array()[1]
        assert block[1:3].tobytes() == np.zeros(2, dtype=complex).tobytes()
    assert dict((-f).items()) == {0: -2, 3: 1j} and repr(-f) == "LaurentPoly((-2-0j) + (0+1j)z^3)"
    assert repr(LaurentPoly()) == "LaurentPoly(0)"


def test_support_bounds_and_norms():
    f = LP({-2: 3, 5: -4})
    assert f.lo == -2 and f.hi == 5
    assert f.norm_inf() == 4
    assert f.degree_span() == 7


def test_support_bounds_follow_arithmetic_and_refuse_the_zero_polynomial():
    f, g = LP({-2: 3, 5: -4}), LP({1: 1, 4: 2j})
    for h in (f + g, f - g, f * g, f.shift(-3), f.conj_reflect(), f - LP({5: -4})):
        assert (h.lo, h.hi) == (min(h.support()), max(h.support()))
    for zero in (LaurentPoly(), f - f, LaurentPoly({0: 1e-30}, scale=1.0)):
        with pytest.raises(ValueError):
            zero.lo
        with pytest.raises(ValueError):
            zero.hi


def test_eval_two_sided_horner():
    f = LP({-2: 1, 0: 2, 3: -1})
    z = 0.7 + 0.2j
    expect = z ** -2 + 2 - z ** 3
    assert abs(f.eval(z) - expect) < 1e-14


def test_conj_reflect():
    f = LP({1: 1j, -2: 2})
    cr = f.conj_reflect()
    assert dict(cr.items()) == {-1: -1j, 2: 2}


def test_from_roots_expansion_exact():
    f = LaurentPoly.from_roots([1.0, -1.0])
    assert dict(f.items()) == {0: -1, 2: 1}


def test_prune_relative_to_scale():
    f = LaurentPoly({0: 1.0, 5: 1e-20})
    assert dict(f.items()) == {0: 1.0}


def test_runaway_span_guard():
    with pytest.raises(DegreeOverflow):
        LaurentPoly({0: 1, 5000: 1})


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), complex(1.0, float("-inf")), complex(float("nan"), 0.0), np.inf]
)
def test_non_finite_coefficients_raise(bad):
    with pytest.raises(ValueError):
        LaurentPoly({0: 1.0, 2: bad})


def test_finite_coefficients_whose_moduli_overflow_a_sum_are_accepted():
    f = LaurentPoly({0: 1e308, 1: 1e308})
    assert dict(f.items()) == {0: 1e308, 1: 1e308}
    assert f.norm_inf() == 1e308
    g = LaurentPoly({0: complex(1e308, 1e308), -3: -1e308})
    assert g.lo == -3 and g.norm_inf() == abs(complex(1e308, 1e308))


def test_norm_inf_is_the_largest_kept_modulus():
    f = LaurentPoly({0: 3 + 4j, 1: -2, 2: 1e-20})
    assert f.norm_inf() == 5.0 and 2 not in dict(f.items())
    assert LaurentPoly({0: 1.0}, scale=1e20).norm_inf() == 0.0
    assert LaurentPoly().norm_inf() == 0.0


coefficients = st.one_of(st.just(0j), st.builds(cmath.rect, st.floats(0.1, 1.0), st.floats(-3.1, 3.1)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(coefficients, min_size=8, max_size=8),
    st.integers(-4, 4),
    st.permutations(range(8)),
    st.lists(coefficients, min_size=1, max_size=8),
)
def test_no_result_depends_on_the_order_coefficients_were_listed(vals, lo, order, other):
    # the same coefficients listed in ascending order, in any other order,
    # and reflected twice give the same bits in every result built on them
    ascending = {lo + i: v for i, v in enumerate(vals)}
    q = LaurentPoly(dict(enumerate(other, -2)))
    den = LaurentPoly.from_roots([0.4 + 0.2j, -2.5])

    def results(p):
        lo, block = p.to_array()
        window = RationalSymbol.from_fraction(p, den).fourier_range(-12, 12)
        return lo, block.tobytes(), (p * q).to_array()[1].tobytes(), (q * p).to_array()[1].tobytes(), window.tobytes()

    listed = LaurentPoly({lo + i: vals[i] for i in order})
    forms = (LaurentPoly(ascending), listed, LaurentPoly(ascending).conj_reflect().conj_reflect())
    assert len({results(p) for p in forms}) == 1


def test_to_array_from_a_start_pads_below_the_block():
    # a root within rounding of 0 prunes the constant term; the view from
    # z^0 keeps the degree
    p = LaurentPoly.from_roots([1e-7, 1e-7])
    assert p.lo == 1
    lo, arr = p.to_array(0)
    assert lo == 0 and arr.tolist() == [0j, -2e-7 + 0j, 1 + 0j]
    assert p.to_array(1)[1].tolist() == p.to_array()[1].tolist()
    with pytest.raises(ValueError):
        p.to_array(2)
