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


def test_a_zero_coefficient_inside_the_block_is_held_as_positive_zero():
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
    for zero in (LaurentPoly(), f - f, LaurentPoly({-1: 0j, 2: -0.0}), LaurentPoly.from_array(3, np.zeros(4))):
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


def test_only_exact_zeros_are_trimmed():
    # however small against the others, a nonzero coefficient stays; exact
    # zeros at the ends are trimmed and those inside held as +0j
    f = LaurentPoly({-3: 0j, 0: 1.0, 5: 1e-300, 7: -0.0})
    assert (f.lo, f.hi) == (0, 5) and dict(f.items()) == {0: 1.0, 5: 1e-300}
    g = LaurentPoly.from_array(-2, np.array([0.0, -0.0, 1e-20, -0.0, 1.0, 0.0]))
    assert (g.lo, g.hi) == (0, 2) and g.to_array()[1].tobytes() == np.array([1e-20, 0j, 1.0]).tobytes()
    assert dict((LaurentPoly({0: 1.0}) - LaurentPoly({0: 1.0 - 2**-52, 1: 1.0})).items()) == {0: 2**-52, 1: -1.0}


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
    assert f.norm_inf() == 5.0 and dict(f.items())[2] == 1e-20
    assert (f * LaurentPoly({0: 1e-20})).norm_inf() == 5e-20
    assert LaurentPoly({0: 0j}).norm_inf() == 0.0 and LaurentPoly().norm_inf() == 0.0


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
    # the constant term 1e-340 of a double root at 1e-170 underflows to 0;
    # the view from z^0 keeps the degree
    p = LaurentPoly.from_roots([1e-170, 1e-170])
    assert p.lo == 1
    lo, arr = p.to_array(0)
    assert lo == 0 and arr.tolist() == [0j, -2e-170 + 0j, 1 + 0j]
    assert p.to_array(1)[1].tolist() == p.to_array()[1].tolist()
    with pytest.raises(ValueError):
        p.to_array(2)


def _snapshot(p):
    lo, block = p.to_array()
    return lo, block.tobytes(), p.norm_inf()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(coefficients, min_size=1, max_size=8),
    st.lists(coefficients, min_size=1, max_size=8),
    st.integers(-4, 4),
    st.lists(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=4),
    coefficients,
)
def test_no_operation_changes_a_block(vals, other, n, roots, a):
    # a result may keep the list its arithmetic built, and shift shares its
    # operand's, so no operation may change a block after construction
    p, q = LaurentPoly(dict(enumerate(vals, -2))), LaurentPoly(dict(enumerate(other, n)))
    r = LaurentPoly.from_roots(roots)
    t = p.shift(n)
    operands = (p, q, r, t)
    before = [_snapshot(x) for x in operands]
    results = [p + q, p - q, q - p, p * q, q * p, -p, p.scale(a), p.conj_reflect(), r * p, r + q, r.shift(n)]
    results += [t + q, t - p, t * q, -t, t.scale(a), t.shift(-n), t.conj_reflect(), t.shift(0)]
    results.append(LaurentPoly.from_roots(roots))  # the memo's shared result
    kept = [_snapshot(x) for x in results]
    for x in operands + tuple(results):
        start = x.lo - 2 if not x.is_zero else -2
        for lo in (None, start, start + 2):
            x.to_array(lo)[1][:] = complex("nan")
    assert [_snapshot(x) for x in operands] == before
    assert [_snapshot(x) for x in results] == kept
    assert _snapshot(LaurentPoly.from_roots(roots)) == before[2]
