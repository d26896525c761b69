import numpy as np
import pytest

from pairedk import LaurentPoly, lp_arith
from pairedk.errors import DegreeOverflow


def LP(d):
    return LaurentPoly(d)


def test_mul_index_shift():
    f = LP({0: 1, -1: 1})  # 1 + 1/z
    g = LP({1: 1})  # z
    out = lp_arith("mul", f, g)
    assert dict(out.items()) == {1: 1, 0: 1}


def test_add_cancellation_gives_empty_map():
    f = LP({2: 1})
    g = LP({2: -1})
    out = lp_arith("add", f, g)
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
    assert dict(lp_arith("scale", f, 0.5).items()) == {0: 1, 3: -0.5}
    assert lp_arith("sub", f, f).is_zero


def test_support_bounds_and_norms():
    f = LP({-2: 3, 5: -4})
    assert f.lo == -2 and f.hi == 5
    assert f.norm_inf() == 4
    assert f.degree_span() == 7


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
