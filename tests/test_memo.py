"""The memos of pole-only data: ``LaurentPoly.from_roots`` expansions, the
Bezout split of 1/den and its coefficient streams.  A warm result must be
the cold one bit for bit, keys must tell apart inputs that differ in any
bit, and every memo must stay within its bound."""

import pickle

import numpy as np
import pytest

from pairedk import LaurentPoly, RationalSymbol
from pairedk import laurent, rational
from pairedk.laurent import MEMO_SIZE
from pairedk.properties import GENERIC, RunConfig, run_property
from pairedk.roots import LOC_IN, LOC_OUT, Root
from pairedk.sampling import sample_l2_function, sample_symbol, trial_rng

R = RationalSymbol


@pytest.fixture(autouse=True)
def cold_memos():
    laurent._expand.cache_clear()
    rational._split.cache_clear()
    yield
    laurent._expand.cache_clear()
    rational._split.cache_clear()


def bits(p: LaurentPoly):
    """Exponents and the exact bytes of the coefficients, in storage order."""
    return list(dict(p.items())), np.array(list(dict(p.items()).values()), dtype=complex).tobytes()


def expand_reference(roots, lead=1.0):
    """The expansion without a memo."""
    arr = np.array([lead], dtype=complex)
    for r in sorted(roots, key=lambda w: (w.real, w.imag)):
        arr = np.convolve(arr, np.array([-r, 1.0], dtype=complex))
    return LaurentPoly(dict(enumerate(arr.tolist())))


def series_reference(num, den, order):
    """Power-series quotient without a head, as a fresh computation gives it."""
    out = np.zeros(order, dtype=complex)
    for i in range(order):
        acc = num[i] if i < len(num) else 0.0
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out[i] = acc / den[0]
    return out


def mixed_symbol():
    """Two poles inside, two outside, a double one among them."""
    poles = [Root(0.3 + 0.2j, 1, LOC_IN), Root(-0.5j, 2, LOC_IN), Root(2.0 - 1.0j, 1, LOC_OUT), Root(-3.0, 1, LOC_OUT)]
    zeros = [Root(0.7 + 0.1j, 1, LOC_IN), Root(1.9j, 1, LOC_OUT)]
    return R(1.5 - 0.5j, -2, zeros, poles)


ROOT_SETS = [
    ([], 1.0),
    ([0.5, -1.0], 1.0),
    ([2, 0.5 + 0.5j, complex(0.5, -0.0), np.complex128(-0.25 + 1j)], 2.0 - 1.0j),
    ([1e-3j, 4.0, 4.0, -2.5 + 0.1j], -3.0),
]


@pytest.mark.parametrize("roots, lead", ROOT_SETS)
def test_from_roots_cold_and_warm_equal_the_unmemoized_expansion(roots, lead):
    want = bits(expand_reference(roots, lead))
    cold = LaurentPoly.from_roots(roots, lead)
    warm = LaurentPoly.from_roots(list(reversed(roots)), lead)
    assert bits(cold) == want and bits(warm) == want
    assert warm is cold and laurent._expand.cache_info().hits == 1


def test_split_and_windows_cold_and_warm_are_identical():
    cold = mixed_symbol()
    window = cold.fourier_range(-70, 70).tobytes()
    plus, minus = cold.riesz("plus").to_json(), cold.riesz("minus").to_json()
    split = cold._invden_split()
    arrays = [arr.tobytes() for arr in (split.a, split.d_in, split.b, split.d_out)]
    for warm_split in (True, False):
        if not warm_split:
            rational._split.cache_clear()
        warm = mixed_symbol()
        assert (warm._invden_split() is split) == warm_split
        again = warm._invden_split()
        assert [arr.tobytes() for arr in (again.a, again.d_in, again.b, again.d_out)] == arrays
        assert warm.fourier_range(-70, 70).tobytes() == window
        assert warm.riesz("plus").to_json() == plus and warm.riesz("minus").to_json() == minus


@pytest.mark.parametrize("side", [LOC_IN, LOC_OUT])
def test_streams_short_long_short_match_fresh_quotients(side):
    split = mixed_symbol()._invden_split()
    if side == LOC_IN:
        a_rev = np.zeros(len(split.d_in) - 1, dtype=complex)
        a_rev[: len(split.a)] = split.a
        num, den = a_rev[::-1], split.d_in[::-1]
    else:
        num, den = split.b, split.d_out
    for order in (7, 90, 7, 40, 91):
        got = split.stream(side, order)
        assert got.tobytes() == series_reference(num, den, order).tobytes()
    assert len(split._streams[side]) == 91


def test_signed_zero_parts_get_separate_entries():
    plain, signed = complex(0.5, 0.0), complex(0.5, -0.0)
    assert plain == signed  # so a key of complex values would merge them
    a, b = LaurentPoly.from_roots([plain]), LaurentPoly.from_roots([signed])
    assert a is not b and laurent._expand.cache_info().currsize == 2
    assert bits(a) == bits(expand_reference([plain])) and bits(b) == bits(expand_reference([signed]))
    # without roots the lead is the coefficient, signed zero included
    one, signed_one = LaurentPoly.from_roots([], 1.0), LaurentPoly.from_roots([], complex(1.0, -0.0))
    assert bits(one) != bits(signed_one) and bits(signed_one) == bits(expand_reference([], complex(1.0, -0.0)))


def test_split_key_is_the_denominator_bits_it_reads():
    out = Root(2.0, 1, LOC_OUT)
    splits = [R(1.0, 0, (), (Root(v, 1, LOC_IN), out))._invden_split() for v in (complex(0.5, 0.0), complex(0.5, -0.0))]
    # both poles expand to the same denominator bits, so one solve serves both
    assert splits[0] is splits[1] and rational._split.cache_info().currsize == 1
    assert splits[0].d_in.tobytes() == np.array([-0.5, 1.0], dtype=complex).tobytes()
    shifted = R(1.0, 0, (), (Root(0.5 + 1e-16j, 1, LOC_IN), out))._invden_split()
    assert shifted is not splits[0] and rational._split.cache_info().currsize == 2


def test_split_factors_are_the_expansions_of_each_sides_poles():
    symbols = [mixed_symbol(), R.monomial(-2, 0.5), R(2.0, 1, (), (Root(-0.5j, 3, LOC_IN),))]
    for i in range(20):
        rng = trial_rng(23, i)
        symbols += [sample_symbol(GENERIC, rng), sample_l2_function(GENERIC, rng)]
    for sym in symbols:
        split = sym._invden_split()
        for side in (LOC_IN, LOC_OUT):
            roots = [r.value for r in sym.poles if (r.loc == LOC_IN) == (side == LOC_IN) for _ in range(r.mult)]
            want = LaurentPoly.from_roots(roots)
            poly, arr = (split.den_in, split.d_in) if side == LOC_IN else (split.den_out, split.d_out)
            assert bits(poly) == bits(want) and poly.norm_inf() == want.norm_inf()
            assert (poly.lo, poly.hi) == (0, len(roots))
            assert arr.tobytes() == want.to_array()[1].tobytes() and not arr.flags.writeable


def test_memos_stay_within_their_bound():
    for k in range(MEMO_SIZE + 40):
        pole = 0.1 + k * 1e-3
        LaurentPoly.from_roots([pole])
        R(1.0, 0, (), (Root(pole, 1, LOC_IN), Root(3.0, 1, LOC_OUT)))._invden_split()
    for memo in (laurent._expand, rational._split):
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize == MEMO_SIZE


def test_shared_arrays_are_read_only():
    split = mixed_symbol()._invden_split()
    shared = [split.a, split.d_in, split.b, split.d_out, split.stream(LOC_IN, 12), split.stream(LOC_OUT, 12)]
    for arr in shared:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_symbol_with_a_memoized_split_survives_pickling():
    first = mixed_symbol()
    first.fourier_range(-30, 30)
    sym = mixed_symbol()
    window = sym.fourier_range(-30, 30)
    assert sym._invden is first._invden  # served by the memo
    back = pickle.loads(pickle.dumps(sym))
    assert back._invden is not sym._invden
    assert back.fourier_range(-30, 30).tobytes() == window.tobytes()
    assert back.fourier_range(-60, 60).tobytes() == sym.fourier_range(-60, 60).tobytes()
    assert back.riesz("minus").to_json() == sym.riesz("minus").to_json()
    assert back.riesz("plus").to_json() == sym.riesz("plus").to_json()


def test_commexp_trial_solves_each_mixed_pole_set_once(monkeypatch):
    solves, mixed = [], set()
    real_solve, real_split = np.linalg.solve, R._invden_split

    def solve(*args):
        solves.append(1)
        return real_solve(*args)

    def split(self):
        locs = {r.loc for r in self.poles}
        if LOC_IN in locs and locs - {LOC_IN}:
            mixed.add(tuple((np.complex128(r.value).tobytes(), r.mult, r.loc) for r in self.poles))
        return real_split(self)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(R, "_invden_split", split)
    report = run_property("P_COMMEXP", 1, 45, RunConfig(parallelism=1))
    assert report.all_pass()
    assert mixed and len(solves) <= len(mixed)
