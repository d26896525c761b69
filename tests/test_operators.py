import json

import numpy as np
import pytest

from pairedk import (
    Adjoint,
    Commutator,
    Compose,
    DualToeplitz,
    Hankel,
    HankelTilde,
    Mult,
    Paired,
    ProjMinus,
    ProjPlus,
    RationalSymbol,
    Scale,
    Sum,
    SymbolPair,
    Toeplitz,
    Transposed,
    adjoint_residual,
    apply_exact,
    ast_from_json,
    ast_to_json,
    bandwidth,
    blaschke,
    build,
    numerical_rank,
    operator_norm,
    truncate,
)
from pairedk import operators as ops
from pairedk import properties as props
from pairedk.errors import DomainMismatch, SymbolNotBounded, WindowOverflow
from pairedk.roots import Root
from pairedk.sampling import sample_symbol, trial_rng

import fftcheck as fc

R = RationalSymbol


def C(d):
    return R.from_coeffs(d)


A_CZ = C({0: 1, -1: 1})  # 1 + 1/z
B_CZ = C({0: 1, 1: 1})  # z + 1


# ---------------------------------------------------------------- build


def test_build_validates_and_flags():
    node = build(Paired(A_CZ, B_CZ))
    assert SymbolPair(node.a, node.b).nondegenerate


def test_build_rejects_circle_pole_symbol():
    with pytest.raises(SymbolNotBounded):
        build(Paired(B_CZ.reciprocal(), R.const(1)))


def test_adjoint_normalizes_to_transposed():
    node = build(Adjoint(Paired(R.monomial(1), R.const(1))))
    assert isinstance(node, Transposed)
    assert node.a.equals(R.monomial(-1))
    assert node.b.equals(R.const(1))


def test_adjoint_of_transposed_and_hankel():
    assert isinstance(build(Adjoint(Transposed(A_CZ, B_CZ))), Paired)
    assert isinstance(build(Adjoint(Hankel(A_CZ))), HankelTilde)


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatch):
        build(Compose(Toeplitz(A_CZ.conj_circle()), Hankel(B_CZ)))


# ---------------------------------------------------------------- apply


def test_apply_circle_zero_pair_annihilates():
    f = C({0: 1, -1: -1})
    assert apply_exact(Paired(A_CZ, B_CZ), f).is_zero


def test_apply_toeplitz_kills_negative_shift():
    assert apply_exact(Toeplitz(R.monomial(-1)), R.const(1)).is_zero


def test_apply_commutator_rank_one_action():
    out = apply_exact(Commutator(Paired(R.monomial(1), R.const(1)), Mult(R.monomial(1))), R.monomial(-1))
    assert out.equals(C({1: 1, 0: -1}))


def test_apply_matches_boundary_sampling():
    a = C({0: 1, 1: 0.5j}) / C({0: 2.4, 1: 1})
    b = C({0: 1, -1: -0.3}) / C({0: -0.4 + 0.1j, 1: 1})
    f = C({-2: 1, 1: 1j}) / C({0: 3.0, 1: 1})
    z = fc.circle_grid(8192)
    av, bv, fv = (fc.eval_json(s.to_json(), z) for s in (a, b, f))
    got = apply_exact(Paired(a, b), f)
    want = av * fc.riesz(fv, "plus") + bv * fc.riesz(fv, "minus")
    assert np.abs(fc.eval_json(got.to_json(), z) - want).max() < 1e-10
    got2 = apply_exact(Transposed(a, b), f)
    want2 = fc.riesz(av * fv, "plus") + fc.riesz(bv * fv, "minus")
    assert np.abs(fc.eval_json(got2.to_json(), z) - want2).max() < 1e-10


def test_apply_domain_check():
    with pytest.raises(DomainMismatch):
        apply_exact(Toeplitz(A_CZ.conj_circle()), R.monomial(-2))


# ---------------------------------------------------------------- truncation


def test_truncate_shift_matrix():
    M = truncate(Mult(R.monomial(1)), 1)
    assert M.entries.shape == (5, 3)
    for c, j in enumerate(M.in_indices):
        col = M.entries[:, c]
        k = np.where(np.abs(col) > 0)[0]
        assert list(M.out_indices[k]) == [j + 1]


def test_truncate_signature_matrix():
    M = truncate(Paired(R.const(1), R.const(-1)), 8)
    assert M.entries.shape == (17, 17)
    diag = np.diag(M.entries)
    signs = np.where(M.in_indices >= 0, 1.0, -1.0)
    assert np.abs(diag - signs).max() == 0.0


def test_truncate_commutator_rank_one():
    node = Commutator(Paired(R.monomial(1), R.const(1)), Mult(R.monomial(1)))
    res = numerical_rank(truncate(node, 16))
    assert res.rank == 1 and not res.indeterminate


def test_truncate_polynomial_exactness():
    # integer-coefficient inputs map exactly: matvec equals exact image window
    node = Paired(A_CZ, B_CZ)
    M = truncate(node, 6)
    f = C({-3: 2, 0: 1, 4: -3})
    vec = np.zeros(len(M.in_indices), dtype=complex)
    for k, v in f.num.items():
        vec[np.where(M.in_indices == k)[0][0]] = v
    got = M.entries @ vec
    img = apply_exact(node, f)
    want = img.fourier_range(int(M.out_indices[0]), int(M.out_indices[-1]))
    assert np.abs(got - want).max() == 0.0


def test_truncate_window_guard():
    with pytest.raises(WindowOverflow):
        truncate(Mult(R.monomial(3)), 1)
    with pytest.raises(WindowOverflow):
        truncate(Mult(R.monomial(1)), 5000)


def test_toeplitz_windows_respect_domain():
    M = truncate(Toeplitz(A_CZ.conj_circle()), 4)
    assert M.in_indices.min() == 0
    assert M.out_indices.min() == 0
    # the H2- windows at N = 0 are empty
    for node in (DualToeplitz(R.const(2)), Compose(DualToeplitz(R.const(2)), DualToeplitz(R.const(3)))):
        assert truncate(node, 0).entries.shape == (0, 0)


# ---------------------------------------------------------------- norms/ranks


def test_operator_norm_examples():
    assert operator_norm(Paired(R.const(1), R.const(-1)), 8) == pytest.approx(1.0)
    assert operator_norm(Mult(R.const(2)), 8) == pytest.approx(2.0)
    n = operator_norm(Paired(A_CZ, B_CZ), 128)
    assert 2.0 <= n <= 2.0 * np.sqrt(2.0) + 1e-9


def _svd_norm(node, N):
    return float(np.linalg.svd(truncate(node, N).entries, compute_uv=False)[0])


def _p_norm_operators(monkeypatch, seed, trials=6):
    """The Paired nodes that P_NORM's trials at ``seed`` take the norm of."""
    nodes = []
    monkeypatch.setattr(props, "operator_norm", lambda node, N: nodes.append(node) or operator_norm(node, N))
    assert props.run_property("P_NORM", trials, seed).passes == trials
    return nodes


def _krylov_calls(monkeypatch):
    """The return value of every ``_krylov_norm`` call from here on."""
    calls, real = [], ops._krylov_norm
    monkeypatch.setattr(ops, "_krylov_norm", lambda A: calls.append(real(A)) or calls[-1])
    return calls


@pytest.mark.parametrize("seed, trials", [(0, 6), (50, 24)])
def test_operator_norm_certifies_p_norm_operators_by_krylov(monkeypatch, seed, trials):
    # constant-modulus symbols: the Krylov phase certifies the top value; at
    # seed 50 a certificate loosened to 1e-6 would miss the SVD by up to 6.8e-13
    nodes = _p_norm_operators(monkeypatch, seed, trials)
    calls = _krylov_calls(monkeypatch)
    for node in nodes:
        ref = _svd_norm(node, props.NORM_N)
        norm = operator_norm(node, props.NORM_N)
        assert calls[-1] == norm
        assert abs(norm - ref) <= 4e-15 * ref
    assert len(calls) == len(nodes)


def test_operator_norm_falls_back_to_the_svd_bit_for_bit(monkeypatch):
    nodes = _p_norm_operators(monkeypatch, 7, 3)
    monkeypatch.setattr(ops, "_krylov_norm", lambda A: None)
    for node in nodes:
        assert operator_norm(node, props.NORM_N) == _svd_norm(node, props.NORM_N)


def test_operator_norm_takes_the_svd_for_general_symbols(monkeypatch):
    rng = trial_rng(0, 0)
    a, b = sample_symbol(props.GENERIC, rng), sample_symbol(props.GENERIC, rng)
    assert a.circle_modulus() is None and b.circle_modulus() is None
    calls = _krylov_calls(monkeypatch)
    for node in (Paired(a, b), Transposed(a, b), Toeplitz(a), Compose(Paired(a, b), Transposed(b, a))):
        assert operator_norm(node, 64) == _svd_norm(node, 64)
    assert calls == []


def test_constant_modulus_symbols():
    # circle_modulus bounds |f| on the circle: exactly where each zero's
    # mirror is its pole, and to its spread where the mirror is only one
    # root with the pole under same_root
    inner = blaschke(0.5) * blaschke(-0.3 + 0.6j, 2) * R.monomial(3)
    constant = [R.const(2j), R.monomial(-2, 0.5), inner * 1.5, inner.reciprocal(), inner.conj_circle()]
    constant += [sample_symbol(props.GENERIC.tighter(class_constraint="inner"), trial_rng(6, i)) * (i + 0.5) for i in range(20)]
    moved = [R(2.0, 0, (Root(0.5, 1, "in"),), (Root(2.0 * (1 + 5e-8), 1, "out"),))]
    moved += [R(1 / (1 - 1e-6), 0, (Root(1 - 1e-6, 1, "in"),), (Root(1 / (1 - 1e-6) + 1e-7, 1, "out"),))]
    for symbols, exact in ((constant, True), (moved, False)):
        for s in symbols:
            modulus, spread = s.circle_modulus()
            assert abs(modulus - s.sup_circle()) <= (spread + 1e-12) * modulus
            assert (spread < 1e-12) == exact
    # (z - 0.5) / (z - 3): the zero's mirror is 2, not the pole; two zeros
    # 1e-9 apart both mirror to the pole at 2, and the pole at 3 is left over
    two = R(1.0, 0, (Root(0.5, 1, "in"), Root(0.5 + 1e-9, 1, "in")), (Root(2.0, 1, "out"), Root(3.0, 1, "out")))
    for s in (R.zero(), A_CZ, B_CZ, blaschke(0.5) + R.const(1), C({0: -0.5, 1: 1}) / C({0: -3, 1: 1}), two):
        assert s.circle_modulus() is None


@pytest.mark.parametrize("N", [64, 128])
def test_operator_norm_of_constant_modulus_operators(N):
    # either path lands within 4 eps of the SVD; at N = 64 the Transposed
    # node passes a Ritz value 9e-14 below the top after 4 steps
    x, y = blaschke(0.8), R.monomial(-1, 0.5)
    nodes = (Transposed(x, y), Paired(x, y), Compose(Paired(x, y), Transposed(y, x)), Commutator(Paired(x, y), Mult(y)))
    for node in nodes:
        ref = _svd_norm(node, N)
        assert abs(operator_norm(node, N) - ref) <= 4e-15 * ref


def test_operator_norm_of_an_isolated_simple_top_value():
    # 2.3094 is simple and 15 % above the next value, 1.99985
    s = np.linalg.svd(truncate(Paired(A_CZ, B_CZ), 128).entries, compute_uv=False)
    assert s[0] > 1.15 * s[1]
    assert abs(operator_norm(Paired(A_CZ, B_CZ), 128) - s[0]) <= 4e-15 * s[0]


def test_operator_norm_of_zero_and_empty_truncations():
    assert operator_norm(Paired(R.zero(), R.zero()), 32) == 0.0
    assert operator_norm(DualToeplitz(R.const(2)), 0) == 0.0


def test_operator_norm_repeats_bit_for_bit(monkeypatch):
    for node in _p_norm_operators(monkeypatch, 0, 2) + [Paired(A_CZ, B_CZ)]:
        assert operator_norm(node, 128) == operator_norm(node, 128)


@pytest.mark.parametrize("seed", [0, 7])
def test_golub_kahan_bases_stay_orthonormal(monkeypatch, seed):
    # Paige: without reorthogonalization the top value still converges, but
    # the bases of these constant-modulus operators lose orthogonality
    for node in _p_norm_operators(monkeypatch, seed, 3):
        A = truncate(node, props.NORM_N).entries
        for U, V, B in ops._golub_kahan(A, 12):
            k = len(U)
            assert np.abs(U.conj() @ U.T - np.eye(k)).max() < 1e-14
            assert np.abs(V.conj() @ V.T - np.eye(k)).max() < 1e-14
            assert np.abs(A @ V.T - U.T @ B[:, :-1]).max() < 1e-14 * B.max()


def test_numerical_rank_zero_matrix():
    res = numerical_rank(np.zeros((4, 4)))
    assert res.rank == 0 and res.gap == float("inf")


def test_numerical_rank_certifies_full_rank_by_its_smallest_value():
    # at full rank the threshold stands in for the missing value below it:
    # 5e-8 is only 500x the threshold 1e-10, short of the 1e3 certificate
    res = numerical_rank(np.diag([1.0, 5e-8]), 1e-10)
    assert res.rank == 2 and res.gap == pytest.approx(500.0) and res.indeterminate
    res = numerical_rank(np.diag([1.0, 1e-3]), 1e-10)
    assert res.rank == 2 and res.gap == pytest.approx(1e7) and not res.indeterminate


def test_numerical_rank_commuting_case():
    # all four symbols split analytically: the paired operators commute
    a = C({0: 1, 1: 0.5}) / C({0: -3, 1: 1})
    at = C({0: 2, 2: 0.25}) / C({0: 1.9, 1: 1})
    b = a.conj_circle()
    bt = at.conj_circle()
    node = Commutator(Paired(a, b), Paired(at, bt))
    res = numerical_rank(truncate(node, 24), 1e-8)
    assert res.rank == 0


# ---------------------------------------------------------------- adjoints


def test_adjoint_residual_constant_difference():
    X = Paired(C({0: 1, 1: 1}), R.monomial(1))
    Y = Paired(C({0: 1, -1: 1}), R.monomial(-1))
    assert adjoint_residual(X, Y, 8) <= 1e-12


def test_adjoint_residual_true_adjoint():
    X = Paired(R.monomial(1), R.const(1))
    Y = Transposed(R.monomial(-1), R.const(1))
    assert adjoint_residual(X, Y, 8) <= 1e-12


def test_adjoint_residual_wrong_candidate():
    X = Paired(R.monomial(1), R.const(1))
    Y = Paired(R.monomial(-1), R.const(1))
    assert adjoint_residual(X, Y, 8) > 0.5


def test_adjoint_residual_over_declared_spaces():
    # compressions are probed on the monomials of their own Hardy spaces
    a = C({0: 1, 1: 0.5j, -2: 0.25}) / C({0: 2.4, 1: 1})
    assert adjoint_residual(Toeplitz(a), Toeplitz(a.conj_circle()), 8) <= 1e-12
    assert adjoint_residual(Hankel(a), HankelTilde(a.conj_circle()), 8) <= 1e-12
    with pytest.raises(DomainMismatch):
        adjoint_residual(Hankel(a), Hankel(a.conj_circle()), 8)


# ---------------------------------------------------------------- wire form


def test_ast_json_round_trip():
    node = Commutator(
        Compose(Paired(A_CZ, B_CZ), Scale(2.0 - 1j, Sum(ProjPlus(), ProjMinus()))),
        Mult(R.monomial(1)),
    )
    back = ast_from_json(ast_to_json(node))
    f = C({-2: 1, 3: -2})
    assert apply_exact(back, f).equals(apply_exact(node, f))


def test_bandwidth_accumulates():
    assert bandwidth(Mult(R.monomial(1))) == 1
    assert bandwidth(Compose(Mult(R.monomial(2)), Mult(R.monomial(1)))) == 3


# ---------------------------------------------------------------- every op

A_P = C({0: 1, 1: 0.5j}) / C({0: 2.4, 1: 1})  # pole outside the disc
B_P = C({0: 1, -1: -0.3}) / C({0: -0.4 + 0.1j, 1: 1})  # pole inside

# op -> (expression, class of its normalized adjoint)
EVERY_OP = {
    "paired": (Paired(A_P, B_P), Transposed),
    "transposed": (Transposed(A_P, B_P), Paired),
    "toeplitz": (Toeplitz(A_P), Toeplitz),
    "dual_toeplitz": (DualToeplitz(B_P), DualToeplitz),
    "hankel": (Hankel(B_P), HankelTilde),
    "hankel_tilde": (HankelTilde(A_P), Hankel),
    "mult": (Mult(B_P), Mult),
    "proj_plus": (ProjPlus(), ProjPlus),
    "proj_minus": (ProjMinus(), ProjMinus),
    "compose": (Compose(Paired(A_P, B_P), Mult(A_P)), Compose),
    "sum": (Sum(Paired(A_P, B_P), ProjMinus()), Sum),
    "scale": (Scale(2.0 - 1j, Transposed(B_P, A_P)), Scale),
    "adjoint": (Adjoint(Hankel(A_P)), Hankel),
    "commutator": (Commutator(Paired(A_P, B_P), Mult(R.monomial(1))), Commutator),
}


@pytest.mark.parametrize("op", sorted(EVERY_OP))
def test_every_op_wire_form_adjoint_and_truncation(op):
    node, adjoint_cls = EVERY_OP[op]
    wire = ast_to_json(node)
    assert json.dumps(ast_to_json(ast_from_json(wire))) == json.dumps(wire)
    assert isinstance(build(Adjoint(node)), adjoint_cls)
    M = truncate(node, 6)
    assert list(M.out_indices) == list(range(M.out_indices[0], M.out_indices[-1] + 1))
    want = _exact_columns(node, M)
    assert np.abs(M.entries - want).max() <= 1e-12 * np.abs(want).max()


def _exact_columns(node, M):
    lo, hi = int(M.out_indices[0]), int(M.out_indices[-1])
    return np.stack([apply_exact(node, R.monomial(int(j))).fourier_range(lo, hi) for j in M.in_indices], axis=1)


def test_truncate_sum_of_compressions_into_l2():
    # the summands' codomains differ, so the rows run over L2 and each
    # compression must zero the rows its projection removes
    node = Sum(Toeplitz(A_P), Hankel(B_P))
    M = truncate(node, 6)
    assert M.out_indices.min() < 0 <= M.in_indices.min()
    want = _exact_columns(node, M)
    assert np.abs(M.entries - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------- one truncation path

R07_IN = C({0: 1, 1: 0.5}) / C({0: -0.7, 1: 1})  # pole at 0.7
R07_OUT = C({0: 1, -1: -0.3j}) / C({0: 1, 1: -0.7})  # pole at 1/0.7
R07_ETA = C({0: 0.5, 2: 1}) / (C({0: 0.69j, 1: 1}) * C({0: -1.45, 1: 1}))


def _grid_window(node, M, n=4096):
    """FFT-grid reference: each column applies the node to the sampled z^j."""
    zs = fc.circle_grid(n)
    vals = {}

    def sampled(s):
        if id(s) not in vals:
            vals[id(s)] = fc.eval_json(s.to_json(), zs)
        return vals[id(s)]

    def act(nd, v):
        if isinstance(nd, Compose):
            return act(nd.x, act(nd.y, v))
        if isinstance(nd, Commutator):
            return act(nd.x, act(nd.y, v)) - act(nd.y, act(nd.x, v))
        if isinstance(nd, Mult):
            return sampled(nd.eta) * v
        return sampled(nd.a) * fc.riesz(v, "plus") + sampled(nd.b) * fc.riesz(v, "minus")

    ks = M.out_indices
    cols = [np.fft.fft(act(node, zs ** int(j)))[ks % n] / n for j in M.in_indices]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "node, N",
    [
        (Compose(Paired(R07_IN, R07_OUT), Mult(R07_ETA)), 24),
        (Compose(Mult(R07_ETA), Paired(R07_OUT, R07_IN)), 28),
        (Commutator(Paired(R07_IN, R07_OUT), Mult(R07_ETA)), 32),
        (Commutator(Paired(R07_IN, R07_OUT), Paired(R07_ETA, R07_IN)), 24),
    ],
)
def test_composed_truncation_matches_fft_grid(node, N):
    M = truncate(node, N)
    want = _grid_window(node, M)
    assert np.abs(M.entries - want).max() <= 1e-11 * np.abs(want).max()


def test_commuting_commutators_truncate_to_exact_zeros():
    e = R07_IN * R07_OUT
    for node in (
        Commutator(Paired(e, e), Mult(R07_ETA)),
        Commutator(Paired(R07_IN, R07_OUT), Mult(R.const(0.3 - 1.7j))),
    ):
        M = truncate(node, 24)
        assert not M.entries.any()
        assert numerical_rank(M).rank == 0


def test_truncation_and_adjoint_residual_skip_riesz(monkeypatch):
    def refuse(self, side):
        raise AssertionError("riesz called")

    monkeypatch.setattr(RationalSymbol, "riesz", refuse)
    truncate(Commutator(Paired(A_P, B_P), Mult(B_P)), 16)
    X = Compose(Paired(A_P, B_P), Mult(A_P))
    assert adjoint_residual(X, Adjoint(X), 6) <= 1e-12


# ---------------------------------------------------------------- leaf blocks


def _reference_block(node, in_idx, ks):
    """A leaf's truncation as a gather: one Fourier window per symbol,
    indexed by an (k - j) index matrix, then masked to the leaf's sides."""
    if not (len(in_idx) and len(ks)):
        return np.zeros((len(ks), len(in_idx)), dtype=complex)
    lo, hi = int(ks[0] - in_idx[-1]), int(ks[-1] - in_idx[0])
    idx = ks[:, None] - in_idx[None, :] - lo

    def gather(s):
        return s.fourier_range(lo, hi)[idx]

    rows = {"plus": ks >= 0, "minus": ks < 0}
    if isinstance(node, Paired):
        return np.where(in_idx >= 0, gather(node.a), gather(node.b))
    if isinstance(node, Transposed):
        return np.where((ks >= 0)[:, None], gather(node.a), gather(node.b))
    if isinstance(node, Mult):
        return gather(node.eta)
    if isinstance(node, (ProjPlus, ProjMinus)):
        side = in_idx >= 0 if node.side == "plus" else in_idx < 0
        return ((ks[:, None] == in_idx) & side).astype(complex)
    return np.where(rows[node.side][:, None], gather(node.a), 0)


LEAVES = [
    Paired(A_P, B_P),
    Transposed(A_P, B_P),
    Mult(R07_ETA),
    Toeplitz(A_P),
    DualToeplitz(B_P),
    Hankel(R07_ETA),
    HankelTilde(R07_OUT),
    ProjPlus(),
    ProjMinus(),
]
WINDOWS = {
    "straddling 0": (np.arange(-5, 6), np.arange(-8, 9)),
    "columns all negative": (np.arange(-9, -2), np.arange(-12, 4)),
    "columns all non-negative": (np.arange(2, 9), np.arange(-3, 12)),
    "rows all negative": (np.arange(-4, 5), np.arange(-11, -1)),
    "rows all non-negative": (np.arange(-4, 5), np.arange(0, 10)),
    "empty columns": (np.arange(0), np.arange(-3, 4)),
    "empty rows": (np.arange(-3, 4), np.arange(0)),
}


def _same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("node", LEAVES, ids=lambda n: n.op)
def test_leaf_columns_equal_the_gathered_block_byte_for_byte(node, window):
    in_idx, ks = WINDOWS[window]
    _same_bytes(node.columns(in_idx, ks), _reference_block(node, in_idx, ks))


def test_compressions_keep_no_rows_or_all_rows():
    in_idx = np.arange(-4, 5)
    for node, none, every in (
        (Toeplitz(A_P), np.arange(-9, 0), np.arange(0, 9)),
        (DualToeplitz(B_P), np.arange(0, 9), np.arange(-9, 0)),
    ):
        assert not node.columns(in_idx, none).any()
        _same_bytes(node.columns(in_idx, every), Mult(node.a).columns(in_idx, every))


def test_empty_minus_window_at_zero_truncates_to_an_empty_block():
    for node in (DualToeplitz(R.const(2.0)), Hankel(R.const(2.0)), HankelTilde(R.const(2.0))):
        M = truncate(node, 0)
        assert M.entries.shape == (len(M.out_indices), len(M.in_indices))
        assert 0 in M.entries.shape


def test_cancelling_commutator_columns_match_the_reference_as_exact_zeros():
    e = R07_IN * R07_OUT
    node = build(Commutator(Paired(e, e), Mult(R07_ETA)))
    in_idx, ks = np.arange(-20, 21), np.arange(-26, 27)
    xy = ops._columns(Compose(node.x, node.y), in_idx, ks)
    yx = ops._columns(Compose(node.y, node.x), in_idx, ks)
    assert (xy - yx).any()  # the products differ in roundoff
    top = np.maximum(np.abs(xy).max(axis=0), np.abs(yx).max(axis=0))
    want = np.where(np.abs(xy - yx).max(axis=0) > 1e-11 * top, xy - yx, 0)
    got = ops._columns(node, in_idx, ks)
    _same_bytes(got, want)
    assert not got.any()


def test_truncations_equal_the_gathered_reference_byte_for_byte(monkeypatch):
    nodes = [
        Commutator(Paired(R07_IN, R07_OUT), Mult(R07_ETA)),
        Compose(Transposed(R07_ETA, R07_IN), Paired(A_P, B_P)),
        Sum(Toeplitz(A_P), Hankel(B_P)),
    ]
    got = [truncate(n, 12).entries for n in nodes]
    for cls in (Paired, Transposed, Mult, Toeplitz, Hankel):
        monkeypatch.setattr(cls, "columns", lambda self, i, k: _reference_block(self, i, k))
    for g, n in zip(got, nodes):
        _same_bytes(g, truncate(n, 12).entries)


# ---------------------------------------------------------------- Fourier windows

DOUBLE_IN = C({0: 1, 1: -0.2}) / (C({0: -0.6, 1: 1}) * C({0: -0.6, 1: 1}))
WINDOW_SYMBOLS = {
    "pole-free": C({-2: 0.5, 0: 1, 3: -0.25j}),
    "inside only": R07_IN,
    "outside only": R07_OUT,
    "mixed": R07_ETA,
    "double pole": DOUBLE_IN,
}


@pytest.mark.parametrize("name", sorted(WINDOW_SYMBOLS))
def test_fourier_range_is_the_slice_of_any_wider_window(name):
    from pairedk import laurent, rational

    s = WINDOW_SYMBOLS[name]
    assert name == "pole-free" or s.poles
    for lo, hi in ((-7, 9), (-30, -4), (5, 40), (0, 0), (-1, -1)):
        for wlo, whi in ((lo - 13, hi), (lo, hi + 21), (lo - 40, hi + 3)):
            for narrow_first in (True, False):
                laurent._expand.cache_clear()
                rational._split.cache_clear()
                fresh = R.from_json(s.to_json())  # no streams cached on it yet
                if narrow_first:
                    narrow = fresh.fourier_range(lo, hi)
                    wide = fresh.fourier_range(wlo, whi)
                else:
                    wide = fresh.fourier_range(wlo, whi)
                    narrow = fresh.fourier_range(lo, hi)
                assert narrow.tobytes() == wide[lo - wlo : hi - wlo + 1].tobytes()
