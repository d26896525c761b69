import numpy as np
import pytest

from pairedk import (
    Paired,
    RationalSymbol,
    SpaceTag,
    SymbolPair,
    Toeplitz,
    Transposed,
    apply_exact,
    j_map,
    kernel_oracle,
    kernels_equal_S,
    linearly_independent,
    member_S,
    member_Sigma,
    model_space_basis,
    nontrivial_S,
    nontrivial_Sigma,
    paired_kernel,
    principal_angle,
    sigma_inclusion,
    symbols_from_function,
    toeplitz_kernel,
    transposed_kernel,
)
from pairedk.errors import (
    DegenerateInput,
    NotInHardySpace,
    DegenerateSymbol,
    NotInKernel,
    NotInner,
    OracleIndeterminate,
    PartitionOfUnityFails,
    TrivialKernel,
    WindowOverflow,
)
from pairedk import tolerances as tol
from pairedk.kernels import oracle_min_window
from pairedk.sampling import SamplerProfile, sample_pair_with_kernel, trial_rng

import fftcheck as fc

R = RationalSymbol


def C(d):
    return R.from_coeffs(d)


CIRCLE_PAIR = SymbolPair(C({0: 1, -1: 1}), C({0: 1, 1: 1}))  # a = 1+1/z, b = z+1


# ---------------------------------------------------------------- membership


def test_member_S_circle_zero_pair():
    assert member_S(C({0: 1, -1: -1}), CIRCLE_PAIR)
    assert not member_S(R.const(1), CIRCLE_PAIR)


def test_member_S_rejects_plus_functions():
    # no nonzero analytic function sits in a paired kernel
    f = C({0: 1, 1: 1}) / C({0: -2, 1: 1})
    assert not member_S(f, CIRCLE_PAIR)
    assert not member_S(f, SymbolPair(R.monomial(1), R.const(1)))


def test_member_Sigma_examples():
    assert member_Sigma(R.monomial(1), SymbolPair(R.monomial(-2), R.const(1)))
    assert not member_Sigma(C({0: 1, -1: -1}), CIRCLE_PAIR)
    assert member_Sigma(R.monomial(-1), SymbolPair(R.const(1), R.monomial(2)))


def test_zero_function_is_everywhere():
    assert member_S(R.zero(), CIRCLE_PAIR)
    assert member_Sigma(R.zero(), CIRCLE_PAIR)


# ---------------------------------------------------------------- Toeplitz


def test_toeplitz_kernel_monomial():
    kb = toeplitz_kernel(R.monomial(-1))
    assert kb.status == "exact" and kb.dimension == 1
    assert kb.elements[0].equals(R.const(1))


def test_toeplitz_kernel_mixed():
    g = C({0: -2, 1: 1}) / C({0: -0.5, 1: 1})
    kb = toeplitz_kernel(g)
    assert kb.dimension == 1
    assert kb.elements[0].equals(C({0: -2, 1: 1}).reciprocal())
    assert (g * kb.elements[0]).membership(SpaceTag.H2MINUS)


def test_toeplitz_kernel_positive_winding_empty():
    kb = toeplitz_kernel(C({0: -0.5, 1: 1}))
    assert kb.is_empty and kb.certificate["kappa"] == 1


def test_toeplitz_kernel_circle_zero_routes_to_oracle():
    kb = toeplitz_kernel(C({0: 1, 1: 1}))
    assert kb.status == "needs_oracle"


def test_toeplitz_kernel_dimension_formula():
    rng = trial_rng(3, 0)
    prof = SamplerProfile(class_constraint="invertible", degree_bound=2)
    from pairedk.sampling import sample_quotient_with_winding
    from pairedk import winding_index

    for i in range(20):
        kappa = int(rng.integers(-3, 4))
        g = sample_quotient_with_winding(prof, rng, kappa)
        kb = toeplitz_kernel(g)
        assert kb.dimension == max(0, -winding_index(g))
        if kb.dimension:
            assert linearly_independent(kb.elements)


# ---------------------------------------------------------------- paired


def test_paired_kernel_basic():
    kb = paired_kernel(SymbolPair(R.const(1), R.monomial(1)))
    assert kb.dimension == 1
    el = kb.elements[0]
    assert el.plus.equals(R.const(1)) and el.minus.equals(R.monomial(-1, -1))


def test_paired_kernel_circle_zero_pair():
    kb = paired_kernel(CIRCLE_PAIR)
    assert kb.dimension == 1
    assert member_S(kb.elements[0].total, CIRCLE_PAIR)
    assert kb.elements[0].total.equals(C({0: 1, -1: -1}))


def test_paired_kernel_coburn_side_empty():
    kb = paired_kernel(SymbolPair(R.monomial(1), R.const(1)))
    assert kb.is_empty


def test_paired_kernel_halves_vanish_together():
    rng = trial_rng(23, 1)
    for i in range(5):
        pair = sample_pair_with_kernel(
            SamplerProfile(degree_bound=2), rng, int(rng.integers(1, 4)), "invertible"
        )
        kb = paired_kernel(pair)
        for el in kb.elements:
            assert not el.plus.is_zero and not el.minus.is_zero
            assert not el.total.membership(SpaceTag.H2PLUS)
            assert not el.total.membership(SpaceTag.H2MINUS)


# ---------------------------------------------------------------- transposed


def test_transposed_kernel_model_space():
    kb = transposed_kernel(SymbolPair(R.monomial(-2), R.const(1)))
    assert kb.dimension == 2
    want = [R.const(1), R.monomial(1)]
    for w in want:
        assert any(e.equals(w) for e in kb.elements)


def test_transposed_kernel_circle_zero_pair_empty_with_certificate():
    kb = transposed_kernel(CIRCLE_PAIR)
    assert kb.is_empty and kb.dimension == 0
    side = kb.certificate["side_conditions"]
    assert side["O_minus_over_a_in_L2"] is False
    assert side["O_plus_over_b_in_L2"] is False


def test_transposed_kernel_reflected_model_space():
    kb = transposed_kernel(SymbolPair(R.const(1), R.monomial(2)))
    assert kb.dimension == 2
    for w in [R.monomial(-1), R.monomial(-2)]:
        assert any(e.equals(w) for e in kb.elements)
    for e in kb.elements:
        assert member_Sigma(e, SymbolPair(R.const(1), R.monomial(2)))


def test_transposed_kernel_partial_circle_zero_absorption():
    # quotient winding -2, one circle zero in b: dimension drops to 1
    a = C({-2: 1, -1: 1})  # (1+z)/z^2
    b = C({0: 1, 1: 1})
    kb = transposed_kernel(SymbolPair(a, b))
    assert kb.status == "exact" and kb.dimension == 1
    assert kb.elements[0].equals(R.const(1))


def test_transposed_kernel_degenerate_pair():
    kb = transposed_kernel(SymbolPair(C({0: 1, 1: 0.5}), C({0: 1, 1: 0.5})))
    assert kb.is_empty


# ---------------------------------------------------------------- nontriviality


def test_nontrivial_S_examples():
    res = nontrivial_S(SymbolPair(R.const(1), R.monomial(3)))
    assert res.status is True
    assert res.witness.equals(C({0: 1, -3: -1}))
    assert nontrivial_S(SymbolPair(R.monomial(1), R.const(1))).status is False
    res2 = nontrivial_S(CIRCLE_PAIR)
    assert res2.status is True and res2.witness.equals(C({0: 1, -1: -1}))


def test_nontrivial_Sigma_examples():
    res = nontrivial_Sigma(SymbolPair(R.monomial(-2), R.const(1)))
    assert res.status is True and res.witness.equals(R.const(1))
    assert nontrivial_Sigma(CIRCLE_PAIR).status is False
    # an invertible denominator keeps the kernel alive even off the textbook case
    res3 = nontrivial_Sigma(SymbolPair(R.const(1), C({0: -0.5, 1: 1})))
    assert res3.status is True
    assert member_Sigma(res3.witness, SymbolPair(R.const(1), C({0: -0.5, 1: 1})))
    assert res3.witness.equals(C({0: -0.5, 1: 1}).reciprocal())


def test_nontrivial_Sigma_requires_nondegenerate():
    with pytest.raises(DegenerateSymbol):
        nontrivial_Sigma(SymbolPair(R.const(1), R.const(1)))
    with pytest.raises(DegenerateSymbol):
        sigma_inclusion(SymbolPair(R.const(1), R.const(1)), CIRCLE_PAIR)


def _nontriviality_cases():
    """Degenerate, needs_oracle, empty and exact pairs, most of them sampled."""
    rng = trial_rng(31, 4)
    prof = SamplerProfile(degree_bound=2)
    from pairedk.sampling import sample_quotient_with_winding, sample_symbol

    cases = [
        SymbolPair(C({0: 1, 1: 0.5}), C({0: 1, 1: 0.5})),  # degenerate
        SymbolPair(C({0: 1, 1: 1}), R.const(1)),  # quotient 1 + z vanishes at -1
        CIRCLE_PAIR,  # paired exact, transposed empty by its side conditions
    ]
    for _ in range(16):
        g = sample_quotient_with_winding(prof, rng, int(rng.integers(-3, 3)))
        b = sample_symbol(prof.tighter(class_constraint="invertible"), rng)
        cases.append(SymbolPair(g * b, b))
    return cases


def test_nontriviality_is_read_off_the_first_kernel_element():
    expect = {"exact": True, "empty": False, "needs_oracle": "needs_oracle"}
    seen = set()
    for pair in _nontriviality_cases():
        checks = [(nontrivial_S, paired_kernel, lambda e: e.total)]
        if pair.nondegenerate:
            checks.append((nontrivial_Sigma, transposed_kernel, lambda e: e))
        for decide, kernel, witness_of in checks:
            res, kb = decide(pair), kernel(pair)
            seen.add(kb.status)
            assert res.status == expect[kb.status]
            if kb.status == "exact":
                assert res.witness.to_json() == witness_of(kb.elements[0]).to_json()
            else:
                assert res.witness is None
    assert seen == set(expect)


def test_nontriviality_verifies_only_its_witness(monkeypatch):
    import pairedk.kernels as K

    calls = []
    for name in ("member_S", "member_Sigma"):
        real = getattr(K, name)
        monkeypatch.setattr(K, name, lambda f, p, real=real, name=name: calls.append(name) or real(f, p))
    res_s = nontrivial_S(SymbolPair(R.const(1), R.monomial(3)))
    res_sig = nontrivial_Sigma(SymbolPair(R.monomial(-3), R.const(1)))
    assert res_s.status is True and res_sig.status is True
    assert calls == ["member_S", "member_Sigma"]


def test_sigma_implies_paired():
    rng = trial_rng(29, 2)
    prof = SamplerProfile(degree_bound=2)
    from pairedk.sampling import sample_quotient_with_winding, sample_symbol

    for i in range(20):
        kappa = int(rng.integers(-3, 3))
        g = sample_quotient_with_winding(prof, rng, kappa)
        b = sample_symbol(prof.tighter(class_constraint="invertible"), rng)
        pair = SymbolPair(g * b, b)
        res_sig = nontrivial_Sigma(pair)
        res_s = nontrivial_S(pair)
        if res_sig.status is True:
            assert res_s.status is True


# ---------------------------------------------------------------- equality


def test_kernels_equal_examples():
    p = SymbolPair(R.const(1), R.monomial(1))
    eta = C({0: 2, 1: 1})
    q = SymbolPair(eta, eta * R.monomial(1))
    assert kernels_equal_S(p, q)
    assert not kernels_equal_S(p, SymbolPair(R.const(1), R.monomial(2)))
    assert kernels_equal_S(CIRCLE_PAIR, SymbolPair(R.const(1), R.monomial(1)))


def test_kernels_equal_needs_nontrivial():
    with pytest.raises(TrivialKernel):
        kernels_equal_S(SymbolPair(R.monomial(1), R.const(1)), CIRCLE_PAIR)


# ---------------------------------------------------------------- construction


def test_symbols_from_function_basic():
    pair = symbols_from_function(R.const(1), R.monomial(-1))
    assert member_S(C({0: 1, -1: 1}), pair)
    # for these trivial inner-outer data the construction gives (1, -z)
    assert pair.a.equals(R.const(1))
    assert pair.b.equals(R.monomial(1, -1))


def test_symbols_from_function_degenerate_half():
    with pytest.raises(DegenerateInput):
        symbols_from_function(R.monomial(1), R.zero())


def test_symbols_from_function_rejects_halves_outside_hardy_spaces():
    with pytest.raises(NotInHardySpace):
        symbols_from_function(R.monomial(-1), R.monomial(-1))


def test_symbols_from_function_generic():
    phi_p = C({0: -2, 1: 1}).reciprocal()
    phi_m = R.monomial(-1)
    pair = symbols_from_function(phi_p, phi_m)
    assert member_S(phi_p + phi_m, pair)
    assert not pair.a.has_circle_pole and not pair.b.has_circle_pole


def test_symbols_from_function_circle_zero_outer():
    # outer parts with circle zeros force the clearing polynomial into play
    phi_p = C({0: 1, 1: 1}) / C({0: -3, 1: 1})
    phi_m = R.monomial(-1)
    pair = symbols_from_function(phi_p, phi_m)
    assert member_S(phi_p + phi_m, pair)


# ---------------------------------------------------------------- the J map


def test_j_map_forward():
    p = SymbolPair(R.monomial(-2), R.const(1))
    out = j_map(R.const(1), p)
    assert out.equals(C({-2: 1, 0: -1}))
    assert member_S(out, p)


def test_j_map_forward_rejects_nonmembers():
    with pytest.raises(NotInKernel):
        j_map(R.monomial(2), SymbolPair(R.monomial(-2), R.const(1)))


def test_j_map_inverse_explicit_witnesses():
    p = SymbolPair(R.const(1), R.monomial(1))
    phi = C({0: 1, -1: -1})
    out = j_map(phi, p, inverse=True, a_prime=R.const(1), b_prime=R.zero())
    assert out.equals(R.monomial(-1, -1))
    assert member_Sigma(out, p)


def test_j_map_inverse_auto_witness_and_round_trip():
    rng = trial_rng(31, 4)
    pair = sample_pair_with_kernel(SamplerProfile(degree_bound=2), rng, 2, "invertible")
    kb = paired_kernel(pair)
    for el in kb.elements:
        psi = j_map(el.total, pair, inverse=True)
        assert member_Sigma(psi, pair)
        assert j_map(psi, pair).equals(el.total)


def test_j_map_inverse_auto_witness_through_a():
    # b = z(z - 1) vanishes on the circle and a = 1 + z/2 does not, so the
    # witnesses are (1/a, 0); psi = -(z - 1)/a + 1/z solves a P+ psi = -b P- psi
    a, b = C({0: 1, 1: 0.5}), C({1: -1, 2: 1})
    pair = SymbolPair(a, b)
    psi = R.monomial(-1) - C({0: -1, 1: 1}) / a
    out = j_map(psi, pair, inverse=True)
    z = fc.circle_grid(4096)
    A, B, OUT, PSI = (fc.eval_json(s.to_json(), z) for s in (a, b, out, psi))
    assert fc.rel(fc.riesz(A * OUT, "plus"), A * OUT) <= 1e-12
    assert fc.rel(fc.riesz(B * OUT, "minus"), B * OUT) <= 1e-12
    assert fc.rel((A - B) * OUT - PSI, PSI) <= 1e-12


def test_j_map_partition_of_unity_guard():
    p = SymbolPair(R.const(1), R.monomial(1))
    with pytest.raises(PartitionOfUnityFails):
        j_map(C({0: 1, -1: -1}), p, inverse=True, a_prime=R.const(2), b_prime=R.zero())


# ---------------------------------------------------------------- inclusion


def test_sigma_inclusion_inner_multiplier_strict():
    p = SymbolPair(R.monomial(-2), R.const(1))
    q = SymbolPair(p.a * R.monomial(-1), p.b * R.monomial(1))
    assert sigma_inclusion(p, q) == "subset"


def test_sigma_inclusion_outer_multipliers_equal():
    p = SymbolPair(R.monomial(-2), R.const(1))
    h_minus = C({0: 1, -1: 0.5})  # 1 + 1/(2z), co-analytic outer
    h_plus = C({0: 2, 1: 1})  # z + 2, outer
    q = SymbolPair(p.a * h_minus, p.b * h_plus)
    assert sigma_inclusion(p, q) == "equal"


def test_sigma_inclusion_needs_oracle_decides_by_multipliers():
    # b = z^2 (z - 1) puts a circle pole in each quotient, so no kernel is
    # enumerated; ker(P+ 1 + P- b) = span{1/z, 1/z^2}, and a = 1/z adds 1
    p = SymbolPair(R.const(1), C({2: -1, 3: 1}))
    q = SymbolPair(R.monomial(-1), p.b)
    outer = SymbolPair(p.a, p.b * C({0: 2, 1: 1}))
    assert transposed_kernel(p).status == transposed_kernel(q).status == "needs_oracle"
    assert sigma_inclusion(p, q) == "subset"
    assert sigma_inclusion(q, p) == "no_subset"
    assert sigma_inclusion(p, outer) == "equal"
    dims = [kernel_oracle(Transposed(x.a, x.b), 64).dim_estimate for x in (p, q, outer)]
    assert dims == [2, 3, 2]
    # 1/z and 1/z^2 lie in all three kernels, 1 in q's alone
    for k, want in ((0, [False, True, False]), (-1, [True] * 3), (-2, [True] * 3)):
        assert [member_Sigma(R.monomial(k), x) for x in (p, q, outer)] == want


def test_sigma_inclusion_nested_model_spaces():
    small = SymbolPair(R.monomial(-1), R.const(1))
    big = SymbolPair(R.monomial(-2), R.const(1))
    assert sigma_inclusion(small, big) == "subset"
    assert sigma_inclusion(big, small) == "no_subset"


def test_sigma_inclusion_requires_nontrivial():
    with pytest.raises(TrivialKernel):
        sigma_inclusion(SymbolPair(R.monomial(2), R.const(1)), CIRCLE_PAIR)


def test_sigma_inclusion_factors_each_pair_once(monkeypatch):
    import pairedk.kernels as K

    calls = []
    real = K.wiener_hopf
    monkeypatch.setattr(K, "wiener_hopf", lambda g: calls.append(g) or real(g))
    assert sigma_inclusion(SymbolPair(R.monomial(-1), R.const(1)), SymbolPair(R.monomial(-2), R.const(1))) == "subset"
    assert len(calls) == 2


# ---------------------------------------------------------------- model spaces


def test_model_space_monomial():
    kb = model_space_basis(R.monomial(3))
    assert kb.dimension == 3
    for w in (R.const(1), R.monomial(1), R.monomial(2)):
        assert any(e.equals(w) for e in kb.elements)


def test_model_space_mixed_blaschke():
    theta = R.monomial(1) * (C({0: -0.5, 1: 1}) / C({0: 1, 1: -0.5}))
    kb = model_space_basis(theta)
    assert kb.dimension == 2
    pair = SymbolPair(theta.conj_circle(), R.const(1))
    for e in kb.elements:
        assert member_Sigma(e, pair)
    # spans {1, z/(1 - z/2)}
    want = R.monomial(1) / C({0: 1, 1: -0.5})
    assert any(e.equals(want) or e.equals(want * (-2)) for e in kb.elements)


def test_model_space_single_blaschke():
    theta = C({0: -0.5, 1: 1}) / C({0: 1, 1: -0.5})
    kb = model_space_basis(theta)
    assert kb.dimension == 1
    assert kb.elements[0].equals(C({0: 1, 1: -0.5}).reciprocal())


def test_model_space_rejects_non_inner():
    with pytest.raises(NotInner):
        model_space_basis(C({0: -0.5, 1: 1}))


# ---------------------------------------------------------------- the oracle


def test_oracle_simple_pair():
    res = kernel_oracle(Paired(R.const(1), R.monomial(1)), 64)
    assert res.dim_estimate == 1
    kb = paired_kernel(SymbolPair(R.const(1), R.monomial(1)))
    ang = principal_angle(res, [el.total for el in kb.elements])
    assert ang < 1e-8


def test_oracle_refuses_a_window_below_twice_the_bandwidth():
    # a typed refusal, as truncate gives below the bandwidth
    node = Paired(R.const(1), R.monomial(3))
    assert oracle_min_window(node) == 6
    with pytest.raises(WindowOverflow, match="N=5"):
        kernel_oracle(node, 5)
    assert kernel_oracle(node, 6).dim_estimate == 3


def test_oracle_circle_zero_pair_dims():
    assert kernel_oracle(Transposed(CIRCLE_PAIR.a, CIRCLE_PAIR.b), 64).dim_estimate == 0
    assert kernel_oracle(Paired(CIRCLE_PAIR.a, CIRCLE_PAIR.b), 64).dim_estimate >= 1


def test_oracle_toeplitz_trivial():
    assert kernel_oracle(Toeplitz(R.monomial(1)), 64).dim_estimate == 0


def test_oracle_agreement_with_exact_kernels():
    rng = trial_rng(37, 5)
    prof = SamplerProfile(degree_bound=2, inside_annulus=(0.25, 0.6), outside_annulus=(1.6, 4.0))
    for i in range(10):
        pair = sample_pair_with_kernel(prof, rng, int(rng.integers(1, 4)), "invertible")
        kb = paired_kernel(pair)
        res = kernel_oracle(Paired(pair.a, pair.b), 64)
        assert res.dim_estimate == kb.dimension
        assert res.gap >= 1e3
        ang = principal_angle(res, [el.total for el in kb.elements])
        assert ang <= 1e-7


def test_oracle_truncates_once_and_takes_one_vector_svd(monkeypatch):
    # the count reads two values-only SVDs (N and N/2); the one vector SVD
    # is made when the candidates are first read, and never again
    import pairedk.kernels as K

    truncations, svds = [], []
    truncate, svd = K.truncate, np.linalg.svd

    def spy_truncate(node, N):
        truncations.append(N)
        return truncate(node, N)

    def spy_svd(a, *args, **kwargs):
        svds.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(K, "truncate", spy_truncate)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    res = kernel_oracle(Paired(R.const(1), R.monomial(1)), 64)
    assert res.dim_estimate == 1 and res.stable is True
    assert truncations == [64]
    assert svds == [False, False]
    assert res.candidates.shape == (1, res.matrix.shape[1])
    assert svds == [False, False, True]
    assert res.candidates is res.candidates
    assert svds == [False, False, True]


def _oracle_nodes():
    """Sampled paired, transposed and Toeplitz nodes with kernels of
    dimension 1 to 3, plus a dimension-0 node and a zero matrix."""
    rng = trial_rng(41, 3)
    prof = SamplerProfile(degree_bound=2, inside_annulus=(0.25, 0.6), outside_annulus=(1.6, 4.0))
    nodes = []
    for i in range(3):
        pair = sample_pair_with_kernel(prof, rng, i + 1, "invertible")
        nodes += [Paired(pair.a, pair.b), Transposed(pair.a, pair.b), Toeplitz(pair.quotient())]
    return nodes + [Toeplitz(R.monomial(1)), Paired(R.zero(), R.zero())]


def test_oracle_candidates_equal_a_fresh_vector_svd():
    from pairedk.kernels import _oracle_window
    from pairedk.operators import bandwidth, truncate

    dims = []
    for node in _oracle_nodes():
        res = kernel_oracle(node, 64)
        A, kept = _oracle_window(truncate(node, 64), 64, bandwidth(node))
        assert np.array_equal(res.matrix, A) and np.array_equal(res.kept_indices, kept)
        assert not res.matrix.flags.writeable
        dim = res.dim_estimate
        if res.sigma_max == 0.0:
            want = np.eye(A.shape[1], dtype=complex)
        else:
            _, s, vh = np.linalg.svd(A, full_matrices=False)
            want = vh[len(s) - dim :].conj()
        got = res.candidates
        assert got.dtype == want.dtype and got.shape == (dim, A.shape[1])
        assert np.array_equal(got, want)
        dims.append(dim)
    assert dims[-2] == 0 and dims[-1] == 2 * 64 + 1 and max(dims[:-2]) >= 2


def test_oracle_result_pickles_before_and_after_candidates_are_read():
    import pickle

    res = kernel_oracle(Paired(R.const(1), R.monomial(1)), 64)
    cold = pickle.loads(pickle.dumps(res))
    assert "candidates" not in vars(cold)
    cands = res.candidates
    warm = pickle.loads(pickle.dumps(res))
    assert "candidates" in vars(warm)
    for copy in (cold, warm):
        assert copy.to_json() == res.to_json()
        assert np.array_equal(copy.matrix, res.matrix)
        assert np.array_equal(copy.kept_indices, res.kept_indices)
        assert np.array_equal(copy.candidates, cands)


def test_oracle_results_compare_and_hash_by_identity():
    node = Paired(R.const(1), R.monomial(1))
    res, again = kernel_oracle(node, 64), kernel_oracle(node, 64)
    # array fields admit no elementwise ==, so equality is identity
    assert res == res and res != again
    assert len({res, again, res}) == 2 and hash(res) == hash(res)


def _with_poles(gain, zeros, poles):
    from pairedk.roots import LOC_IN, LOC_OUT, Root

    def root(z):
        return Root(z, 1, LOC_IN if abs(z) < 1 else LOC_OUT)

    return R(gain, 0, tuple(map(root, zeros)), tuple(map(root, poles)))


def _half_window_nodes():
    from pairedk import Compose, Hankel

    a = _with_poles(1.0, [0.3 + 0.2j], [2.5, -0.4j])
    b = _with_poles(0.5, [0.5, 0.1 - 0.6j], [1.8j, 0.35])
    g = _with_poles(2.0, [1.7], [0.45, -0.3 + 0.3j, 3.0])
    return {
        "paired": Paired(a, b),
        "transposed": Transposed(a, b),
        "toeplitz": Toeplitz(g),
        "hankel": Hankel(g),
        "compose": Compose(Paired(a, b), Toeplitz(g)),
    }


@pytest.mark.parametrize("name", sorted(_half_window_nodes()))
@pytest.mark.parametrize("N", [64, 65])
def test_oracle_half_window_is_a_sub_block_of_the_full_one(name, N):
    # the stability check reads the N/2 truncation off the N one; its kernel
    # dimension equals that of a fresh N/2 truncation, and a leaf's entries
    # are the same bit for bit
    from pairedk.kernels import _oracle_window
    from pairedk.operators import bandwidth, numerical_rank, truncate

    node = _half_window_nodes()[name]
    d = bandwidth(node)
    sub, sub_kept = _oracle_window(truncate(node, N), N // 2, d)
    fresh, fresh_kept = _oracle_window(truncate(node, N // 2), N // 2, d)
    assert np.array_equal(sub_kept, fresh_kept) and sub.shape == fresh.shape
    lo = -(N // 2) + d if name in ("paired", "transposed") else 0  # d columns off each artificial edge
    assert np.array_equal(sub_kept, np.arange(lo, N // 2 - d + 1))
    if name == "compose":  # the product's middle window grows with N
        assert np.allclose(sub, fresh, rtol=0, atol=1e-14 * np.abs(fresh).max())
    else:
        assert np.array_equal(sub, fresh)
    sub_rank = numerical_rank(sub, 1e-10)
    dim_sub, dim_fresh = sub.shape[1] - sub_rank.rank, fresh.shape[1] - numerical_rank(fresh, 1e-10).rank
    assert dim_sub == dim_fresh
    res = kernel_oracle(node, N)
    # an uncertified sub-block count leaves the flag unknown
    assert res.stable == (None if sub_rank.indeterminate else dim_fresh == res.dim_estimate)


def test_oracle_dimension_is_columns_less_numerical_rank():
    # the oracle's count, gap and sigma_max are numerical_rank's, read on
    # the trimmed matrix it keeps
    from pairedk.operators import numerical_rank

    prof = SamplerProfile(degree_bound=2, inside_annulus=(0.25, 0.6), outside_annulus=(1.6, 4.0))
    for i in range(3):
        pair = sample_pair_with_kernel(prof, trial_rng(11, i), 1 + i, "invertible")
        for node in (Paired(pair.a, pair.b), Transposed(pair.a, pair.b), Toeplitz(pair.quotient())):
            res = kernel_oracle(node, 64)
            rank = numerical_rank(res.matrix)
            assert res.dim_estimate == res.matrix.shape[1] - rank.rank
            assert (res.gap, res.sigma_max) == (rank.gap, rank.sigma_max)


def test_span_defect_refuses_a_nearly_dependent_basis():
    # f and f + 1e-8 z are independent only 50x above the 1e-10 threshold:
    # a full rank without the 1e3 gap is no answer
    from pairedk.kernels import span_defect

    basis = [R.const(1.0), R.const(1.0) + R.monomial(1, 1e-8)]
    with pytest.raises(OracleIndeterminate):
        span_defect(basis, [R.monomial(2)])
    assert span_defect(basis[:1], [R.monomial(2)]) == 1


def test_oracle_stability_flag():
    res = kernel_oracle(Paired(R.const(1), R.monomial(1)), 64)
    assert res.stable is True


def test_oracle_stability_is_unknown_where_the_half_count_is_uncertified():
    # query 18 of the seed-1 pool of the benchmark's kernels workload: the
    # N = 64 count is certified, but the rank of the N/2 sub-block has a gap
    # of 7.8, so its count neither confirms nor contradicts the dimension
    from pairedk.kernels import _oracle_window
    from pairedk.operators import bandwidth, numerical_rank, truncate

    a = R.from_json({
        "gain": [-1.7656820242068403, 1.2814010306742025], "zpow": 0,
        "zeros": [{"z": [0.09017281406769109, 0.45526414323304265], "m": 1},
                  {"z": [0.14044106022047564, -0.4544015395691575], "m": 1}],
        "poles": [{"z": [-0.2907159661358258, -0.42975618504201313], "m": 1},
                  {"z": [0.21600178157993338, -0.2580403883658722], "m": 1}],
    })
    b = R.from_json({"coeffs": {
        "-1": [0.4067957551833468, 0.06974079187909195],
        "0": [-0.43017107174293634, -0.02986302888781811],
        "1": [1.8657886682310225, 0.12251471353914246],
    }})
    node = Paired(a, b)
    half, _ = _oracle_window(truncate(node, 64), 32, bandwidth(node))
    assert numerical_rank(half).indeterminate
    res = kernel_oracle(node, 64)
    assert res.dim_estimate == 1 and res.gap >= tol.GAP_MIN
    assert res.stable is None
    assert res.to_json()["stable"] is None
