"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines, or
through the CLI as `pairedk verify --all`.
"""

import time

import numpy as np
import pytest

from pairedk import (
    Paired,
    RationalSymbol,
    RunConfig,
    SamplerProfile,
    SymbolPair,
    Toeplitz,
    Transposed,
    kernel_oracle,
    member_S,
    nontrivial_Sigma,
    paired_kernel,
    principal_angle,
    run_property,
    toeplitz_kernel,
    transposed_kernel,
    trial_rng,
    winding_index,
)
from pairedk.sampling import sample_quotient_with_winding

R = RationalSymbol
CFG = RunConfig()
_PAYLOADS = {}


def _announce(name, elapsed, budget, detail=""):
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s < {budget:.0f}s) {detail}")


def _run(pid, trials, seed):
    t0 = time.perf_counter()
    rep = run_property(pid, trials, seed, CFG)
    elapsed = time.perf_counter() - t0
    _PAYLOADS[(pid, trials, seed)] = rep.canonical_payload()
    return rep, elapsed


def test_criterion_01_circle_zero_pair_reproduction():
    t0 = time.perf_counter()
    a = R.from_coeffs({0: 1, -1: 1})
    b = R.from_coeffs({0: 1, 1: 1})
    pair = SymbolPair(a, b)
    f = R.from_coeffs({0: 1, -1: -1})
    # exact membership with zero residual
    assert member_S(f, pair)
    residual = a * f.riesz("plus") + b * f.riesz("minus")
    assert residual.is_zero
    # transposed kernel empty, with the failing side-condition certificate
    kb = transposed_kernel(pair)
    assert kb.is_empty and kb.dimension == 0
    side = kb.certificate["side_conditions"]
    assert side["O_minus_over_a_in_L2"] is False
    assert side["O_plus_over_b_in_L2"] is False
    # oracle cross-check at N = 64
    assert kernel_oracle(Transposed(a, b), 64).dim_estimate == 0
    assert kernel_oracle(Paired(a, b), 64).dim_estimate >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce("C1 circle-zero pair", elapsed, 1)


def test_criterion_02_coburn_dichotomies():
    rep_s, el_s = _run("P_COBURN_S", 500, 42)
    assert rep_s.passes == 500 and not rep_s.failures
    assert el_s < 60.0
    rep_sig, el_sig = _run("P_COBURN_SIG", 500, 43)
    assert rep_sig.passes == 500 and not rep_sig.failures
    assert el_sig < 60.0
    _announce("C2 Coburn dichotomies", el_s + el_sig, 120, "500/500 + 500/500")


def test_criterion_03_kernel_dimension_vs_index():
    t0 = time.perf_counter()
    prof = SamplerProfile(
        degree_bound=3, inside_annulus=(0.25, 0.6), outside_annulus=(1.6, 4.0)
    )
    checked = 0
    for i in range(500):
        rng = trial_rng(1003, i)
        kappa = int(rng.integers(-3, 4))
        g = sample_quotient_with_winding(prof, rng, kappa)
        kb = toeplitz_kernel(g)
        assert kb.dimension == max(0, -winding_index(g))
        oracle = kernel_oracle(Toeplitz(g), 64)  # at the default RANK_TOL, 1e-10
        assert oracle.dim_estimate == kb.dimension
        assert oracle.gap >= 1e3
        if kb.dimension:
            ang = principal_angle(oracle, list(kb.elements))
            assert ang <= 1e-7
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 500 and elapsed < 120.0
    _announce("C3 dimension vs index", elapsed, 120, "500 symbols")


def test_criterion_04_identity_residuals():
    total = 0.0
    for pid, seed in (("P_PRODRES", 44), ("P_COMMEXP", 45), ("P_EQUIV", 46), ("P_RH", 47)):
        rep, elapsed = _run(pid, 100, seed)
        total += elapsed
        assert rep.passes == 100, f"{pid} failures: {rep.failures[:2]}"
    assert total < 60.0
    _announce("C4 identity residuals", total, 60, "4 x 100 trials, residual <= 1e-10")


def test_criterion_05_rank_one_commutators():
    rep, elapsed = _run("P_RANK1", 100, 48)
    assert rep.passes == 100, rep.failures[:2]
    assert elapsed < 60.0
    _announce("C5 rank-one commutators", elapsed, 60)


def test_criterion_06_adjoint_iff():
    rep, elapsed = _run("P_ADJ", 100, 49)
    assert rep.passes == 100, rep.failures[:2]
    assert elapsed < 30.0
    _announce("C6 adjoint iff", elapsed, 30, "pos <= 1e-12, neg >= 1e-3")


def test_criterion_07_norm_bounds():
    rep, elapsed = _run("P_NORM", 100, 50)
    assert rep.passes == 100, rep.failures[:2]
    assert elapsed < 120.0
    _announce("C7 norm bounds", elapsed, 120, "N = 128")


def test_criterion_08_uniqueness_construction():
    rep, elapsed = _run("P_UNIQUE", 100, 51)
    assert rep.passes == 100, rep.failures[:2]
    assert elapsed < 30.0
    _announce("C8 uniqueness/construction", elapsed, 30)


def test_criterion_09_invariance_suite():
    total = 0.0
    for pid, seed in (
        ("P_INV", 52),
        ("P_MODELINV", 53),
        ("P_DEFECT1", 54),
        ("P_STAB", 55),
        ("P_FPLUS0", 56),
    ):
        rep, elapsed = _run(pid, 100, seed)
        total += elapsed
        assert rep.passes == 100, f"{pid} failures: {rep.failures[:2]}"
    assert total < 120.0
    _announce("C9 invariance suite", total, 120, "5 x 100/100")


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    for key in (("P_COBURN_S", 500, 42), ("P_ADJ", 100, 49), ("P_RANK1", 100, 48)):
        pid, trials, seed = key
        repeat = run_property(pid, trials, seed, CFG).canonical_payload()
        first = _PAYLOADS.get(key) or repeat
        assert repeat == first, f"{pid} payload changed across runs"
    elapsed = time.perf_counter() - t0
    _announce("C10 determinism", elapsed, 180, "byte-identical payloads")
