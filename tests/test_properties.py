import concurrent.futures
import dataclasses
import functools
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairedk import (
    Commutator,
    Compose,
    RationalSymbol,
    RunConfig,
    SamplerProfile,
    SpaceTag,
    registered_ids,
    run_property,
    run_suite,
    sample_symbol,
    Transposed,
    trial_rng,
)
from pairedk import tolerances as tol
from pairedk import properties as props
from pairedk.errors import CertificateFailed, UnknownProperty
from pairedk.properties import PROPERTIES

R = RationalSymbol


# ---------------------------------------------------------------- samplers


def test_sampler_deterministic():
    a = sample_symbol(SamplerProfile(), trial_rng(7, 0))
    b = sample_symbol(SamplerProfile(), trial_rng(7, 0))
    assert a.to_json() == b.to_json()


def test_sampler_class_constraints():
    prof = SamplerProfile(class_constraint="Hinf")
    s = sample_symbol(prof, trial_rng(7, 1))
    assert s.membership(SpaceTag.HINF)
    inv = sample_symbol(SamplerProfile(class_constraint="invertible"), trial_rng(3, 0))
    from pairedk import winding_index

    winding_index(inv)  # defined, no circle roots
    inner = sample_symbol(SamplerProfile(class_constraint="inner"), trial_rng(11, 0))
    assert inner.membership(SpaceTag.INNER_PLUS)
    bar = sample_symbol(SamplerProfile(class_constraint="HinfBar"), trial_rng(5, 2))
    assert bar.membership(SpaceTag.HINF_BAR)
    with pytest.raises(ValueError, match="unknown class constraint"):
        sample_symbol(SamplerProfile(class_constraint="Hinf+"), trial_rng(5, 2))


def test_sampler_distinct_across_trials():
    a = sample_symbol(SamplerProfile(), trial_rng(7, 0))
    b = sample_symbol(SamplerProfile(), trial_rng(7, 1))
    assert a.to_json() != b.to_json()


# ---------------------------------------------------------------- runner


def test_registry_covers_all_ids():
    assert len(registered_ids()) == 30
    assert set(PROPERTIES) == set(registered_ids())


@pytest.mark.parametrize("pid", registered_ids())
def test_every_registered_property_passes_three_trials(pid):
    # a dozen properties (P_PROD, P_JMAP, P_SIGMA_INCL, ...) run in no other test
    rep = run_property(pid, 3, 0)
    assert rep.all_pass(), rep.failures


def test_run_property_unknown_id():
    with pytest.raises(UnknownProperty):
        run_property("P_NOPE", 1, 0)


def test_run_suite_empty_ids():
    with pytest.raises(UnknownProperty):
        run_suite([], 1, 0)


def test_p_zero_single_trial():
    rep = run_property("P_ZERO", 1, 0)
    assert rep.passes == 1 and rep.trials == 1


def test_report_payload_schema():
    rep = run_property("P_RANK1", 3, 9)
    data = rep.to_json()
    for key in ("property", "anchor", "trials", "passes", "failures", "tolerances", "wall_time"):
        assert key in data
    assert data["passes"] + len(data["failures"]) == data["trials"]
    json.dumps(data)  # JSON-serializable


def test_report_determinism_excludes_wall_time():
    r1 = run_property("P_COBURN_S", 20, 42)
    r2 = run_property("P_COBURN_S", 20, 42)
    assert r1.canonical_payload() == r2.canonical_payload()


def test_failures_reproducible_from_seed():
    rep = run_property("P_NONTRIV_S", 5, 4)
    # every trial regenerates identically from its (master, index) pair
    again = run_property("P_NONTRIV_S", 5, 4)
    assert rep.canonical_payload() == again.canonical_payload()


def test_suite_aggregation():
    suite = run_suite(["P_ZERO", "P_RH"], trials=3, master_seed=5)
    data = suite.to_json()
    assert data["all_pass"] is True
    assert len(data["reports"]) == 2


def test_parallel_runner_matches_sequential():
    seq = run_property("P_COBURN_S", 12, 13, RunConfig(parallelism=1))
    par = run_property("P_COBURN_S", 12, 13, RunConfig(parallelism=2))
    assert seq.canonical_payload() == par.canonical_payload()


def test_spawned_workers_use_the_active_tolerances(monkeypatch):
    # spawned workers import pairedk afresh, so they see the module
    # defaults unless the runner hands them the caller's tolerances
    spawn = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn)
    default = run_property("P_SCALE", 4, 3)
    with tol.configured(eps_eq=1e-16):
        seq = run_property("P_SCALE", 4, 3, RunConfig(parallelism=1))
        par = run_property("P_SCALE", 4, 3, RunConfig(parallelism=2))
    assert seq.canonical_payload() == par.canonical_payload()
    assert seq.failures != default.failures  # the tighter eps_eq changes verdicts


def test_a_commutator_expansion_whose_sum_cancels_at_its_top_passes():
    # the numerator of XYf - YXf cancels at its top to about 1e-17 and the
    # outside pole 3.849 + 0.761i cancels from it; a deflation that forms
    # the quotient's top as a difference reads the sum as zero, and the
    # trial fails with max_residual 0.034
    assert run_property("P_COMMEXP", 1, 2026954471).all_pass()


def test_rank_tol_of_one_or_more_is_refused():
    for value in (1.0, 2):
        with pytest.raises(ValueError, match="rank_tol must be below 1"):
            with tol.configured(rank_tol=value):
                pass
    assert tol.RANK_TOL == 1e-10


def test_report_records_the_rank_threshold_it_used():
    with tol.configured(rank_tol=1e-3):
        rep = run_property("P_RANK1", 1, 0)
    assert rep.tolerances["rank_tol"] == 1e-3


def test_report_records_every_settable_tolerance():
    # eps_circle and eps_cluster change answers as eps_eq and rank_tol do
    with tol.configured(eps_cluster=1e-6):
        rep = run_property("P_ZERO", 1, 0)
    assert rep.tolerances["eps_cluster"] == 1e-6
    assert rep.tolerances["eps_circle"] == tol.EPS_CIRCLE
    assert set(tol.SETTABLE) <= set(rep.to_json()["tolerances"])


def test_a_failed_certificate_fails_its_trial_instead_of_skipping_it(monkeypatch):
    # a failed self-check is a PairedKError, and must stay a failure
    def failing(pair):
        raise CertificateFailed("constructed transposed kernel element fails verification")

    monkeypatch.setattr(props, "nontrivial_Sigma", failing)
    ok, detail = props._run_single("P_COBURN_SIG", 0, RunConfig(), tol.current(), 0)
    assert not ok
    assert detail == {"error": "CertificateFailed: constructed transposed kernel element fails verification"}


# ---------------------------------------------------- negative controls
#
# Each shared check is made to fail by perturbing a library computation it
# reads, never the check itself; every property using the check must then
# fail with its own reason.


def _trial(pid, index=0):
    return props._run_single(pid, 0, RunConfig(), tol.current(), index)


def _shift_images(monkeypatch, kinds, extra):
    """``apply_exact``, as the properties read it, adds ``extra`` to the
    image of every node of the given kinds."""
    exact = props.apply_exact

    def apply(node, f):
        out = exact(node, f)
        return out + extra if isinstance(node, kinds) else out

    monkeypatch.setattr(props, "apply_exact", apply)


@pytest.mark.parametrize("pid", ["P_PRODRES", "P_COMMEXP", "P_EQUIV"])
def test_identity_verdict_sees_a_composed_image_off_by_1e_6(monkeypatch, pid):
    _shift_images(monkeypatch, (Compose, Commutator), R.monomial(-1, 1e-6))
    ok, detail = _trial(pid)
    assert not ok and detail["max_residual"] > tol.IDENTITY_RESIDUAL


def test_identity_residual_sees_a_rank_one_action_or_a_kernel_element_off_by_1e_6(monkeypatch):
    # the residual P_RANK1 and P_RH compare their identities by, apart from
    # the three identities above
    with monkeypatch.context() as m:
        _shift_images(m, Commutator, R.monomial(-1, 1e-6))
        assert _trial("P_RANK1") == (False, {"reason": "paired commutator action mismatch"})
    kernel = props.paired_kernel

    def moved(pair):
        kb = kernel(pair)
        elements = tuple(dataclasses.replace(el, minus=el.minus * (1 + 1e-6)) for el in kb.elements)
        return dataclasses.replace(kb, elements=elements)

    monkeypatch.setattr(props, "paired_kernel", moved)
    ok, detail = _trial("P_RH")
    assert not ok and detail["reason"] == "Riemann-Hilbert identity residual"
    assert detail["residual"] > tol.IDENTITY_RESIDUAL


@pytest.mark.parametrize("pid", ["P_KERCOMM_S", "P_KERCOMM_SIG"])
def test_kercomm_verdict_sees_a_commutator_that_does_not_vanish(monkeypatch, pid):
    _shift_images(monkeypatch, Commutator, R.monomial(-1, 1e-6))
    # the witness meets the projection conditions, yet its image is 1e-6 z^-1
    assert _trial(pid) == (False, {"reason": "equivalence mismatch", "vanishes": False, "conds": True})


@pytest.mark.parametrize(
    "pid, case", [("P_COMMUTANT", "multiplication operators failed to commute"), ("P_CONSTCOMM", "constant failed to commute")]
)
def test_commutation_on_probes_sees_a_commutator_that_does_not_vanish(monkeypatch, pid, case):
    _shift_images(monkeypatch, Commutator, R.monomial(-1, 1e-6))
    assert _trial(pid) == (False, {"case": case})


@pytest.mark.parametrize(
    "pid, reason", [("P_INV", "image left the invariant kernel"), ("P_MODELINV", "model space not invariant")]
)
def test_split_invariance_sees_an_image_leave_the_kernel(monkeypatch, pid, reason):
    # psi + 1/z is in no transposed kernel of these pairs: P-(b/z) = b(0)/z
    # with b(0) != 0
    _shift_images(monkeypatch, Transposed, R.monomial(-1))
    assert _trial(pid) == (False, {"reason": reason})


@pytest.mark.parametrize("pid, reason", [("P_NONTRIV_S", "decision mismatch"), ("P_NONTRIV_SIG", "regular decision mismatch")])
def test_winding_pair_sees_a_quotient_that_winds_once_more(monkeypatch, pid, reason):
    draw = props.sample_quotient_with_winding
    monkeypatch.setattr(props, "sample_quotient_with_winding", lambda prof, rng, kappa: draw(prof, rng, kappa) / R.monomial(1))
    # a trial that asks for winding 0 gets -1: a nontrivial kernel
    index = next(i for i in range(64) if trial_rng(0, i).integers(-3, 3) == 0)
    ok, detail = _trial(pid, index)
    assert not ok and detail["reason"] == reason and detail["kappa"] == 0


# ---------------------------------------------------------------- hypothesis


coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def laurent_symbols(draw):
    ks = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True))
    cs = draw(st.lists(coeff, min_size=len(ks), max_size=len(ks)))
    d = {k: c for k, c in zip(ks, cs) if c != 0}
    if not d:
        d = {0: 1.0}
    return R.from_coeffs(d)


@settings(max_examples=40, deadline=None)
@given(laurent_symbols())
def test_projection_partition_property(f):
    assert (f.riesz("plus") + f.riesz("minus")).equals(f)
    assert f.riesz("minus").riesz("plus").is_zero


@settings(max_examples=40, deadline=None)
@given(laurent_symbols())
def test_conjugation_involution_property(f):
    assert f.conj_circle().conj_circle().equals(f)


@settings(max_examples=30, deadline=None)
@given(laurent_symbols(), st.integers(-6, 6))
def test_fourier_matches_map_lookup(f, k):
    # for Laurent polynomials the coefficient is a direct dictionary lookup
    want = f.num.coeff(k) if not f.is_zero else 0.0
    assert abs(f.fourier(k) - want) <= 1e-11 * max(1.0, f.num.norm_inf() if not f.is_zero else 1.0)


def test_sigma_struct_checks_the_reflected_model_space_of_a_constant_inner_draw():
    # trial 32 of seed 0 is the first whose inner draw is constant; it is
    # multiplied by z, as P_INV and P_MODELINV do, and checked, not skipped
    assert _trial("P_SIGMA_STRUCT", 32) == (True, {})
