import concurrent.futures
import functools
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairedk import (
    RationalSymbol,
    RunConfig,
    SamplerProfile,
    SpaceTag,
    registered_ids,
    run_property,
    run_suite,
    sample_symbol,
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
    with tol.configured(eps_eq=1e-15):
        seq = run_property("P_SCALE", 4, 3, RunConfig(parallelism=1))
        par = run_property("P_SCALE", 4, 3, RunConfig(parallelism=2))
    assert seq.canonical_payload() == par.canonical_payload()
    assert seq.failures != default.failures  # the tighter eps_eq changes verdicts


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


def test_a_failed_certificate_fails_its_trial_instead_of_skipping_it(monkeypatch):
    # P_COBURN_SIG skips degenerate pairs by their PairedKError; a failed
    # self-check is also a PairedKError, and must stay a failure
    def failing(pair):
        raise CertificateFailed("constructed transposed kernel element fails verification")

    monkeypatch.setattr(props, "nontrivial_Sigma", failing)
    ok, detail = props._run_single("P_COBURN_SIG", 0, RunConfig(), tol.current(), 0)
    assert not ok
    assert detail == {"error": "CertificateFailed: constructed transposed kernel element fails verification"}


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
