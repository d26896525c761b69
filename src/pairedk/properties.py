"""Registry of executable structural properties with a seeded trial runner.

Each registered property draws random symbols under its hypothesis profile,
runs an exact check (cross-checked against the truncated-matrix oracle where
registered), and records per-trial pass/fail.  Reports are deterministic
given (ids, trials, master_seed, config): trial generators derive from the
master seed, and the canonical JSON payload excludes wall time.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import tolerances as tol
from .errors import UnknownProperty
from .factorization import winding_index
from .kernels import (
    SymbolPair,
    _has_minus_inner_factor,
    _has_plus_inner_factor,
    kernel_oracle,
    kernels_equal_S,
    j_map,
    member_S,
    member_Sigma,
    model_space_basis,
    nontrivial_S,
    nontrivial_Sigma,
    paired_kernel,
    sigma_inclusion,
    span_defect,
    symbols_from_function,
    toeplitz_kernel,
    transposed_kernel,
)
from .operators import (
    Commutator,
    Compose,
    Mult,
    Paired,
    ProjMinus,
    ProjPlus,
    Scale,
    Sum,
    Transposed,
    _symbols_in,
    adjoint_residual,
    apply_exact,
    bandwidth,
    identity,
    numerical_rank,
    operator_norm,
    truncate,
)
from .rational import RationalSymbol, SpaceTag, decay_window
from .roots import LOC_IN, LOC_ON, LOC_OUT, Root
from .sampling import (
    SamplerProfile,
    sample_l2_function,
    sample_pair_with_kernel,
    sample_quotient_with_winding,
    sample_symbol,
    trial_rng,
)

R = RationalSymbol

# Profiles keep roots clear of the circle so Fourier tails die fast enough
# for the oracle's 1e-10 rank threshold at the default window.
SMOOTH = SamplerProfile(degree_bound=3, inside_annulus=(0.25, 0.6), outside_annulus=(1.6, 4.0))
GENERIC = SamplerProfile(degree_bound=3, inside_annulus=(0.2, 0.7), outside_annulus=(1.4, 5.0))


@dataclass(frozen=True)
class RunConfig:
    """The shape of a run: the kernel oracle's window and the worker count.
    Tolerances are not part of it: they are read from ``tolerances``, set
    with ``tolerances.configured``."""

    oracle_N: int = 64
    parallelism: int = 1


# Truncation window of P_NORM's operator-norm lower bound.
NORM_N = 128


@dataclass
class PropertyReport:
    property_id: str
    anchor: str
    trials: int
    passes: int
    failures: List[dict]
    tolerances: dict
    wall_time: float

    def all_pass(self) -> bool:
        return self.passes == self.trials and not self.failures

    def to_json(self) -> dict:
        return {
            "property": self.property_id,
            "anchor": self.anchor,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "tolerances": self.tolerances,
            "wall_time": self.wall_time,
        }

    def canonical_payload(self) -> str:
        data = self.to_json()
        data.pop("wall_time")
        return json.dumps(data, sort_keys=True)


@dataclass(frozen=True)
class PropertyDef:
    pid: str
    anchor: str
    default_trials: int
    fn: Callable


def _compose(*nodes):
    out = nodes[0]
    for n in nodes[1:]:
        out = Compose(out, n)
    return out


def _probe_functions(rng, count: int = 2) -> List[RationalSymbol]:
    probes = [R.monomial(j) for j in range(-4, 5)]
    for _ in range(count):
        probes.append(sample_l2_function(GENERIC, rng))
    return probes


def _coeff_scale(s: RationalSymbol, k: int = 12) -> float:
    if s.is_zero:
        return 0.0
    return float(np.abs(s.fourier_range(-k, k)).max())


def _vanishes(sym: RationalSymbol, floor: float) -> bool:
    """Coefficient-level vanishing relative to the operand scale."""
    if sym.is_zero:
        return True
    return _coeff_scale(sym, 24) <= tol.COEFF_ZERO * max(floor, 1e-300)


def _id_residual(lhs: RationalSymbol, rhs: RationalSymbol, floor: float) -> float:
    """Residual of an operator identity, relative to the operand scale.

    Comparing coefficient windows keeps the metric meaningful when the exact
    image happens to be near zero (the cross-multiplied rational residual
    would then divide by a vanishing quantity)."""
    K = decay_window([lhs, rhs])
    dl = lhs.fourier_range(-K, K)
    dr = rhs.fourier_range(-K, K)
    scale = max(floor, float(np.abs(dl).max()), float(np.abs(dr).max()), 1e-300)
    return float(np.abs(dl - dr).max()) / scale


def _identity_verdict(probes, op_scale: float, sides) -> tuple:
    """(ok, detail) of an operator identity: ``sides(f)`` yields the
    (lhs, rhs) pairs it claims equal on the probe f, and the worst residual
    over every pair and probe must stay within IDENTITY_RESIDUAL."""
    worst = 0.0
    for f in probes:
        floor = op_scale * max(_coeff_scale(f), 1.0)
        for lhs, rhs in sides(f):
            worst = max(worst, _id_residual(lhs, rhs, floor))
    return worst <= tol.IDENTITY_RESIDUAL, {"max_residual": worst}


def _nonzero_pair(rng, profile=GENERIC) -> SymbolPair:
    # the sampler never returns the zero symbol or a pole on the circle
    for _ in range(16):
        pair = SymbolPair(sample_symbol(profile, rng), sample_symbol(profile, rng))
        if pair.nondegenerate:
            return pair
    raise RuntimeError("sampling a nondegenerate pair failed")


def _winding_pair(rng) -> tuple:
    """(kappa, (g b, b)): g of winding kappa in [-3, 2], b invertible."""
    kappa = int(rng.integers(-3, 3))
    g = sample_quotient_with_winding(GENERIC, rng, kappa)
    b = sample_symbol(GENERIC.tighter(class_constraint="invertible"), rng)
    return kappa, SymbolPair(g * b, b)


# ----------------------------------------------------------------------
# individual property checks (each: rng, cfg -> (ok, detail))


def _p_norm(rng, cfg):
    # constant-modulus symbols: sup-norms are exact and attained, so the
    # truncation reaches them to window-tail accuracy at the default size
    inner_prof = SMOOTH.tighter(class_constraint="inner", degree_bound=2)
    a = sample_symbol(inner_prof, rng) * complex(rng.uniform(0.5, 2.0))
    if rng.random() < 0.5:
        b = sample_symbol(inner_prof, rng) * complex(rng.uniform(0.5, 2.0))
    else:
        b = a * complex(rng.uniform(0.5, 1.5))  # aligned moduli push toward the upper bound
    sup_a, sup_b = a.sup_circle(), b.sup_circle()
    m = max(sup_a, sup_b)
    upper = min(sup_a + sup_b, math.sqrt(2.0) * m)
    norm = operator_norm(Paired(a, b), NORM_N)
    ok = (m - tol.NORM_SLACK <= norm <= upper + tol.NORM_SLACK)
    return ok, {"norm": norm, "m": m, "upper": upper}


def _p_zero(rng, cfg):
    zero_op = Paired(R.zero(), R.zero())
    for j in range(-8, 9):
        if not apply_exact(zero_op, R.monomial(j)).is_zero:
            return False, {"reason": "zero operator has a nonzero image", "j": j}
    p = _nonzero_pair(rng)
    live = Paired(p.a, p.b)
    if all(apply_exact(live, R.monomial(j)).is_zero for j in range(-8, 9)):
        return False, {"reason": "nonzero symbols but vanishing images"}
    return True, {}


def _p_prod(rng, cfg):
    p = _nonzero_pair(rng)
    at = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng)
    bt = sample_symbol(GENERIC.tighter(class_constraint="HinfBar"), rng)
    lhs = Compose(Paired(p.a, p.b), Paired(at, bt))
    rhs = Paired(p.a * at, p.b * bt)
    for f in _probe_functions(rng):
        if not apply_exact(lhs, f).equals(apply_exact(rhs, f)):
            return False, {"reason": "analytic product did not collapse"}
    # converse: an analytically-misplaced pole must break the collapse
    bad = sample_symbol(GENERIC, rng)
    if bad.poles_at(LOC_IN) == 0 and bad.zpow >= 0:
        bad = bad * R(1.0, 0, (), (Root(0.4 + 0.1j, 1, LOC_IN),))
    lhs_bad = Compose(Paired(p.a, p.b), Paired(bad, bt))
    rhs_bad = Paired(p.a * bad, p.b * bt)
    probe = R.const(1.0)
    diff_ok = not apply_exact(lhs_bad, probe).equals(apply_exact(rhs_bad, probe))
    if not diff_ok:
        return False, {"reason": "collapse held despite violated hypothesis"}
    return True, {}


def _cross_term(y: SymbolPair, fp: R, fm: R) -> R:
    """The Hankel-type cross term (y.b P-f)_+ - (y.a P+f)_- of f = fp + fm,
    with fp = P+f and fm = P-f."""
    return (y.b * fm).riesz("plus") - (y.a * fp).riesz("minus")


def _p_prodres(rng, cfg):
    p = _nonzero_pair(rng)
    q = _nonzero_pair(rng)
    op_scale = (_coeff_scale(p.a) + _coeff_scale(p.b)) * (_coeff_scale(q.a) + _coeff_scale(q.b))
    # the probes share every symbol and node below
    dp, dq = p.a - p.b, q.a - q.b
    composed, product = Compose(Paired(p.a, p.b), Paired(q.a, q.b)), Paired(p.a * q.a, p.b * q.b)
    composed_t, product_t = Compose(Transposed(p.a, p.b), Transposed(q.a, q.b)), Transposed(product.a, product.b)

    def sides(f):
        lhs = apply_exact(composed, f) - apply_exact(product, f)
        yield lhs, dp * _cross_term(q, f.riesz("plus"), f.riesz("minus"))
        lhs2 = apply_exact(composed_t, f) - apply_exact(product_t, f)
        inner = dq * f
        yield lhs2, (p.b * inner.riesz("plus")).riesz("minus") - (p.a * inner.riesz("minus")).riesz("plus")

    return _identity_verdict(_probe_functions(rng), op_scale, sides)


def _p_commexp(rng, cfg):
    p = _nonzero_pair(rng)
    q = _nonzero_pair(rng)
    op_scale = (_coeff_scale(p.a) + _coeff_scale(p.b)) * (_coeff_scale(q.a) + _coeff_scale(q.b))
    # the probes share every symbol and node below
    dp, dq = p.a - p.b, q.a - q.b
    comm = Commutator(Paired(p.a, p.b), Paired(q.a, q.b))
    comm_t = Commutator(Transposed(p.a, p.b), Transposed(q.a, q.b))

    def sides(f):
        lhs = apply_exact(comm, f)
        fp, fm = f.riesz("plus"), f.riesz("minus")
        yield lhs, dp * _cross_term(q, fp, fm) - dq * _cross_term(p, fp, fm)
        lhs2 = apply_exact(comm_t, f)
        u = dp * f
        v = dq * f
        yield lhs2, (
            (q.a * u.riesz("minus")).riesz("plus")
            - (q.b * u.riesz("plus")).riesz("minus")
            - (p.a * v.riesz("minus")).riesz("plus")
            + (p.b * v.riesz("plus")).riesz("minus")
        )

    return _identity_verdict(_probe_functions(rng), op_scale, sides)


def _p_finrank(rng, cfg):
    tight = SMOOTH.tighter(degree_bound=2)
    p = _nonzero_pair(rng, tight)
    eta = sample_symbol(tight, rng)
    node = Commutator(Paired(p.a, p.b), Mult(eta))
    d = bandwidth(node)
    n1 = max(32, 2 * d)
    r1 = numerical_rank(truncate(node, n1), tol.COMMUTATOR_RANK_TOL)
    r2 = numerical_rank(truncate(node, 2 * n1), tol.COMMUTATOR_RANK_TOL)
    num = eta.num
    bound = (eta.poles_at(LOC_IN) + max(0, -num.lo)) + (eta.poles_at(LOC_OUT) + max(0, num.hi))
    ok = (r1.rank == r2.rank) and r1.rank <= bound and not r1.indeterminate and not r2.indeterminate
    return ok, {"rank_N": r1.rank, "rank_2N": r2.rank, "bound": bound, "gap": r1.gap}


def _op_coeff_scale(node) -> float:
    return max(sum(_coeff_scale(s) for s in _symbols_in(node)), 1.0)


def _commutes_on_probes(x, y, probes) -> bool:
    node = Commutator(x, y)
    floor = _op_coeff_scale(x) * _op_coeff_scale(y)
    return all(
        _vanishes(apply_exact(node, f), floor * max(_coeff_scale(f), 1.0)) for f in probes
    )


def _p_commutant(rng, cfg):
    probes = _probe_functions(rng)
    # sharing condition 1: both multiplications
    e1 = sample_symbol(GENERIC, rng)
    e2 = sample_symbol(GENERIC, rng)
    if not _commutes_on_probes(Paired(e1, e1), Paired(e2, e2), probes):
        return False, {"case": "multiplication operators failed to commute"}
    # sharing condition 2: analytic / co-analytic split
    a = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng)
    at = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng)
    b = sample_symbol(GENERIC.tighter(class_constraint="HinfBar"), rng)
    bt = sample_symbol(GENERIC.tighter(class_constraint="HinfBar"), rng)
    if not _commutes_on_probes(Paired(a, b), Paired(at, bt), probes):
        return False, {"case": "analytic split failed to commute"}
    # sharing condition 3: affine relation with common coefficients
    q = _nonzero_pair(rng)
    lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    mu = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    a3 = lam * q.a + mu
    b3 = lam * q.b + mu
    if a3.is_zero or b3.is_zero:
        return True, {"skipped": "affine sample degenerated"}
    if not _commutes_on_probes(Paired(a3, b3), Paired(q.a, q.b), probes):
        return False, {"case": "affine relation failed to commute"}
    # converse: violate all three conditions and demand noncommutation
    av = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng)
    atv = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng)
    bv = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng) * R.monomial(1)
    btv = sample_symbol(GENERIC.tighter(class_constraint="HinfBar"), rng)
    if av.equals(bv) or atv.equals(btv):
        return True, {"skipped": "converse sample degenerated"}
    # bv = s z (s in Hinf, s != 0) is not co-analytic, and bv - mu = lam btv would
    # make it constant though bv(0) = 0: neither split nor affine relation holds
    if _commutes_on_probes(Paired(av, bv), Paired(atv, btv), probes):
        return False, {"case": "noncommuting pair commuted on all probes"}
    return True, {}


def _p_constcomm(rng, cfg):
    p = _nonzero_pair(rng)
    probes = _probe_functions(rng)
    c = R.const(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    if not _commutes_on_probes(Paired(p.a, p.b), Mult(c), probes):
        return False, {"case": "constant failed to commute"}
    eta = sample_symbol(GENERIC, rng)
    if eta.num.degree_span() == 0 and eta.zpow == 0 and not eta.poles:
        eta = eta * R.from_coeffs({0: 1.0, 1: 0.5})
    if _commutes_on_probes(Paired(p.a, p.b), Mult(eta), probes):
        return False, {"case": "nonconstant symbol commuted"}
    return True, {}


def _kercomm_conditions(f: RationalSymbol, eta: RationalSymbol) -> bool:
    fp, fm = f.riesz("plus"), f.riesz("minus")
    return (eta * fp).equals((eta * f).riesz("plus")) and (eta * fm).equals(
        (eta * f).riesz("minus")
    )


def _build_plus_killer(eta: RationalSymbol, rng) -> RationalSymbol:
    """f_+ in H2+ with eta * f_+ analytic: clear eta's inside singularities."""
    h = sample_symbol(GENERIC.tighter(class_constraint="Hinf", degree_bound=1), rng)
    clear = R.monomial(max(0, -eta.zpow))
    for r in eta.poles:
        if r.loc == LOC_IN:
            clear = clear * R(1.0, 0, (Root(r.value, r.mult, r.loc),), ())
    return clear * h


def _kercomm_witness(eta: RationalSymbol, rng) -> RationalSymbol:
    """f_+ + conj(g_+) / z, with f_+ and g_+ the plus killers of eta and of
    conj(eta): multiplication by eta keeps both halves in their Hardy spaces."""
    f_plus = _build_plus_killer(eta, rng)
    return f_plus + _build_plus_killer(eta.conj_circle(), rng).conj_circle() * R.monomial(-1)


def _kercomm_verdict(node, eta: RationalSymbol, probes, weight=None) -> tuple:
    """(ok, detail) of a commutation criterion: on every probe f the
    commutator ``node`` with M_eta kills f exactly when f (``weight * f``
    when a weight is given) meets the projection conditions."""
    floor = _op_coeff_scale(node)
    for f in probes:
        vanishes = _vanishes(apply_exact(node, f), floor * max(_coeff_scale(f), 1.0))
        conds = _kercomm_conditions(f if weight is None else weight * f, eta)
        if vanishes != conds:
            return False, {"reason": "equivalence mismatch", "vanishes": vanishes, "conds": conds}
    return True, {}


def _p_kercomm_s(rng, cfg):
    p = _nonzero_pair(rng)
    eta = sample_symbol(GENERIC, rng)
    node = Commutator(Paired(p.a, p.b), Mult(eta))
    f_good = _kercomm_witness(eta, rng)
    if not _kercomm_conditions(f_good, eta):
        return False, {"reason": "constructed function fails the projection conditions"}
    probes = [f_good, sample_l2_function(GENERIC, rng), sample_l2_function(GENERIC, rng)]
    return _kercomm_verdict(node, eta, probes)


def _p_kercomm_sig(rng, cfg):
    a = sample_symbol(GENERIC, rng)
    delta = sample_symbol(GENERIC.tighter(class_constraint="invertible"), rng)
    b = a - delta
    if b.is_zero:
        return True, {"skipped": "degenerate difference"}
    eta = sample_symbol(GENERIC, rng)
    node = Commutator(Transposed(a, b), Mult(eta))
    probes = [_kercomm_witness(eta, rng) / delta, sample_l2_function(GENERIC, rng)]
    return _kercomm_verdict(node, eta, probes, weight=a - b)


def _p_adj(rng, cfg):
    a = sample_symbol(GENERIC, rng)
    c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    b = a - c
    if b.is_zero:
        return True, {"skipped": "degenerate shift"}
    pos = adjoint_residual(
        Paired(a, b), Paired(a.conj_circle(), b.conj_circle()), 6
    )
    if pos > tol.ADJOINT_RESIDUAL:
        return False, {"reason": "adjoint residual for constant difference", "residual": pos}
    # negative: force a low-order nonconstant difference
    shift = R.from_coeffs({1: complex(rng.uniform(0.5, 1.5), 0.0), 0: 1.0})
    b2 = a - shift
    if b2.is_zero:
        return True, {"skipped": "degenerate nonconstant shift"}
    neg = adjoint_residual(
        Paired(a, b2), Paired(a.conj_circle(), b2.conj_circle()), 6
    )
    if neg < tol.ADJOINT_DEFECT_MIN:
        return False, {"reason": "nonconstant difference looked self-adjoint", "residual": neg}
    return True, {"positive_residual": pos, "negative_residual": neg}


def _p_jmap(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 3)), "invertible")
    kb = transposed_kernel(pair)
    if kb.status != "exact" or kb.dimension == 0:
        return False, {"reason": "expected a nontrivial exact transposed kernel"}
    if not all(member_S(j_map(psi, pair), pair) for psi in kb.elements):
        return False, {"reason": "forward image leaves the paired kernel"}
    pk = paired_kernel(pair)
    for el in pk.elements:
        phi = el.total
        psi = j_map(phi, pair, inverse=True)
        if not member_Sigma(psi, pair):
            return False, {"reason": "inverse image leaves the transposed kernel"}
        back = j_map(psi, pair)
        if not back.equals(phi):
            return False, {"reason": "round trip is not the identity"}
    return True, {}


def _p_rank1(rng, cfg):
    # degree-2 symbols keep the assembly noise two orders below the default
    # 1e-10 rank threshold; the rank-one statement itself is unchanged
    p = _nonzero_pair(rng, SMOOTH.tighter(degree_bound=2))
    mz = Mult(R.monomial(1))
    results = {}
    for name, node in (
        ("paired", Commutator(Paired(p.a, p.b), mz)),
        ("transposed", Commutator(Transposed(p.a, p.b), mz)),
    ):
        d = bandwidth(node)
        res = numerical_rank(truncate(node, max(16, 2 * d)))
        results[name] = res.rank
        if res.rank != 1 or res.indeterminate:
            return False, {"reason": f"{name} commutator rank != 1", "rank": res.rank}
    # degenerate case: equal symbols commute with multiplication
    e = sample_symbol(GENERIC, rng)
    node0 = Commutator(Paired(e, e), mz)
    res0 = numerical_rank(truncate(node0, max(16, 2 * bandwidth(node0))))
    if res0.rank != 0:
        return False, {"reason": "multiplication commutator is not zero", "rank": res0.rank}
    # evaluation formulas for the rank-one action (floor-scaled: the exact
    # image can be zero while the formula carries rounding at machine level)
    f = sample_l2_function(GENERIC, rng)
    floor = (_coeff_scale(p.a) + _coeff_scale(p.b)) * max(_coeff_scale(f), 1.0)
    img = apply_exact(Commutator(Paired(p.a, p.b), mz), f)
    want = (p.a - p.b) * f.fourier(-1)
    if _id_residual(img, want, floor) > tol.ACTION_RESIDUAL:
        return False, {"reason": "paired commutator action mismatch"}
    img2 = apply_exact(Commutator(Transposed(p.a, p.b), mz), f)
    want2 = R.const(((p.a - p.b) * f).fourier(-1))
    if _id_residual(img2, want2, floor) > tol.ACTION_RESIDUAL:
        return False, {"reason": "transposed commutator action mismatch"}
    return True, results


def _p_equiv(rng, cfg):
    prof = GENERIC.tighter(class_constraint="invertible", degree_bound=2)
    a = sample_symbol(prof, rng)
    b = sample_symbol(prof, rng)
    if a.equals(b):
        return True, {"skipped": "degenerate invertible sample"}
    P, Q = ProjPlus(), ProjMinus()
    ab = a / b
    left8 = Compose(Sum(identity(), _compose(P, Mult(ab), Q)), Mult(a))
    mid8 = Sum(Compose(Mult(b.reciprocal()), P), Compose(Mult(a.reciprocal()), Q))
    right = Compose(Sum(identity(), Scale(-1.0, _compose(Q, Mult(ab), P))), Mult(b))
    full8 = _compose(left8, mid8, right)
    left9 = Compose(Sum(identity(), _compose(P, Mult(ab), Q)), Mult(b.reciprocal()))
    full9 = _compose(left9, Paired(a, b), right)
    target = Transposed(a, b)
    op_scale = (_coeff_scale(a) + _coeff_scale(b)) * (1.0 + _coeff_scale(a / b))

    def sides(f):
        want = apply_exact(target, f)
        yield apply_exact(full8, f), want
        yield apply_exact(full9, f), want

    return _identity_verdict(_probe_functions(rng, count=1), op_scale, sides)


def _p_rh(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 4)), "invertible")
    g = pair.quotient()
    kappa = winding_index(g)
    kb = paired_kernel(pair)
    if kb.dimension != max(0, -kappa):
        return False, {"reason": "kernel dimension does not match the winding index"}
    for el in kb.elements:
        floor = (_coeff_scale(pair.a) + _coeff_scale(pair.b)) * max(_coeff_scale(el.total), tol.RH_SCALE_FLOOR)
        resid = _id_residual(pair.a * el.plus, -(pair.b * el.minus), floor)
        if resid > tol.IDENTITY_RESIDUAL:
            return False, {"reason": "Riemann-Hilbert identity residual", "residual": resid}
    probe = sample_l2_function(GENERIC, rng)
    if member_S(probe, pair):
        # possible but measure-zero; treat as failure to flag the sampler
        return False, {"reason": "random probe accidentally in the kernel"}
    return True, {"kappa": kappa}


def _p_scale(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 3)), "invertible")
    # circle zeros only: the sampler never puts a pole on the circle
    eta = sample_symbol(GENERIC.tighter(allow_circle_zeros=True), rng)
    scaled = SymbolPair(pair.a * eta, pair.b * eta)
    if not all(member_S(el.total, scaled) for el in paired_kernel(pair).elements):
        return False, {"reason": "kernel element lost under scaling"}
    kb2 = paired_kernel(scaled)
    if kb2.status == "exact" and not all(member_S(el.total, pair) for el in kb2.elements):
        return False, {"reason": "scaled kernel element not in original"}
    return True, {}


def _p_kereq(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 3)), "invertible")
    eta = sample_symbol(GENERIC.tighter(class_constraint="invertible"), rng)
    scaled = SymbolPair(pair.a * eta, pair.b * eta)
    if not kernels_equal_S(pair, scaled):
        return False, {"reason": "scaled pair not recognized as equal"}
    other = SymbolPair(pair.a, pair.b * R.from_coeffs({0: -0.31, 1: 1.0}))
    if kernels_equal_S(pair, other):
        return False, {"reason": "distinct quotients reported equal"}
    if not all(member_S(el.total, scaled) for el in paired_kernel(pair).elements):
        return False, {"reason": "equal kernels disagree elementwise"}
    return True, {}


def _p_unique(rng, cfg):
    prof = GENERIC.tighter(degree_bound=2, class_constraint="Hinf")
    # a nonzero Hinf sample is in H2+, and conj(it) / z in H2-
    phi_p = sample_symbol(prof, rng)
    phi_m = sample_symbol(prof, rng).conj_circle() * R.monomial(-1)
    pair = symbols_from_function(phi_p, phi_m)
    phi = phi_p + phi_m
    if not member_S(phi, pair):
        return False, {"reason": "constructed pair misses its defining element"}
    eta = sample_symbol(GENERIC.tighter(class_constraint="invertible"), rng)
    scaled = SymbolPair(pair.a * eta, pair.b * eta)
    if nontrivial_S(pair).status is True and not kernels_equal_S(pair, scaled):
        return False, {"reason": "scaling broke the uniqueness criterion"}
    # a pair with a different quotient cannot contain phi
    other = SymbolPair(pair.a, pair.b * R.from_coeffs({0: -0.47, 1: 1.0}))
    if member_S(phi, other):
        return False, {"reason": "element belongs to a second, different kernel"}
    return True, {}


def _p_nontriv_s(rng, cfg):
    kappa, pair = _winding_pair(rng)
    res = nontrivial_S(pair)
    expect = kappa < 0
    if res.status != expect:
        return False, {"reason": "decision mismatch", "kappa": kappa, "got": str(res.status)}
    if res.status is True:
        if res.witness is None or not member_S(res.witness, pair):
            return False, {"reason": "missing or invalid witness"}
        if toeplitz_kernel(pair.quotient()).dimension != -kappa:
            return False, {"reason": "dimension mismatch with factorization"}
    return True, {"kappa": kappa}


def _p_coburn_s(rng, cfg):
    p = _nonzero_pair(rng)
    r1 = nontrivial_S(p)
    r2 = nontrivial_S(p.swap())
    if r1.status is True and r2.status is True:
        return False, {"reason": "both opposite paired kernels nontrivial"}
    # adjoint version, available whenever one symbol is invertible
    if not p.b.has_circle_zero:
        radj = nontrivial_Sigma(SymbolPair(p.a.conj_circle(), p.b.conj_circle()))
        if r1.status is True and radj.status is True:
            return False, {"reason": "kernel and adjoint kernel both nontrivial"}
    return True, {}


def _p_sigma_struct(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 3)), "invertible")
    g = pair.quotient()
    kb = transposed_kernel(pair)
    tk = toeplitz_kernel(g)
    if kb.dimension != tk.dimension:
        return False, {"reason": "invertible b: dimensions differ"}
    for psi in kb.elements:
        h = pair.b * psi
        if not h.membership(SpaceTag.H2PLUS):
            return False, {"reason": "b*psi leaves the plus Hardy space"}
        if not (g * h).membership(SpaceTag.H2MINUS):
            return False, {"reason": "b*psi leaves the Toeplitz kernel"}
    # reflected model space identity: ker(P+ conj(h+) + P- theta) = conj(z K_theta)
    h_plus = sample_symbol(GENERIC.tighter(class_constraint="outer", degree_bound=2), rng)
    theta = _nonconstant_inner(rng, 2)
    dim_theta = theta.zpow + theta.zeros_at(LOC_IN)
    refl_pair = SymbolPair(h_plus.conj_circle(), theta)
    kb2 = transposed_kernel(refl_pair)
    if kb2.status != "exact" or kb2.dimension != dim_theta:
        return False, {"reason": "reflected model space has wrong dimension"}
    model_pair = SymbolPair(theta.conj_circle(), R.const(1.0))
    if not all(member_Sigma((e * R.monomial(1)).conj_circle(), model_pair) for e in kb2.elements):
        return False, {"reason": "reflected element leaves the model space"}
    if not all(member_Sigma(e.conj_circle() * R.monomial(-1), refl_pair) for e in model_space_basis(theta).elements):
        return False, {"reason": "model element fails the reflected kernel"}
    return True, {}


def _sigma_circle_zero_case(rng):
    """(pair, expected_dim) with b carrying circle zeros."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    g = sample_quotient_with_winding(GENERIC.tighter(degree_bound=1), rng, -n)
    circle = R(1.0, 0, tuple(Root(complex(math.cos(t), math.sin(t)), 1, LOC_ON)
                             for t in rng.uniform(0, 2 * math.pi, size=m)), ())
    b0 = sample_symbol(GENERIC.tighter(class_constraint="invertible", degree_bound=1), rng)
    b = b0 * circle
    a = g * b
    return SymbolPair(a, b), max(0, n - m)


def _p_nontriv_sig(rng, cfg):
    kappa, pair = _winding_pair(rng)
    res = nontrivial_Sigma(pair)
    if res.status != (kappa < 0):
        return False, {"reason": "regular decision mismatch", "kappa": kappa}
    if res.status is True and (res.witness is None or not member_Sigma(res.witness, pair)):
        return False, {"reason": "missing or invalid witness"}
    pair2, dim2 = _sigma_circle_zero_case(rng)
    kb2 = transposed_kernel(pair2)
    if kb2.status == "needs_oracle":
        return False, {"reason": "circle-zero case unexpectedly routed to oracle"}
    if kb2.dimension != dim2:
        return False, {"reason": "circle-zero dimension mismatch", "got": kb2.dimension, "want": dim2}
    res2 = nontrivial_Sigma(pair2)
    if (res2.status is True) != (dim2 > 0):
        return False, {"reason": "circle-zero nontriviality mismatch"}
    oracle = kernel_oracle(Transposed(pair2.a, pair2.b), cfg.oracle_N)
    if oracle.dim_estimate != dim2:
        return False, {"reason": "oracle disagrees", "oracle": oracle.dim_estimate, "want": dim2}
    return True, {}


def _p_sigma_incl(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 3)), "invertible")
    h_minus = sample_symbol(GENERIC.tighter(class_constraint="HinfBar", degree_bound=2), rng)
    h_plus = sample_symbol(GENERIC.tighter(class_constraint="Hinf", degree_bound=2), rng)
    q = SymbolPair(pair.a * h_minus, pair.b * h_plus)
    verdict = sigma_inclusion(pair, q)
    if verdict not in ("subset", "equal"):
        return False, {"reason": "product extension not recognized", "verdict": verdict}
    kb_p = transposed_kernel(pair)
    kb_q = transposed_kernel(q)
    if kb_q.status == "exact":
        if not all(member_Sigma(e, q) for e in kb_p.elements):
            return False, {"reason": "claimed inclusion fails elementwise"}
        if verdict == "equal" and kb_p.dimension != kb_q.dimension:
            return False, {"reason": "claimed equality with different dimensions"}
        has_inner = _has_plus_inner_factor(h_plus) or _has_minus_inner_factor(h_minus)
        if has_inner and kb_p.dimension == kb_q.dimension:
            return False, {"reason": "inner multiplier but inclusion is not strict"}
    # ordered model spaces
    p1 = SymbolPair(R.monomial(-1), R.const(1.0))
    p2 = SymbolPair(R.monomial(-2), R.const(1.0))
    if sigma_inclusion(p1, p2) != "subset":
        return False, {"reason": "nested model spaces not detected"}
    if sigma_inclusion(p2, p1) != "no_subset":
        return False, {"reason": "reversed nesting not rejected"}
    return True, {"verdict": verdict}


def _p_coburn_sig(rng, cfg):
    p = _nonzero_pair(rng)
    r1 = nontrivial_Sigma(p)
    r2 = nontrivial_Sigma(p.swap())
    if r1.status is True and r2.status is True:
        return False, {"reason": "both opposite transposed kernels nontrivial"}
    return True, {}


def _nonconstant_inner(rng, degree_bound: int) -> RationalSymbol:
    """An inner theta with dim K_theta >= 1: a constant draw is multiplied by z."""
    theta = sample_symbol(GENERIC.tighter(class_constraint="inner", degree_bound=degree_bound), rng)
    if theta.zpow + theta.zeros_at(LOC_IN) == 0:
        theta = theta * R.monomial(1)
    return theta


def _split_invariant(elements, pair: SymbolPair, rng) -> bool:
    """Whether P+ at + P- bt, with at co-analytic and bt analytic, maps every
    element into the transposed kernel of ``pair``."""
    at = sample_symbol(GENERIC.tighter(class_constraint="HinfBar"), rng)
    bt = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng)
    act = Transposed(at, bt)
    return all(member_Sigma(apply_exact(act, e), pair) for e in elements)


def _p_inv(rng, cfg):
    # transposed side: co-analytic/analytic symbols leave the kernel invariant
    theta = _nonconstant_inner(rng, 2)
    o1 = sample_symbol(GENERIC.tighter(class_constraint="outer", degree_bound=1), rng)
    a = (theta * o1).conj_circle()
    b = sample_symbol(GENERIC.tighter(class_constraint="outer", degree_bound=1), rng)
    pair = SymbolPair(a, b)
    kb = transposed_kernel(pair)
    if kb.status != "exact" or kb.dimension == 0:
        return False, {"reason": "expected a nontrivial exact kernel"}
    if not _split_invariant(kb.elements, pair, rng):
        return False, {"reason": "image left the invariant kernel"}
    # paired side with the analytic split: kernel is {0}, invariance is trivial
    a2 = sample_symbol(GENERIC.tighter(class_constraint="Hinf"), rng)
    b2 = sample_symbol(GENERIC.tighter(class_constraint="HinfBar"), rng)
    if not a2.equals(b2):
        kb2 = paired_kernel(SymbolPair(a2, b2))
        if kb2.status == "exact" and kb2.dimension != 0:
            return False, {"reason": "analytic/co-analytic paired kernel unexpectedly nonzero"}
    return True, {}


def _p_modelinv(rng, cfg):
    theta = _nonconstant_inner(rng, 3)
    basis = model_space_basis(theta)
    pair = SymbolPair(theta.conj_circle(), R.const(1.0))
    if not _split_invariant(basis.elements, pair, rng):
        return False, {"reason": "model space not invariant"}
    return True, {"dim": basis.dimension}


def _p_almost(rng, cfg):
    tight = SMOOTH.tighter(degree_bound=2)
    pair = sample_pair_with_kernel(tight, rng, int(rng.integers(1, 3)), "invertible")
    q = _nonzero_pair(rng, tight)
    T = Paired(pair.a, pair.b)
    X = Paired(q.a, q.b)
    node = Commutator(X, T)
    d = bandwidth(node)
    res = numerical_rank(truncate(node, max(40, 3 * d)), tol.COMMUTATOR_RANK_TOL)
    if res.indeterminate:
        return False, {"reason": "commutator rank indeterminate", "gap": res.gap}
    kb = paired_kernel(pair)
    totals = [el.total for el in kb.elements]
    images = [apply_exact(X, f) for f in totals]
    defect = span_defect(totals, images)
    if defect > res.rank:
        return False, {"reason": "defect exceeds commutator rank", "defect": defect, "rank": res.rank}
    return True, {"defect": defect, "rank": res.rank}


def _p_defect1(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 4)), "invertible")
    kb = paired_kernel(pair)
    totals = [el.total for el in kb.elements]
    sigma_kb = transposed_kernel(pair)
    sig = list(sigma_kb.elements)
    for mult in (R.monomial(1), R.monomial(-1)):
        for basis in (totals, sig):
            if not basis:
                continue
            images = [mult * f for f in basis]
            defect = span_defect(basis, images)
            if defect > 1:
                return False, {"reason": "shift defect exceeds one", "defect": defect}
    return True, {}


def _p_stab(rng, cfg):
    n = int(rng.integers(2, 4))
    pair = sample_pair_with_kernel(GENERIC, rng, n, "invertible")
    kb = paired_kernel(pair)
    if kb.dimension < 2:
        return False, {"reason": "expected a kernel of dimension >= 2"}
    el = kb.elements[int(rng.integers(1, kb.dimension))]
    f = el.total
    j = el.plus.zpow  # vanishing order of the plus part at the origin
    m = int(rng.integers(1, max(2, j + 1)))
    c = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    d = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    eta = R.const(c) + R.monomial(-m, d)
    if not _kercomm_conditions(f, eta):
        return False, {"reason": "constructed multiplier fails the stability hypothesis"}
    if not member_S(eta * f, pair):
        return False, {"reason": "stable multiple left the kernel"}
    low = kb.elements[0].total
    eta_bad = R.monomial(-1)
    if _kercomm_conditions(low, eta_bad):
        return False, {"reason": "hypothesis unexpectedly held for the bottom element"}
    return True, {}


def _p_fplus0(rng, cfg):
    pair = sample_pair_with_kernel(GENERIC, rng, int(rng.integers(1, 4)), "invertible")
    kb = paired_kernel(pair)
    if kb.status != "exact" or kb.dimension == 0:
        return False, {"reason": "expected a nontrivial exact kernel"}
    if not any(abs(el.plus.fourier(0)) > tol.COEFF_ZERO for el in kb.elements):
        return False, {"reason": "no element with nonzero plus value at the origin"}
    if not any(abs(el.minus.fourier(-1)) > tol.COEFF_ZERO for el in kb.elements):
        return False, {"reason": "no element with nonzero leading minus coefficient"}
    return True, {}


# ----------------------------------------------------------------------
# registry

_REG: List[PropertyDef] = [
    PropertyDef("P_NORM", "max(|a|,|b|) <= |aP+ + bP-| <= min(|a|+|b|, sqrt(2) max)", 100, _p_norm),
    PropertyDef("P_ZERO", "aP+ + bP- = 0 iff a = b = 0", 1, _p_zero),
    PropertyDef("P_PROD", "products collapse iff the right factor splits analytically", 100, _p_prod),
    PropertyDef("P_PRODRES", "product residual is the Hankel-type cross term", 100, _p_prodres),
    PropertyDef("P_COMMEXP", "commutators expand into Hankel-type cross terms", 100, _p_commexp),
    PropertyDef("P_FINRANK", "commutators with rational multipliers have finite, stable rank", 60, _p_finrank),
    PropertyDef("P_COMMUTANT", "two paired operators commute only under the three sharing conditions", 100, _p_commutant),
    PropertyDef("P_CONSTCOMM", "only constants commute with a nondegenerate paired operator", 100, _p_constcomm),
    PropertyDef("P_KERCOMM_S", "commuting with a multiplier means both halves stay in their Hardy spaces", 100, _p_kercomm_s),
    PropertyDef("P_KERCOMM_SIG", "transposed commutation reduces to the paired condition on (a-b)f", 100, _p_kercomm_sig),
    PropertyDef("P_ADJ", "the adjoint is again of multiplication-projection type iff a - b is constant", 100, _p_adj),
    PropertyDef("P_JMAP", "psi -> (a-b) psi maps one kernel into the other, with explicit inverse", 100, _p_jmap),
    PropertyDef("P_RANK1", "commutators with the shift are exactly rank one for distinct symbols", 100, _p_rank1),
    PropertyDef("P_EQUIV", "projection-after and multiplication-after operators are equivalent via invertibles", 100, _p_equiv),
    PropertyDef("P_RH", "kernel elements solve a phi_+ + b phi_- = 0; dimension equals max(0,-winding)", 100, _p_rh),
    PropertyDef("P_SCALE", "kernels are invariant under common nonvanishing scaling of both symbols", 100, _p_scale),
    PropertyDef("P_KEREQ", "two nontrivial kernels coincide iff the symbol cross products agree", 100, _p_kereq),
    PropertyDef("P_UNIQUE", "every nonzero function lies in exactly one paired kernel, constructively", 100, _p_unique),
    PropertyDef("P_NONTRIV_S", "paired kernel nontrivial iff the quotient has negative winding; witness returned", 100, _p_nontriv_s),
    PropertyDef("P_COBURN_S", "of the two opposite paired kernels at least one is trivial", 500, _p_coburn_s),
    PropertyDef("P_SIGMA_STRUCT", "b maps the transposed kernel into the Toeplitz kernel; reflected model spaces", 100, _p_sigma_struct),
    PropertyDef("P_NONTRIV_SIG", "transposed kernel nontrivial iff winding plus circle-zero count allows it", 100, _p_nontriv_sig),
    PropertyDef("P_SIGMA_INCL", "inclusion of transposed kernels under analytic/co-analytic multipliers", 100, _p_sigma_incl),
    PropertyDef("P_COBURN_SIG", "of the two opposite transposed kernels at least one is trivial", 500, _p_coburn_sig),
    PropertyDef("P_INV", "kernel invariance under operators of the matching analytic split", 100, _p_inv),
    PropertyDef("P_MODELINV", "model spaces are invariant for co-analytic/analytic transposed operators", 100, _p_modelinv),
    PropertyDef("P_ALMOST", "kernels are almost invariant with defect at most the commutator rank", 100, _p_almost),
    PropertyDef("P_DEFECT1", "kernels are almost invariant with defect one for the shift and its inverse", 100, _p_defect1),
    PropertyDef("P_STAB", "multiplier-stable kernel elements stay in the kernel", 100, _p_stab),
    PropertyDef("P_FPLUS0", "a nonzero paired kernel has elements with nonzero boundary coefficients", 100, _p_fplus0),
]

PROPERTIES: Dict[str, PropertyDef] = {p.pid: p for p in _REG}


def registered_ids() -> List[str]:
    return [p.pid for p in _REG]


def _run_single(pid: str, master_seed: int, cfg: RunConfig, tolerances: dict, index: int):
    # tolerances are passed, not inherited: spawned workers start from the
    # module defaults
    with tol.configured(**tolerances):
        rng = trial_rng(master_seed, index)
        try:
            return PROPERTIES[pid].fn(rng, cfg)
        except Exception as exc:  # a crash is a failure with a reproducible seed
            return False, {"error": f"{type(exc).__name__}: {exc}"}


def run_property(
    property_id: str,
    trials: Optional[int] = None,
    master_seed: int = 0,
    config: Optional[RunConfig] = None,
) -> PropertyReport:
    """Run ``trials`` seeded trials of one property, in worker processes
    when ``config.parallelism > 1``, under the tolerances active at the call."""
    if property_id not in PROPERTIES:
        raise UnknownProperty(property_id)
    prop = PROPERTIES[property_id]
    cfg = config or RunConfig()
    n = prop.default_trials if trials is None else int(trials)
    tolerances = tol.current()
    trial = functools.partial(_run_single, property_id, master_seed, cfg, tolerances)
    t0 = time.perf_counter()
    if cfg.parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor  # on first use: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=cfg.parallelism) as ex:
            results = list(ex.map(trial, range(n)))
    else:
        results = list(map(trial, range(n)))
    failures = [
        {"seed": [master_seed, i], "inputs": detail.get("inputs", []), "detail": detail}
        for i, (ok, detail) in enumerate(results)
        if not ok
    ]
    passes = sum(1 for ok, _ in results if ok)
    wall = time.perf_counter() - t0
    return PropertyReport(
        property_id=property_id,
        anchor=prop.anchor,
        trials=n,
        passes=passes,
        failures=failures,
        tolerances=dict(tolerances, gap_min=tol.GAP_MIN, oracle_N=cfg.oracle_N),
        wall_time=wall,
    )


@dataclass
class SuiteReport:
    reports: List[PropertyReport]
    master_seed: int

    def all_pass(self) -> bool:
        return all(r.all_pass() for r in self.reports)

    def to_json(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "all_pass": self.all_pass(),
            "reports": [r.to_json() for r in self.reports],
        }


def run_suite(
    ids: Sequence[str],
    trials: Optional[int] = None,
    master_seed: int = 0,
    config: Optional[RunConfig] = None,
) -> SuiteReport:
    if not ids:
        raise UnknownProperty("empty property list")
    for pid in ids:
        if pid not in PROPERTIES:
            raise UnknownProperty(pid)
    reports = [run_property(pid, trials, master_seed, config) for pid in ids]
    return SuiteReport(reports, master_seed)
