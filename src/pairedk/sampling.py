"""Seeded random rational symbols with membership-class constraints.

Samplers draw zeros and poles from annuli kept away from the circle (unless
circle zeros are requested explicitly) so that winding numbers, factorization
and the truncated-matrix oracle are all well-conditioned.  Everything is
deterministic given the generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .errors import DegenerateSymbol
from .factorization import blaschke
from .rational import RationalSymbol, SpaceTag
from .roots import LOC_IN, LOC_ON, LOC_OUT, Root


# The class constraints ``sample_symbol`` draws; it refuses any other.
CLASS_CONSTRAINTS = ("none", "Hinf", "HinfBar", "invertible", "inner", "outer")


@dataclass(frozen=True)
class SamplerProfile:
    degree_bound: int = 4
    inside_annulus: Tuple[float, float] = (0.2, 0.8)
    outside_annulus: Tuple[float, float] = (1.25, 5.0)
    allow_circle_zeros: bool = False
    class_constraint: str = "none"  # one of CLASS_CONSTRAINTS
    gain_magnitude: Tuple[float, float] = (0.5, 2.0)
    max_zpow: int = 2

    def tighter(self, **kw) -> "SamplerProfile":
        return replace(self, **kw)


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Deterministic per-trial generator derived from the master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial_index),))
    )


# Minimal pairwise distance between drawn roots: clustered roots make the
# inverse-denominator expansions ill-conditioned without adding coverage.
MIN_ROOT_SEPARATION = 0.08


def _draw_point(rng, annulus, taken=None) -> complex:
    for _ in range(64):
        r = rng.uniform(annulus[0], annulus[1])
        th = rng.uniform(0.0, 2.0 * math.pi)
        v = r * complex(math.cos(th), math.sin(th))
        if not taken or all(abs(v - w) >= MIN_ROOT_SEPARATION for w in taken):
            if taken is not None:
                taken.append(v)
            return v
    raise DegenerateSymbol("could not place a separated root")


def _draw_circle_point(rng) -> complex:
    th = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(th), math.sin(th))


def _draw_gain(rng, profile) -> complex:
    mag = rng.uniform(*profile.gain_magnitude)
    th = rng.uniform(0.0, 2.0 * math.pi)
    return mag * complex(math.cos(th), math.sin(th))


def _draw_root(rng, profile, taken, rule) -> Root:
    """One simple zero or pole drawn by ``rule``: "mixed" (one uniform u: on
    the circle below 0.3 when circle zeros are allowed, else inside below
    0.65, else outside), "either" (inside or outside, one half each),
    "outer" (on the circle with probability 0.3 when allowed, else outside)
    or "out" (outside)."""
    circle = profile.allow_circle_zeros
    if rule == "either":
        inside = rng.random() < 0.5
    else:
        u = rng.random() if rule == "mixed" or (rule == "outer" and circle) else 1.0
        if circle and u < 0.3:
            return Root(_draw_circle_point(rng), 1, LOC_ON)
        inside = rule == "mixed" and u < 0.65
    v = _draw_point(rng, profile.inside_annulus if inside else profile.outside_annulus, taken)
    return Root(v, 1, LOC_IN if abs(v) < 1 else LOC_OUT)


# class -> (zpow range in units of max_zpow, zero rule, pole rule, membership
# tag the sample must pass); "HinfBar" and "inner" are built separately
_CLASSES = {
    "none": ((-1, 1), "mixed", "either", None),
    "Hinf": ((0, 1), "mixed", "out", SpaceTag.HINF),
    "invertible": ((-1, 1), "either", "either", None),
    "outer": ((0, 0), "outer", "out", SpaceTag.OUTER_PLUS),
}


def sample_symbol(profile: SamplerProfile, rng: np.random.Generator) -> RationalSymbol:
    """Draw one rational symbol satisfying the profile's class constraint."""
    c = profile.class_constraint
    if c not in CLASS_CONSTRAINTS:
        raise ValueError(f"unknown class constraint {c!r}")
    if c == "HinfBar":
        inner_profile = profile.tighter(class_constraint="Hinf")
        return sample_symbol(inner_profile, rng).conj_circle()
    if c == "inner":
        k = int(rng.integers(0, profile.max_zpow + 1))
        n = int(rng.integers(0, profile.degree_bound + 1))
        sym = RationalSymbol.monomial(k) if k else RationalSymbol.const(1.0)
        for _ in range(n):
            sym = sym * blaschke(_draw_point(rng, profile.inside_annulus))
        th = rng.uniform(0.0, 2.0 * math.pi)
        sym = sym * complex(math.cos(th), math.sin(th))
        if not sym.membership(SpaceTag.INNER_PLUS):
            raise DegenerateSymbol("inner sample failed its membership check")
        return sym
    (lo, hi), zero_rule, pole_rule, tag = _CLASSES[c]
    n_zeros = int(rng.integers(0, profile.degree_bound + 1))
    n_poles = int(rng.integers(0, profile.degree_bound + 1))
    # an empty range (outer) draws nothing: integers(0, 1) reads no bits
    zpow = int(rng.integers(lo * profile.max_zpow, hi * profile.max_zpow + 1))
    taken = []
    zeros = [_draw_root(rng, profile, taken, zero_rule) for _ in range(n_zeros)]
    poles = [_draw_root(rng, profile, taken, pole_rule) for _ in range(n_poles)]
    sym = RationalSymbol.from_zpk(_draw_gain(rng, profile), zpow, zeros, poles)
    if sym.is_zero:
        raise DegenerateSymbol("sampler produced the zero symbol")
    if tag is not None and not sym.membership(tag):
        raise DegenerateSymbol(f"sample failed its class membership {tag}")
    return sym


def sample_quotient_with_winding(
    profile: SamplerProfile, rng: np.random.Generator, kappa: int
) -> RationalSymbol:
    """Regular rational symbol with a prescribed winding index.

    Assembled from winding-neutral factors (outside zeros/poles and
    inside zero/pole pairs of the shape (1 - alpha/z)) times z^kappa.
    """
    sym = RationalSymbol.monomial(kappa, _draw_gain(rng, profile))
    taken = []
    for _ in range(int(rng.integers(0, profile.degree_bound + 1))):
        u = rng.random()
        if u < 0.25:
            sym = sym * RationalSymbol(
                1.0, 0, (Root(_draw_point(rng, profile.outside_annulus, taken), 1, LOC_OUT),), ()
            )
        elif u < 0.5:
            sym = sym * RationalSymbol(
                1.0, 0, (), (Root(_draw_point(rng, profile.outside_annulus, taken), 1, LOC_OUT),)
            )
        elif u < 0.75:
            alpha = _draw_point(rng, profile.inside_annulus, taken)
            sym = sym * RationalSymbol(1.0, -1, (Root(alpha, 1, LOC_IN),), ())
        else:
            gamma = _draw_point(rng, profile.inside_annulus, taken)
            sym = sym * RationalSymbol(1.0, 1, (), (Root(gamma, 1, LOC_IN),))
    return sym


def sample_pair_with_kernel(
    profile: SamplerProfile,
    rng: np.random.Generator,
    dim: int,
    b_constraint: str = "none",
) -> "tuple":
    """Nondegenerate pair (a, b) whose paired kernel has the given dimension."""
    from .kernels import SymbolPair

    g = sample_quotient_with_winding(profile, rng, -dim)
    bprof = profile.tighter(class_constraint=b_constraint)
    for _ in range(32):
        b = sample_symbol(bprof, rng)
        if b.has_circle_pole or b.has_circle_zero:
            continue
        a = g * b
        if a.has_circle_pole:
            continue
        pair = SymbolPair(a, b)
        if pair.nondegenerate:
            return pair
    raise DegenerateSymbol("failed to assemble a kernel-bearing pair")


def sample_l2_function(profile: SamplerProfile, rng: np.random.Generator) -> RationalSymbol:
    """A rational L2 probe function (no poles on the circle)."""
    prof = profile.tighter(class_constraint="none", allow_circle_zeros=False)
    return sample_symbol(prof, rng)
