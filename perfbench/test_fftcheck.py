"""Closed-form checks of the benchmark's FFT oracle (fast: small grids)."""

import numpy as np
import pytest

import fftcheck as fc

N = 1024


def zpk(gain=1.0, zpow=0, zeros=(), poles=()):
    root = lambda v: {"z": [complex(v).real, complex(v).imag], "m": 1}
    return {
        "gain": [complex(gain).real, complex(gain).imag],
        "zpow": zpow,
        "zeros": [root(v) for v in zeros],
        "poles": [root(v) for v in poles],
    }


def test_fourier_of_simple_pole_inside():
    # 1/(z - 1/2) = sum_{m >= 1} 2^{1-m} z^{-m} on the circle
    vals = fc.eval_json(zpk(poles=[0.5]), fc.circle_grid(N))
    c = fc.fourier(vals, -20, 20)
    want = np.zeros(41, dtype=complex)
    want[:20] = [2.0 ** (1 - m) for m in range(20, 0, -1)]
    assert np.max(np.abs(c - want)) < 1e-13


def test_winding_counts_zpow_and_zeros_inside_only():
    z = fc.circle_grid(N)
    assert fc.winding(fc.eval_json(zpk(zpow=-2, zeros=[3.0]), z)) == -2
    assert fc.winding(fc.eval_json(zpk(zeros=[0.3, -0.2j], poles=[2.0]), z)) == 2


def test_winding_refuses_a_coarse_grid():
    with pytest.raises(ValueError):
        fc.winding(fc.eval_json(zpk(zpow=40), fc.circle_grid(64)))


def test_sup_of_constant_modulus_quotient():
    # |z - 2| = 2 |z - 1/2| on the circle, so the sup is exactly 2
    vals = fc.eval_json(zpk(zeros=[2.0], poles=[0.5]), fc.circle_grid(N))
    assert abs(fc.sup_norm(vals) - 2.0) < 1e-13
    assert abs(np.min(np.abs(vals)) - 2.0) < 1e-13


def test_riesz_splits_analytic_and_coanalytic_parts():
    z = fc.circle_grid(N)
    f = fc.eval_json(zpk(poles=[0.5]), z) + z
    assert fc.rel(fc.riesz(f, "plus") - z, z) < 1e-13
    assert fc.rel(fc.riesz(f, "minus") - 1.0 / (z - 0.5), f) < 1e-13


def test_coefficient_map_matches_zero_pole_gain_form():
    z = fc.circle_grid(N)
    coeffs = {"coeffs": {"-1": [1.0, 0.0], "0": [-0.5, 0.0]}}  # z^-1 - 1/2
    assert fc.rel(fc.eval_json(coeffs, z) - fc.eval_json(zpk(-0.5, -1, zeros=[2.0]), z), z) < 1e-14
