"""Independent output checks for the pairedk benchmark, numpy only.

Symbols are read from their JSON wire form (a coefficient map or a
zero-pole-gain object, as ``RationalSymbol.to_json`` writes them) and
evaluated directly on a circle grid.  Riesz projections come from the FFT,
winding numbers from phase accumulation and sup-norms from the grid.  Nothing
here imports pairedk, so agreement with the library is a genuine cross-check.
"""

from __future__ import annotations

import numpy as np

GRID = 2048


def circle_grid(n: int = GRID) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def eval_json(data: dict, z: np.ndarray) -> np.ndarray:
    """Values of a symbol given as JSON at the points ``z`` (none at a pole)."""
    z = np.asarray(z, dtype=complex)
    if "coeffs" in data:
        out = np.zeros(z.shape, dtype=complex)
        for k, (re, im) in data["coeffs"].items():
            out += complex(re, im) * z ** int(k)
        return out
    out = complex(*data["gain"]) * z ** int(data.get("zpow", 0))
    for e in data.get("zeros", []):
        out = out * (z - complex(*e["z"])) ** int(e.get("m", 1))
    for e in data.get("poles", []):
        out = out / (z - complex(*e["z"])) ** int(e.get("m", 1))
    return out


def fourier(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Fourier coefficients k = lo..hi of grid values (trapezoid rule)."""
    n = len(values)
    c = np.fft.fft(values) / n
    return c[np.arange(lo, hi + 1) % n]


def riesz(values: np.ndarray, side: str) -> np.ndarray:
    """Grid values of P+ f (indices >= 0) or P- f (indices < 0)."""
    n = len(values)
    c = np.fft.fft(values)
    if side == "plus":
        c[n // 2 :] = 0.0
    elif side == "minus":
        c[: n // 2] = 0.0
    else:
        raise ValueError("side must be 'plus' or 'minus'")
    return np.fft.ifft(c)


def winding(values: np.ndarray) -> int:
    """Winding number of the closed grid curve around 0.

    Raises ValueError when consecutive phases jump by more than a quarter
    turn, since the grid would then be too coarse to follow the curve.
    """
    if np.any(values == 0):
        raise ValueError("curve passes through 0")
    phases = np.angle(values)
    jumps = np.diff(np.concatenate([phases, phases[:1]]))
    jumps = (jumps + np.pi) % (2 * np.pi) - np.pi
    if np.max(np.abs(jumps)) > np.pi / 2:
        raise ValueError("grid too coarse for phase accumulation")
    return int(round(float(jumps.sum()) / (2 * np.pi)))


def sup_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def rel(residual: np.ndarray, *scales: np.ndarray) -> float:
    """max |residual| relative to the largest of the given scales."""
    scale = max([sup_norm(s) for s in scales] + [1e-300])
    return sup_norm(residual) / scale
