"""Numeric policy knobs.

All coefficients are double-precision complex; "exact" equality means a
relative residual below EPS_EQ.  The constants below are module-level and
library code reads them through the module at call time; ``configured``
overrides them for the length of a ``with`` block (the CLI applies its
config file this way, one command at a time).
"""

import contextlib

# Relative tolerance for exact-equality decisions between rational functions.
EPS_EQ = 1e-11

# Half-width of the band around |z| = 1 inside which a root counts as "on"
# the circle.
EPS_CIRCLE = 1e-9

# Radius used when clustering near-identical roots into multiple roots.
EPS_CLUSTER = 1e-7

# Radius for zero/pole cancellation matching.  Much tighter than EPS_CLUSTER:
# genuine common factors reproduce to ~1e-13 through exact arithmetic, while
# sampled data can legitimately place a zero within 1e-7 of a pole, and
# cancelling such a pair would corrupt the function at that scale.
EPS_CANCEL = 1e-9

# Coefficients below EPS_DROP * (scale) are pruned from Laurent polynomials.
EPS_DROP = 1e-13

# Default tolerance for numerical rank decisions (relative to sigma_max).
RANK_TOL = 1e-10

# Minimal spectral gap ratio for a rank/kernel answer to count as certified.
GAP_MIN = 1e3

_CONFIGURABLE = {
    "eps_eq": "EPS_EQ",
    "eps_circle": "EPS_CIRCLE",
    "eps_cluster": "EPS_CLUSTER",
    "rank_tol": "RANK_TOL",
}


def configure(**kwargs):
    """Override tolerance constants process-wide, until changed again."""
    for key, value in kwargs.items():
        if key not in _CONFIGURABLE:
            raise KeyError(key)
        if not (isinstance(value, (int, float)) and value > 0):
            raise ValueError(f"{key} must be a positive number")
        globals()[_CONFIGURABLE[key]] = float(value)


@contextlib.contextmanager
def configured(**kwargs):
    """Override tolerance constants inside a with-block; the previous values
    come back when it exits."""
    saved = {name: globals()[name] for name in _CONFIGURABLE.values()}
    try:
        configure(**kwargs)
        yield
    finally:
        globals().update(saved)
