"""Numeric policy knobs: the one record of pairedk's numerical settings.

All coefficients are double-precision complex; "exact" equality means a
relative residual below EPS_EQ.  The constants below are module-level and
library code reads them through the module at call time.  No other module
writes a float literal of at most 1e-3, apart from 1e-300 division guards.
Only the four constants named in ``SETTABLE`` (EPS_EQ, EPS_CIRCLE,
EPS_CLUSTER, RANK_TOL) are settable; every other one is fixed.

The four keys of ``SETTABLE`` are set only through ``configured``, which
overrides them for the length of a ``with`` block and restores them when it
exits; every value must be a positive number, and ``rank_tol`` must also
be below 1 (a threshold at or above sigma_max counts every singular value as
noise).  Library callers write
``with tolerances.configured(rank_tol=1e-8): ...``.  The CLI opens one such
block per command, from its ``--tol`` flag (``rank_tol``) and its config file;
the flag wins over the file, and the file over the defaults below.
``properties.run_property`` records the active values of all four and
re-opens the block around every trial, so worker processes compute with the
values the report records under every process start method (fork, spawn,
forkserver).
"""

import contextlib
import sys

# Relative tolerance for exact-equality decisions between rational functions.
EPS_EQ = 1e-11

# Half-width of the band around |z| = 1 inside which a root counts as "on"
# the circle; it also bounds |f| - 1 for an inner function (``circle_modulus``).
EPS_CIRCLE = 1e-9

# The only radius of root identity (``roots.same_root``), relative to
# max(1, |root|): it clusters located roots, places a zero beside a pole and
# matches a zero reflected to 1/conj(z) with a pole.  After clustering, two
# root entries name one root exactly when their values are equal.
EPS_CLUSTER = 1e-7

# Default tolerance for numerical rank decisions (relative to sigma_max).
RANK_TOL = 1e-10

# Minimal spectral gap ratio for a rank/kernel answer to count as certified.
GAP_MIN = 1e3

# operator_norm's Krylov phase returns its top Ritz value once the residual
# bound is at most NORM_CERT times that value (a few units of roundoff), and
# runs at most n // NORM_STEP_COST steps on a truncation of n columns (a step
# costs about 1/n of the SVD); otherwise the full SVD decides.  Neither is
# settable: either way the answer is a certified singular value.
NORM_CERT = 4 * sys.float_info.epsilon
NORM_STEP_COST = 20

# Fixed guards.  ``roots._polish`` takes no Newton step where |p'| is at most
# NEWTON_GUARD times the polynomial's scale (near a multiple root it would
# wander).  ``rf_normalize`` skips a probe point whose denominator is below
# PROBE_DEN_MIN of its largest coefficient, and refuses a value that drifts
# by more than PROBE_DRIFT relative to max(1, |value|).
NEWTON_GUARD = 1e-8
PROBE_DEN_MIN = 1e-6
PROBE_DRIFT = 1e-7

# Verdict thresholds of the property suite, one per meaning; none is settable.
IDENTITY_RESIDUAL = 1e-10  # operator identities: P_PRODRES, P_COMMEXP, P_EQUIV, P_RH
RH_SCALE_FLOOR = 1e-6  # P_RH counts a kernel element as at least this large
ACTION_RESIDUAL = 1e-9  # P_RANK1's formulas for the rank-one action
COEFF_ZERO = 1e-9  # a coefficient this small is zero: P_FPLUS0, and _vanishes relative to the operand scale
COMMUTATOR_RANK_TOL = 1e-7  # P_FINRANK, P_ALMOST: above truncation noise, below the signal
NORM_SLACK = 1e-9  # slack of P_NORM's two-sided bound
ADJOINT_RESIDUAL = 1e-12  # P_ADJ: at most this for a constant a - b ...
ADJOINT_DEFECT_MIN = 1e-3  # ... and at least this for a nonconstant one

# Settable key -> the constant it overrides.
SETTABLE = {
    "eps_eq": "EPS_EQ",
    "eps_circle": "EPS_CIRCLE",
    "eps_cluster": "EPS_CLUSTER",
    "rank_tol": "RANK_TOL",
}


def current() -> dict:
    """The active value of every settable key."""
    return {key: globals()[name] for key, name in SETTABLE.items()}


@contextlib.contextmanager
def configured(**overrides):
    """Override settable constants inside a with-block; the previous values
    come back when it exits.  An unknown key raises KeyError and a value
    that is not a positive number raises ValueError, before anything
    changes."""
    for key, value in overrides.items():
        if key not in SETTABLE:
            raise KeyError(key)
        if not (isinstance(value, (int, float)) and value > 0):
            raise ValueError(f"{key} must be a positive number")
        if key == "rank_tol" and value >= 1:
            raise ValueError("rank_tol must be below 1: it is relative to sigma_max")
    saved = current()
    try:
        globals().update({SETTABLE[key]: float(value) for key, value in overrides.items()})
        yield
    finally:
        globals().update({SETTABLE[key]: value for key, value in saved.items()})
