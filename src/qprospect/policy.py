"""Numeric policy shared across the package.

All operator-level validation (hermiticity, unitarity, positivity, unit
trace) uses a single absolute tolerance.  It defaults to 1e-10 and can be
overridden with :func:`set_tolerance`, or for a block of code with
:func:`tolerance_scope`; both check the value.

The remaining constants are fixed contracts, not tunables: probability
window checks, POVM resolution residuals, and wave-function norm drift
each have their own scale and are pinned here by name.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from numbers import Real

DEFAULT_TOLERANCE = 1e-10

# Window for raw probability-like values before clamping to [0, 1].
# Values outside [-PROBABILITY_TOL, 1 + PROBABILITY_TOL] are an error.
PROBABILITY_TOL = 1e-12

# Residual allowed on a resolution of unity built from generalized
# propositions (sum of the family vs the identity, max-abs entrywise).
POVM_TOL = 1e-8

# Norm drift allowed on wave-function coefficient vectors and on
# two-time amplitude matrices.
NORM_TOL = 1e-8

# Minimal spacing between outcome values of a nondegenerate observable.
EIGENVALUE_GAP = 1e-12

# Division guard: events with probability at or below this cannot be
# conditioned on or reduced to; qcore.require_event is the one guard.
ZERO_EVENT_TOL = 1e-12

# Hard cap on the dimension of any operator this package will build.
MAX_DIM = 4096

# Hard cap on the pairs of one Monte Carlo cohort (a cohort peaks at about
# 0.25 GB of arrays at the cap).
MAX_PAIRS = 10**7

_tolerance = DEFAULT_TOLERANCE
# the value of the innermost tolerance_scope in this context, None outside one
_scoped: ContextVar[float | None] = ContextVar("qprospect_tolerance", default=None)


def tolerance() -> float:
    """Current operator-validation tolerance (absolute)."""
    scoped = _scoped.get()
    return _tolerance if scoped is None else scoped


def set_tolerance(value: float) -> float:
    """Set the tolerance; returns the previous value.

    Process-wide outside any :func:`tolerance_scope`; inside one, until it exits.
    """
    global _tolerance
    if isinstance(value, bool) or not isinstance(value, Real):  # a str is not Real
        raise ValueError(f"tolerance must be a real number, got {value!r}")
    value, previous = float(value), tolerance()
    if not 0.0 < value < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {value}")
    if _scoped.get() is None:
        _tolerance = value
    else:
        _scoped.set(value)
    return previous


@contextmanager
def tolerance_scope(value: float):
    """Use ``value`` inside a ``with`` block; the old value returns on exit.

    A context variable (PEP 567): scopes nest and stay within their thread.
    """
    token = _scoped.set(tolerance())
    try:
        set_tolerance(value)  # checked, and set within the new scope
        yield
    finally:
        _scoped.reset(token)
