"""Entanglement produced by a composite state over its measurement bases.

The measure compares the largest probability weight the joint state puts
on a product basis vector against the product of the largest marginal
weights: ``epsilon = log(norm_AB / (norm_A * norm_B))``.  Two norm
conventions are reported side by side:

* the *measurement-basis* norm, the supremum of diagonal elements over
  the ``|n alpha>`` basis the state is written in -- this is the headline
  value, and on a maximally correlated pure state of ``M`` modes it
  yields exactly ``log M``;
* the spectral norm from eigendecomposition, which agrees with the
  former only when the operators are diagonal in those bases (it sees a
  pure joint state as norm one regardless of correlations).

Product states score zero under both conventions.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .composite import CompositeState
from .errors import ValidationError


def measurement_basis_norm(matrix: np.ndarray) -> float:
    """Largest diagonal element: the norm restricted to the written basis."""
    return float(matrix.diagonal().real.max())


def _resolve_base(log_base) -> float | None:
    """Normalize a log-base argument; None means natural logarithm."""
    if log_base is None or isinstance(log_base, str) and log_base in ("natural", "e"):
        return None
    message = "log base must be finite and exceed 1, got {x}"
    base = qcore._require_real(log_base, "log base", message,
                               refused="log base must be 'natural', 'e' or a number, got {x!r}")
    if not base > 1.0:
        raise ValidationError(message.format(x=base))
    return base


def _log(x: float, base: float | None) -> float:
    return math.log(x) if base is None else math.log(x, base)


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement production measure with both norm conventions.

    ``norms`` and ``epsilon`` use the measurement-basis convention;
    ``spectral_norms`` and ``epsilon_spectral`` use eigendecomposition.
    Each epsilon equals ``log(norms[0] / (norms[1] * norms[2]))`` for its
    own triple, in the chosen base (None for natural).
    """

    epsilon: float
    norms: tuple[float, float, float]
    epsilon_spectral: float
    spectral_norms: tuple[float, float, float]
    log_base: float | None = None


def entanglement_production(state: CompositeState, log_base="natural") -> EntanglementReport:
    """Entanglement-production measure of a composite state.

    Parameters
    ----------
    state : CompositeState
        Bipartite state written in its measurement bases.
    log_base : "natural", "e", None, or a number > 1
        Base of the logarithm; natural by default, 2 gives bits.
    """
    qcore._require_instance(state, CompositeState, "state")
    base = _resolve_base(log_base)
    rho_a = state.reduced(0)
    rho_b = state.reduced(1)

    norms = (
        float(state._diagonal().real.max()),
        measurement_basis_norm(rho_a.matrix),
        measurement_basis_norm(rho_b.matrix),
    )
    # the top eigenvalues found while validating the three states
    spectral = (
        float(state.spectrum[-1]),
        float(rho_a.spectrum[-1]),
        float(rho_b.spectrum[-1]),
    )
    epsilon = _log(norms[0] / (norms[1] * norms[2]), base)
    epsilon_spectral = _log(spectral[0] / (spectral[1] * spectral[2]), base)
    return EntanglementReport(epsilon, norms, epsilon_spectral, spectral, base)


def bell_state(m: int) -> CompositeState:
    """Maximally correlated pure state of two ``m``-mode factors.

    Amplitudes ``c[n, alpha] = delta(n, alpha) / sqrt(m)``; its
    entanglement production in the measurement-basis convention is
    exactly ``log m``.
    """
    qcore._require_size(m, 2, "mode count", "need at least two modes, got {0}")
    qcore._require_size_cap(m * m, "composite state")
    return CompositeState.from_amplitudes(np.eye(m, dtype=complex) / math.sqrt(m))
