"""Probabilities of separate and consecutive measurements.

Separate events follow the Born rule.  Consecutive events come in three
flavors: the transition probability between eigenmodes (state-independent,
doubly stochastic), the sequential joint distribution obtained by reducing
the state on the first outcome and then measuring the second, and the
complex-valued time-ordered form whose imaginary part witnesses the
incompatibility of the two observables.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .events import DensityOperator, Observable, _trusted, basis_change, projector_of
from .errors import NumericContractError, ValidationError


def _check_dims(rho: DensityOperator, obs: Observable):
    qcore._require_equal(rho.dim, obs.dim, "density operator dim {0} vs observable {2!r} dim {1}",
                         obs.label)


def born_probability(rho: DensityOperator, obs: Observable, n: int) -> float:
    """Probability ``<n|rho|n>`` of the single event ``A_n``."""
    _check_dims(rho, obs)
    v = obs.vector(n)
    raw = complex(np.vdot(v, rho.matrix @ v))
    return qcore.real_probability(raw, f"p({obs.label}_{n})")


def _diagonal_in(rho: DensityOperator, obs: Observable) -> np.ndarray:
    """Raw ``<n|rho|n>`` for every eigenvector: the diagonal of ``E^dag rho E``."""
    e = obs.eigenbasis
    return np.sum(e.conj() * (rho.matrix @ e), axis=0)


def born_distribution(rho: DensityOperator, obs: Observable) -> np.ndarray:
    """All event probabilities of one observable, in index order.

    With ``A`` the eigenbasis matrix (eigenvectors as columns) this is
    ``diag(A^dag rho A)``, window-checked and clamped entrywise like
    :func:`born_probability`; one d x d product, no per-event projector.
    """
    _check_dims(rho, obs)
    return qcore.real_probabilities(_diagonal_in(rho, obs), f"p({obs.label})")


def expected_value(rho: DensityOperator, obs: Observable) -> float:
    """Mean outcome ``sum_n p(A_n) A_n``, cross-checked against ``Tr(rho A)``."""
    probs = born_distribution(rho, obs)
    value = float(probs @ obs.eigenvalues)
    direct = np.trace(rho.matrix @ obs.operator())
    qcore.require_within(abs(direct - value), 1e-10 * max(1.0, np.abs(obs.eigenvalues).max()),
                         "expected value paths disagree: {value!r} vs {direct!r}",
                         NumericContractError, value=value, direct=direct)
    return value


def most_probable(rho: DensityOperator, obs: Observable) -> int:
    """Index of the most probable event; ties go to the lowest index."""
    return int(np.argmax(born_distribution(rho, obs)))


def disjoint_union_probability(
    rho: DensityOperator, obs: Observable, indices: Sequence[int]
) -> float:
    """Probability of a union of distinct events of one observable.

    Distinct events of a nondegenerate observable are mutually exclusive,
    so their probabilities add.  Repeated indices are rejected rather than
    deduplicated: the union of an event with itself is that event, and a
    caller passing duplicates has a bookkeeping bug worth surfacing.
    """
    indices = list(indices)
    if not indices:
        raise ValidationError("union of no events")
    if len(set(indices)) != len(indices):
        raise ValidationError(f"duplicate event indices in union: {sorted(indices)}")
    total = sum(born_probability(rho, obs, n) for n in indices)
    return qcore.real_probability(total, "union probability")


def _reduce(rho: DensityOperator, obs: Observable, n: int):
    """Probability ``p`` of ``A_n`` and the reduced state ``P rho P / p``.

    With ``P = |n><n|`` the reduced state is ``|n><n| <n|rho|n> / p``, the
    pure state ``|n><n|``: it takes the trusted rank-one route of
    :meth:`DensityOperator.from_pure`, with no projector and no decomposition.
    """
    p = born_probability(rho, obs, n)
    qcore.require_event(p, "cannot reduce on {label}_{n}: probability {p!r} is numerically zero",
                        label=obs.label, n=n)
    return p, _trusted(DensityOperator, *qcore.pure_state(obs.vector(n), "density operator"))


def luders_reduce(rho: DensityOperator, obs: Observable, n: int) -> DensityOperator:
    """State after the event ``A_n`` was observed: ``P rho P / Tr(rho P)``."""
    return _reduce(rho, obs, n)[1]


@dataclass(frozen=True)
class MeasurementOutcome:
    """One observed event together with its probability and reduced state."""

    event: tuple[str, int]
    probability: float
    post_state: DensityOperator


def apply_measurement(rho: DensityOperator, obs: Observable, n: int) -> MeasurementOutcome:
    """Observe event ``A_n``: bundle its probability with the reduced state."""
    return MeasurementOutcome((obs.label, n), *_reduce(rho, obs, n))


def luders_transition(obs_a: Observable, n: int, obs_b: Observable, alpha: int) -> float:
    """Transition probability ``|<n|alpha>|^2`` between eigenmodes.

    State-independent and symmetric in its two events; rows and columns of
    the full table each sum to one.
    """
    qcore._require_equal(obs_a.dim, obs_b.dim, "observables {2!r} ({0}) and {3!r} ({1}) act on "
                         "different spaces", obs_a.label, obs_b.label)
    amp = complex(np.vdot(obs_a.vector(n), obs_b.vector(alpha)))
    return qcore.real_probability(abs(amp) ** 2, "transition probability")


def transition_matrix(obs_a: Observable, obs_b: Observable) -> np.ndarray:
    """Full doubly stochastic table, row ``n`` and column ``alpha``."""
    return np.abs(basis_change(obs_a, obs_b)) ** 2


def wigner_distribution(
    rho: DensityOperator, obs_a: Observable, n: int, obs_b: Observable, alpha: int
) -> float:
    """Sequential joint probability of observing ``B_alpha`` then ``A_n``.

    Computed directly as ``Tr(rho P_alpha P_n P_alpha)``, which factors into
    the transition probability times the probability of the first event.
    With ``|alpha>`` the eigenvector of ``P_alpha`` the trace is
    ``<alpha| rho P_alpha P_n |alpha>``, contracted right to left with the
    built projectors by matrix-vector products: O(d^2), no d x d product.
    """
    _check_dims(rho, obs_a)
    _check_dims(rho, obs_b)
    a = obs_b.vector(alpha)
    pa = projector_of(obs_b, alpha).matrix
    pn = projector_of(obs_a, n).matrix
    raw = complex(np.vdot(a, rho.matrix @ (pa @ (pn @ a))))
    return qcore.real_probability(raw, "sequential probability")


def kirkwood_form(
    rho: DensityOperator, obs_a: Observable, n: int, obs_b: Observable, alpha: int
) -> complex:
    """Time-ordered expectation ``Tr(rho P_n P_alpha)``.

    Complex in general: the imaginary part vanishes for compatible
    observables and witnesses their incompatibility otherwise.  The full
    table sums to one over both indices.  The trace is
    ``<alpha| rho P_n P_alpha |alpha>``, contracted like
    :func:`wigner_distribution`'s: O(d^2).
    """
    _check_dims(rho, obs_a)
    _check_dims(rho, obs_b)
    a = obs_b.vector(alpha)
    pn = projector_of(obs_a, n).matrix
    pa = projector_of(obs_b, alpha).matrix
    return complex(np.vdot(a, rho.matrix @ (pn @ (pa @ a))))


def wigner_table(rho: DensityOperator, obs_a: Observable, obs_b: Observable) -> np.ndarray:
    """All sequential probabilities at once, indexed ``[n, alpha]``.

    With ``A``, ``B`` the eigenbasis matrices, entry ``[n, alpha]`` of
    :func:`wigner_distribution` is ``|<n|alpha>|^2 <alpha|rho|alpha>``, so the
    table is ``|A^dag B|^2 * diag(B^dag rho B)[None, :]``, window-checked
    and clamped entrywise.  Rows sum to the marginal second-step
    distribution, columns to the first-step Born distribution, and the
    whole table to one.
    """
    _check_dims(rho, obs_a)
    _check_dims(rho, obs_b)
    raw = np.abs(basis_change(obs_a, obs_b)) ** 2 * _diagonal_in(rho, obs_b)[None, :]
    return qcore.real_probabilities(raw, "sequential probability")


def kirkwood_table(rho: DensityOperator, obs_a: Observable, obs_b: Observable) -> np.ndarray:
    """All time-ordered quasiprobabilities at once, indexed ``[n, alpha]``.

    Entry ``[n, alpha]`` of :func:`kirkwood_form` is
    ``<alpha|rho|n><n|alpha>``, so with ``A``, ``B`` the eigenbasis matrices
    the table is ``(B^dag rho A).T * (A^dag B)``.
    """
    _check_dims(rho, obs_a)
    _check_dims(rho, obs_b)
    sandwich = obs_b.eigenbasis.conj().T @ rho.matrix @ obs_a.eigenbasis
    return sandwich.T * basis_change(obs_a, obs_b)


def identity_chain_residual(
    rho: DensityOperator, obs_a: Observable, n: int, obs_b: Observable
) -> float:
    """Residual of resolving one event through a complete second observable.

    Inserting the resolution of unity of ``B`` twice around ``P_n`` splits
    ``p(A_n)`` into the sequential terms (diagonal in ``B``) plus the
    off-diagonal cross terms.  The three pieces are computed along
    independent routes; their mismatch is returned and should sit at
    rounding level for valid inputs.  The diagonal takes ``d`` calls of the
    scalar :func:`wigner_distribution`, O(d^2) each, and the cross terms
    one sandwich in ``B``: O(d^3) in all.
    """
    _check_dims(rho, obs_a)
    _check_dims(rho, obs_b)
    lhs = born_probability(rho, obs_a, n)
    diagonal = sum(
        wigner_distribution(rho, obs_a, n, obs_b, alpha) for alpha in range(obs_b.dim)
    )
    # cross terms via amplitudes: Tr(rho P_a P_n P_b) = <b|rho|a><a|n><n|b>
    m = obs_b.eigenbasis.conj().T @ rho.matrix @ obs_b.eigenbasis
    w = obs_b.eigenbasis.conj().T @ obs_a.vector(n)
    table = m.T * np.outer(w, w.conj())
    cross = complex(table.sum() - np.trace(table))
    return float(abs(lhs - diagonal - cross))
