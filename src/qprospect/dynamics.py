"""Multimode wave-function dynamics and two-time amplitude matrices.

States are coefficient vectors over a fixed mode basis; the generator
is a static part plus a piecewise-constant perturbation, so propagation
is an ordered product of exact matrix exponentials, one per constant
segment.  Evolving each mode separately from a common start time yields
the two-time amplitude matrix ``c[n, alpha]``: the weight of arriving in
mode ``n`` at the final time having been in mode ``alpha`` at the start
time.  Its squared entries are joint two-time probabilities, and
multimode combinations of its rows carry interference exactly like
composite prospects.
"""

from dataclasses import dataclass

import numpy as np

from . import policy, qcore
from .composite import ProspectProbability
from .errors import (
    DimensionMismatchError,
    NumericContractError,
    ValidationError,
)
from .events import MultimodeState


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Static generator plus piecewise-constant perturbations.

    ``pieces`` is a sequence of ``(start_time, matrix)`` with strictly
    increasing start times; each matrix is Hermitian and applies from its
    start time until the next piece begins.  Before the first start time
    only ``h0`` acts.
    """

    h0: np.ndarray
    pieces: tuple[tuple[float, np.ndarray], ...] = ()

    def __post_init__(self):
        h0 = np.array(qcore.require_hermitian(self.h0, "static generator"))
        object.__setattr__(self, "h0", qcore.freeze(h0))
        cleaned = []
        previous = -np.inf
        for k, (start, matrix) in enumerate(self.pieces):
            start = float(start)
            if not np.isfinite(start):
                raise ValidationError(f"piece {k} has non-finite start time")
            if start <= previous:
                raise ValidationError("piece start times must be strictly increasing")
            previous = start
            m = np.array(qcore.require_hermitian(matrix, f"perturbation piece {k}"))
            if m.shape != h0.shape:
                raise DimensionMismatchError(
                    f"piece {k} has shape {m.shape}, expected {h0.shape}"
                )
            cleaned.append((start, qcore.freeze(m)))
        object.__setattr__(self, "pieces", tuple(cleaned))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def _begun(self, t: float) -> int:
        """How many pieces have started by time ``t``; it fixes the generator."""
        return sum(start <= t for start, _ in self.pieces)

    def generator_at(self, t: float) -> np.ndarray:
        """Full generator ``h0 + V(t)`` active at time ``t``."""
        k = self._begun(t)
        return self.h0 if k == 0 else self.h0 + self.pieces[k - 1][1]


@dataclass(frozen=True, eq=False)
class WaveState:
    """Unit-norm coefficient vector over the mode basis, with its clock time."""

    coefficients: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        c = np.array(qcore.as_complex_vector(self.coefficients, "coefficients"))
        norm = float(np.linalg.norm(c))
        qcore.require_within(abs(norm - 1.0), policy.NORM_TOL,
                             "coefficient norm {norm!r} drifts from 1 beyond {bound:.0e}",
                             norm=norm)
        if not np.isfinite(self.time):
            raise ValidationError("time must be finite")
        object.__setattr__(self, "coefficients", qcore.freeze(c))
        object.__setattr__(self, "time", float(self.time))

    @property
    def dim(self) -> int:
        return self.coefficients.size

    def occupations(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


def propagator(h: HamiltonianSpec, t0: float, t: float) -> np.ndarray:
    """Ordered product of exact segment propagators from ``t0`` to ``t``."""
    return _propagator(h, t0, t, {})


def _propagator(h: HamiltonianSpec, t0: float, t: float, decompositions: dict) -> np.ndarray:
    """:func:`propagator`, reusing the generator decompositions kept in ``decompositions``."""
    t0, t = float(t0), float(t)
    if not (np.isfinite(t0) and np.isfinite(t)):
        raise ValidationError("propagation times must be finite")
    if t < t0:
        raise ValidationError(f"backward propagation from {t0} to {t} is not supported")
    if not np.isfinite(t - t0):
        raise ValidationError("time must be finite")
    cuts = [start for start, _ in h.pieces if t0 < start < t]
    edges = [t0, *cuts, t]
    u = np.eye(h.dim, dtype=complex)
    for a, b in zip(edges, edges[1:]):
        k = h._begun(a)
        if k not in decompositions:
            decompositions[k] = np.linalg.eigh(
                qcore.require_hermitian(h.generator_at(a), "generator"))
        u = qcore.propagator_from_eigh(decompositions[k], b - a) @ u
    return u


def evolve_state(psi: WaveState, h: HamiltonianSpec, t: float) -> WaveState:
    """Propagate a wave state to time ``t``; norm drift is an error."""
    return _evolve_state(psi, h, t, {})


def _evolve_state(psi: WaveState, h: HamiltonianSpec, t: float, decompositions: dict) -> WaveState:
    if psi.dim != h.dim:
        raise DimensionMismatchError(
            f"state dim {psi.dim} vs generator dim {h.dim}"
        )
    u = _propagator(h, psi.time, t, decompositions)
    return WaveState(u @ psi.coefficients, t)


@dataclass(frozen=True, eq=False)
class AmplitudeMatrix:
    """Two-time amplitudes ``c[n, alpha]`` between ``times = (t0, t)``.

    Total squared amplitude must be one.  Column sums reproduce the mode
    occupations at the start time whenever the matrix comes from unitary
    propagation; user-supplied matrices are accepted on the weaker total
    condition alone.
    """

    c: np.ndarray
    times: tuple[float, float]

    def __post_init__(self):
        c = qcore.as_amplitude_matrix(self.c, policy.NORM_TOL)
        t0, t = float(self.times[0]), float(self.times[1])
        if not (np.isfinite(t0) and np.isfinite(t)) or t < t0:
            raise ValidationError(f"invalid time pair {self.times}")
        object.__setattr__(self, "c", qcore.freeze(np.array(c)))
        object.__setattr__(self, "times", (t0, t))

    @property
    def dims(self) -> tuple[int, int]:
        return self.c.shape


def amplitude_matrix(psi: WaveState, h: HamiltonianSpec, t0: float, t: float) -> AmplitudeMatrix:
    """Two-time amplitude matrix of a state: ``c[n, alpha] = U[n, alpha] c_alpha(t0)``.

    The state is first brought to ``t0``, then each start mode is carried
    to ``t`` by the same propagator.  Unitarity makes every column's
    squared norm equal the start-time occupation of its mode; that
    identity is enforced here to 1e-10 as a numeric contract.  Each
    generator is decomposed once, also the one both propagations use at ``t0``.
    """
    decompositions: dict = {}
    start = _evolve_state(psi, h, t0, decompositions)
    u = _propagator(h, t0, t, decompositions)
    c = u * start.coefficients[None, :]
    column_defect = float(np.abs(np.sum(np.abs(c) ** 2, axis=0) - start.occupations()).max())
    qcore.require_within(column_defect, 1e-10,
                         "column norms drift from start occupations by {measured:.3e}",
                         NumericContractError)
    return AmplitudeMatrix(c, (float(t0), float(t)))


def occupation_residual(amp: AmplitudeMatrix, final: WaveState) -> float:
    """Row-sum residual ``max_n | sum_a |c[n,a]|^2 - |c_n(t)|^2 |``.

    The row sums ignore inter-mode interference, so this residual is a
    diagnostic of how coherent the start state was; it is reported, never
    asserted.
    """
    if final.dim != amp.c.shape[0]:
        raise DimensionMismatchError(
            f"final state dim {final.dim} vs amplitude rows {amp.c.shape[0]}"
        )
    rows = np.sum(np.abs(amp.c) ** 2, axis=1)
    return float(np.abs(rows - final.occupations()).max())


def two_time_joint(amp: AmplitudeMatrix, n: int, alpha: int) -> float:
    """Joint probability of mode ``alpha`` at ``t0`` and mode ``n`` at ``t``."""
    rows, cols = amp.dims
    if not (0 <= n < rows and 0 <= alpha < cols):
        raise ValidationError(
            f"mode indices ({n}, {alpha}) out of range for dims {amp.dims}"
        )
    return qcore.real_probability(abs(amp.c[n, alpha]) ** 2, "two-time probability")


def two_time_prospect(amp: AmplitudeMatrix, n: int, b) -> ProspectProbability:
    """Raw prospect of arriving in mode ``n`` under start-mode uncertainty ``b``.

    ``b`` is a multimode weight vector over the start modes (a
    :class:`MultimodeState` in the standard basis, or a bare coefficient
    array).  The probability is ``|sum_a b_a* c[n, a]|^2``; its classical
    part keeps the diagonal and the interference is the cross-mode rest.
    Values are raw, matching the unnormalized composite-prospect route on
    the state built from the same amplitudes.
    """
    rows, cols = amp.dims
    if not 0 <= n < rows:
        raise ValidationError(f"mode index {n} out of range for {rows} modes")
    if isinstance(b, MultimodeState):
        if not np.array_equal(b.basis.eigenbasis, np.eye(cols)):
            raise ValidationError(
                "two-time prospects are defined over the mode basis itself"
            )
        coeff = b.coefficients
    else:
        coeff = qcore.as_complex_vector(b, "multimode coefficients")
        if not np.any(coeff != 0):
            raise ValidationError("multimode weights need a nonzero coefficient")
    if coeff.size != cols:
        raise DimensionMismatchError(
            f"{coeff.size} multimode weights vs {cols} start modes"
        )
    row = amp.c[n]
    _, f, q = qcore.mode_split(coeff, np.outer(row, row.conj()))
    p = abs(np.vdot(coeff, row)) ** 2
    return ProspectProbability(float(p), float(f), float(q), normalized=False)
