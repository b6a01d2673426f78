"""Multimode wave-function dynamics and two-time amplitude matrices.

States are coefficient vectors over a fixed mode basis; the generator
is a static part plus a piecewise-constant perturbation.  Each generator
is decomposed once per spec.  A state is carried through the constant
segments one at a time, by the exact exponential of each applied through
its decomposition, so no propagator matrix is formed; the propagator,
where one is needed, is the ordered product of the same exponentials.
Evolving each mode separately from a common start time yields the
two-time amplitude matrix ``c[n, alpha]``: the weight of arriving in
mode ``n`` at the final time having been in mode ``alpha`` at the start
time.  Its squared entries are joint two-time probabilities, and
multimode combinations of its rows carry interference exactly like
composite prospects.
"""

from dataclasses import dataclass

import numpy as np

from . import policy, qcore
from .composite import ProspectProbability
from .errors import NumericContractError, ValidationError
from .events import MultimodeState


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Static generator plus piecewise-constant perturbations.

    ``pieces`` is a sequence of ``(start_time, matrix)`` with strictly
    increasing start times; each matrix is Hermitian and applies from its
    start time until the next piece begins.  Before the first start time
    only ``h0`` acts.

    Each generator ``h0 + V(t)`` is checked Hermitian and decomposed the
    first time a propagation needs it, and the spec keeps the ``eigh``.  A
    generator refused by the check is not kept, so every call refuses it.
    Under :func:`policy.tolerance_scope` the check that counts is the one
    at the first decomposition, as a ``DensityOperator``'s are the ones
    made when it was built.  Threads need no lock: a race computes the
    same decomposition twice.  A fully used spec holds about twice the
    memory of its matrices, one ``d x d`` eigenvector matrix per generator.
    """

    h0: np.ndarray
    pieces: tuple[tuple[float, np.ndarray], ...] = ()

    def __post_init__(self):
        h0 = np.array(qcore.require_hermitian(self.h0, "static generator"))
        cleaned = []
        previous = -np.inf
        for k, piece in enumerate(self.pieces):
            try:
                start, matrix = piece
                start = float(start)
            except (TypeError, ValueError):
                raise ValidationError(f"piece {k} must be a (start, matrix) pair") from None
            if not np.isfinite(start):
                raise ValidationError(f"piece {k} has non-finite start time")
            if start <= previous:
                raise ValidationError("piece start times must be strictly increasing")
            previous = start
            m = np.array(qcore.require_hermitian(matrix, f"perturbation piece {k}"))
            qcore._require_equal(m.shape, h0.shape, "piece {2} has shape {0}, expected {1}", k)
            cleaned.append((start, qcore.freeze(m)))
        qcore._set_fields(self, h0=h0, pieces=tuple(cleaned), _decompositions={})

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

    def _decomposition(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The kept ``eigh`` of the generator active at ``t``, found on first use."""
        k = self._begun(t)
        found = self._decompositions.get(k)
        if found is None:
            generator = qcore.require_hermitian(self.generator_at(t), "generator")
            found = self._decompositions[k] = tuple(map(qcore.freeze, np.linalg.eigh(generator)))
        return found


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
        time = qcore._require_real(self.time, "time", "time must be finite")
        qcore._set_fields(self, coefficients=c, time=time)

    @property
    def dim(self) -> int:
        return self.coefficients.size

    def occupations(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


def _propagate(h: HamiltonianSpec, t0: float, t: float, x: np.ndarray | None) -> np.ndarray:
    """``x``, a vector or a matrix, carried from ``t0`` to ``t`` segment by segment.

    Each segment applies its kept ``(w, v)`` as ``v (phase * conj(x† v))``,
    which makes no conjugated copy of ``v``.  With ``x`` None the result is
    the propagator, begun from the first segment's exponential itself.
    """
    t0, t = (qcore._require_real(s, "time", "propagation times must be finite") for s in (t0, t))
    if t < t0:
        raise ValidationError(f"backward propagation from {t0} to {t} is not supported")
    if not np.isfinite(t - t0):
        raise ValidationError("time must be finite")
    cuts = [start for start, _ in h.pieces if t0 < start < t]
    edges = [t0, *cuts, t]
    for a, b in zip(edges, edges[1:]):
        w, v = h._decomposition(a)
        if x is None:
            x = qcore.propagator_from_eigh((w, v), b - a)
        else:
            x = v @ (np.exp(-1j * w * (b - a)) * (x.conj().T @ v).conj()).T
    return x


def propagator(h: HamiltonianSpec, t0: float, t: float) -> np.ndarray:
    """Ordered product of exact segment propagators from ``t0`` to ``t``, O(d^3) per segment."""
    return _propagate(h, t0, t, None)


def evolve_state(psi: WaveState, h: HamiltonianSpec, t: float) -> WaveState:
    """Propagate a wave state to time ``t``; norm drift is an error.

    The coefficients are carried through the segments in O(d^2) each, and
    no ``d x d`` matrix is formed.
    """
    qcore._require_equal(psi.dim, h.dim, "state dim {0} vs generator dim {1}")
    return WaveState(_propagate(h, psi.time, t, psi.coefficients), t)


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
        message = "invalid time pair {times}"
        if not (isinstance(self.times, (tuple, list)) and len(self.times) == 2):
            raise ValidationError(message.format(times=self.times))
        t0, t = (qcore._require_real(x, "time", message, times=self.times) for x in self.times)
        if t < t0:
            raise ValidationError(message.format(times=self.times))
        qcore._set_fields(self, c=np.array(c), times=(t0, t))

    @property
    def dims(self) -> tuple[int, int]:
        return self.c.shape


def amplitude_matrix(psi: WaveState, h: HamiltonianSpec, t0: float, t: float) -> AmplitudeMatrix:
    """Two-time amplitude matrix of a state: ``c[n, alpha] = U[n, alpha] c_alpha(t0)``.

    The state is first brought to ``t0``, then each start mode is carried
    to ``t`` by the same propagator.  Unitarity makes every column's
    squared norm equal the start-time occupation of its mode; that
    identity is enforced here to 1e-10 as a numeric contract.  Each
    generator is decomposed once per spec, also the one both propagations
    use at ``t0``; a later call on the same ``h`` decomposes none.
    """
    start = evolve_state(psi, h, t0)
    u = propagator(h, t0, t)
    c = u * start.coefficients[None, :]
    column_defect = float(np.abs(np.sum(np.abs(c) ** 2, axis=0) - start.occupations()).max())
    qcore.require_within(column_defect, 1e-10,
                         "column norms drift from start occupations by {measured:.3e}",
                         NumericContractError)
    return AmplitudeMatrix(c, (t0, t))


def occupation_residual(amp: AmplitudeMatrix, final: WaveState) -> float:
    """Row-sum residual ``max_n | sum_a |c[n,a]|^2 - |c_n(t)|^2 |``.

    The row sums ignore inter-mode interference, so this residual is a
    diagnostic of how coherent the start state was; it is reported, never
    asserted.
    """
    qcore._require_equal(final.dim, amp.c.shape[0], "final state dim {0} vs amplitude rows {1}")
    rows = np.sum(np.abs(amp.c) ** 2, axis=1)
    return float(np.abs(rows - final.occupations()).max())


def two_time_joint(amp: AmplitudeMatrix, n: int, alpha: int) -> float:
    """Joint probability of mode ``alpha`` at ``t0`` and mode ``n`` at ``t``."""
    qcore._require_indices((n, alpha), amp.dims,
                           "mode indices ({0}, {1}) out of range for dims ({2}, {3})")
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
    qcore._require_indices((n,), (rows,), "mode index {0} out of range for {1} modes")
    multimode = isinstance(b, MultimodeState)
    if multimode:
        coeff = b.coefficients
    else:
        coeff = qcore.as_complex_vector(b, "multimode coefficients")
        if not np.any(coeff != 0):
            raise ValidationError("multimode weights need a nonzero coefficient")
    qcore._require_equal(coeff.size, cols, "{0} multimode weights vs {1} start modes")
    if multimode and not np.array_equal(b.basis.eigenbasis, np.eye(cols)):
        raise ValidationError("two-time prospects are defined over the mode basis itself")
    row = amp.c[n]
    _, f, q = qcore.mode_split(coeff, np.outer(row, row.conj()))
    p = abs(np.vdot(coeff, row)) ** 2
    return ProspectProbability(float(p), float(f), float(q), normalized=False)
