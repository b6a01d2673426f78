"""Measurement modeled as a staged channel pipeline.

A measurement couples the studied system to a measuring device: compose
the joint state, let the coupling act unitarily, read the factors back
out, optionally evolve again and rotate into the eigenbasis of a second
observable, then read out the final reduced state.  The canonical chain
has six stages (compose, evolve, readout, evolve, transform, readout),
but any well-ordered prefix built from the same stage kinds is accepted:
the pipeline must start by composing, every readout must digest a
preceding evolution or transform, and the chain must end with a readout.

Reading out replaces the joint state by the product of its reductions,
which is exactly the decoherence step of a nonselective measurement.

Every state a stage builds gets every ``DensityOperator`` check, but
only the transform stage and the readout reductions decompose their
matrix for positivity.  A product of two validated states (compose, and
the joint re-composed at each readout) reads it from the sorted products
of their kept spectra (:func:`qcore.product_state`).  An evolved state
``U rho U+`` reads it from the spectrum of ``rho``: ``U`` comes from
``eigh`` and is unitary to machine precision, so the eigenvalues move by
a small multiple of ``eps * dim``.  A transform ``T`` is checked unitary
only entrywise within the tolerance, which may move the eigenvalues of
``T rho T+`` by ``dim`` times the tolerance, so that state is decomposed.
A ``MeasurerSpec`` decomposes its coupling once, at the first evolve
stage of the first pipeline it runs, and keeps the ``eigh``.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .errors import ProtocolError, ValidationError
from .events import DensityOperator, _trusted, basis_change  # noqa: F401 - public here too


@dataclass(frozen=True, eq=False)
class MeasurerSpec:
    """A measuring device: its dimension, ready state, and system coupling.

    The coupling is a Hermitian generator on the joint space
    ``system (x) measurer`` with the system as the slow factor; the system
    dimension is inferred when the pipeline runs.
    """

    dim: int
    initial_state: DensityOperator
    coupling: np.ndarray

    def __post_init__(self):
        qcore._require_size(self.dim, 1, "measurer dimension",
                            "measurer dimension must be positive, got {0}")
        qcore._require_equal(self.initial_state.dim, self.dim,
                             "measurer ready state has dim {0}, expected {1}")
        coupling = np.array(qcore.require_hermitian(self.coupling, "coupling"))
        qcore._require_equal(coupling.shape[0] % self.dim, 0, "coupling dimension {2} is not a "
                             "multiple of the measurer dimension {3}", coupling.shape[0], self.dim)
        qcore._set_fields(self, coupling=coupling, _coupling_eigh=None)

    @property
    def system_dim(self) -> int:
        return self.coupling.shape[0] // self.dim

    def _decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept ``eigh`` of the coupling, found on first use."""
        if self._coupling_eigh is None:
            kept = tuple(map(qcore.freeze, np.linalg.eigh(self.coupling)))
            qcore._set_fields(self, _coupling_eigh=kept)
        return self._coupling_eigh


@dataclass(frozen=True, eq=False)
class PipelineStage:
    """One pipeline step: compose, evolve (with duration), readout, or transform."""

    kind: str
    duration: float = 0.0
    transform: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("compose", "evolve", "readout", "transform"):
            raise ValidationError(f"unknown stage kind {self.kind!r}")
        message = "stage duration must be finite and >= 0"
        duration = qcore._require_real(self.duration, "stage duration", message)
        if duration < 0:
            raise ValidationError(message)
        if self.kind != "evolve" and duration != 0.0:
            raise ValidationError(f"{self.kind} stages carry no duration")
        if self.kind == "transform":
            if self.transform is None:
                raise ValidationError("transform stage needs a matrix")
            t = np.array(qcore.require_unitary(self.transform, "basis transform"))
            qcore._set_fields(self, transform=t)
        elif self.transform is not None:
            raise ValidationError(f"{self.kind} stages carry no transform")
        qcore._set_fields(self, duration=duration)


@dataclass(frozen=True, eq=False)
class StageRecord:
    """Joint state and clock after one stage; readouts also keep the factors."""

    kind: str
    time: float
    state: DensityOperator
    system: DensityOperator | None = None
    meter: DensityOperator | None = None


@dataclass(frozen=True, eq=False)
class PipelineTrace:
    """Full log of a pipeline run.

    ``rho_b`` is the reduced system state at the first readout (the result
    of the first measurement channel) and ``rho_a`` the reduced system
    state at the last readout (the final observable's state).  In a
    single-readout pipeline the two coincide.
    """

    records: tuple[StageRecord, ...]
    rho_a: DensityOperator
    rho_b: DensityOperator


def _product(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    return _trusted(DensityOperator, *qcore.product_state(
        a.matrix, a.spectrum, b.matrix, b.spectrum, "density operator"))


def _conjugate(rho: DensityOperator, u: np.ndarray) -> DensityOperator:
    """``u rho u+`` for a ``u`` unitary to machine precision, keeping rho's spectrum."""
    return _trusted(DensityOperator, *qcore.validate_state(
        u @ rho.matrix @ u.conj().T, "density operator", spectrum=rho.spectrum))


def compose(rho: DensityOperator, measurer: MeasurerSpec) -> DensityOperator:
    """Joint ready state ``rho (x) rho_meter``."""
    return _product(rho, measurer.initial_state)


def evolve(rho: DensityOperator, h, t: float) -> DensityOperator:
    """Unitary evolution of a state under a Hermitian generator for time ``t``."""
    return _conjugate(rho, qcore.matrix_exponential(h, t))


def readout(rho: DensityOperator, dims: tuple[int, int]) -> tuple[DensityOperator, DensityOperator]:
    """Reduced states of both factors of a joint state."""
    da, db = qcore._factor_dims(dims)
    qcore._require_equal(da * db, rho.dim, "dims {2} incompatible with joint state of dim {1}",
                         dims)
    return (
        DensityOperator(qcore._partial_trace(rho.matrix, dims, 0)),
        DensityOperator(qcore._partial_trace(rho.matrix, dims, 1)),
    )


def transform_basis(rho: DensityOperator, t) -> DensityOperator:
    """Rotate a state by a unitary: ``T rho T+``."""
    t = qcore.require_unitary(t, "basis transform")
    qcore._require_equal(t.shape[0], rho.dim, "transform dim {0} vs state dim {1}")
    return DensityOperator(t @ rho.matrix @ t.conj().T)


def run_pipeline(
    rho: DensityOperator, measurer: MeasurerSpec, stages: Sequence[PipelineStage]
) -> PipelineTrace:
    """Run a staged measurement pipeline and log every intermediate state.

    Parameters
    ----------
    rho : DensityOperator
        System input state; its dimension must match the coupling.
    measurer : MeasurerSpec
        The measuring device, providing the ready state and the joint
        Hermitian coupling used by every evolve stage.
    stages : sequence of PipelineStage
        Must start with the single compose stage, every readout must
        follow an evolve or transform, and the last stage must be a
        readout.  Transform stages may carry either a system-space matrix
        (extended by the identity on the measurer) or a joint-space one.

    Notes
    -----
    The coupling, checked Hermitian when ``measurer`` was built, is
    decomposed once per ``MeasurerSpec``, at the first evolve stage of the
    first pipeline it runs; each propagator uses the phase formula of
    :func:`qcore.matrix_exponential`.  Each state checks positivity as the
    module docstring describes.  ``PipelineStage`` checked ``T`` unitary,
    and ``T (x) 1`` has exactly its defect, so it is not checked again.
    """
    stages = list(stages)
    if not stages:
        raise ProtocolError("empty pipeline")
    if stages[0].kind != "compose":
        raise ProtocolError(f"pipeline must start with compose, got {stages[0].kind!r}")
    if any(s.kind == "compose" for s in stages[1:]):
        raise ProtocolError("compose may appear only once, at the start")
    if stages[-1].kind != "readout":
        raise ProtocolError(f"pipeline must end with a readout, got {stages[-1].kind!r}")
    for prev, stage in zip(stages, stages[1:]):
        if stage.kind == "readout" and prev.kind not in ("evolve", "transform"):
            raise ProtocolError(
                f"readout must follow an evolve or transform stage, found after {prev.kind!r}"
            )
    qcore._require_equal(rho.dim, measurer.system_dim,
                         "system state dim {0} vs coupling system dim {1}")

    dims = (rho.dim, measurer.dim)
    records: list[StageRecord] = []
    clock = 0.0
    joint = None
    first_readout: DensityOperator | None = None
    last_readout: DensityOperator | None = None

    for stage in stages:
        if stage.kind == "compose":
            joint = compose(rho, measurer)
            records.append(StageRecord("compose", clock, joint))
        elif stage.kind == "evolve":
            u = qcore.propagator_from_eigh(measurer._decomposition(), stage.duration)
            joint = _conjugate(joint, u)
            clock += stage.duration
            records.append(StageRecord("evolve", clock, joint))
        elif stage.kind == "transform":
            t = stage.transform
            if t.shape[0] == dims[0]:
                t = qcore.tensor_product(t, np.eye(dims[1], dtype=complex))
            qcore._require_equal(t.shape[0], dims[0] * dims[1], "transform dim {0} matches "
                                 "neither the system ({2}) nor the joint space ({1})", dims[0])
            joint = DensityOperator(t @ joint.matrix @ t.conj().T)
            records.append(StageRecord("transform", clock, joint))
        else:  # readout
            system, meter = readout(joint, dims)
            if first_readout is None:
                first_readout = system
            last_readout = system
            joint = _product(system, meter)
            records.append(StageRecord("readout", clock, joint, system, meter))

    return PipelineTrace(tuple(records), last_readout, first_readout)


def pointer_measurer() -> MeasurerSpec:
    """Qubit pointer model: meter ready in ``|0>``, coupling ``sigma_z (x) sigma_x``.

    The coupling commutes with the system's computational projectors, so
    the system's diagonal is left untouched at every coupling time while
    the pointer precesses conditionally on it.
    """
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return MeasurerSpec(
        2, DensityOperator.from_pure([1.0, 0.0]), np.kron(sz, sx)
    )
