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

Every state a stage builds passes every ``DensityOperator`` decision,
and a check that holds by construction is not run again.  The transform
stage and the readout reductions get the full check
(:func:`qcore.validate_state`); only the reductions decompose their
matrix for positivity, and the transform stage is factored, not
decomposed.  A product of two validated states (compose, and the joint
re-composed at each readout) bounds its Hermiticity from its factors'
defects and reads positivity from the sorted products of their kept
spectra: no scan of the product, no finiteness pass and no copy
(:func:`qcore.product_state`).  An evolved state ``U rho U+`` is fresh: it
keeps its Hermiticity scan, which proves it finite too, with no
finiteness pass and no copy (:func:`qcore._built_state`), and reads
positivity from the spectrum of ``rho``: ``U`` comes from ``eigh`` and is
unitary to machine precision, so the eigenvalues move by a small multiple
of ``eps * dim``.  A transform ``T`` is checked unitary only entrywise within
the tolerance, which may move the eigenvalues of ``T rho T+`` by ``dim``
times the tolerance, so that state is proved positive by one Cholesky
factorization (:func:`qcore.validate_state`), and its spectrum is found
only if a later stage reads it.  A readout's reductions are decomposed
when built, because the product that follows reads their spectra.

A multichannel device couples to each system level ``n`` through its own
meter block ``H_n``: the coupling is block-diagonal in the system basis,
so it commutes with every ``P_n (x) 1``.  Such a coupling, and a meter
rotation of the same form, is decomposed and applied block by block,
``O(ds^2 dm^3)`` per stage against ``O(D^3)``, ``D = ds dm``; any other is
the one-block case.  A ``MeasurerSpec`` decomposes its coupling once, at
the first evolve stage of the first pipeline it runs, and keeps the ``eigh``.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .errors import ProtocolError, ValidationError
from .events import DensityOperator, _reduced_state, _trusted

STAGE_KINDS = ("compose", "evolve", "readout", "transform")


@dataclass(frozen=True, eq=False)
class MeasurerSpec:
    """A measuring device: its dimension, ready state, and system coupling.

    The coupling is a Hermitian generator on the joint space
    ``system (x) measurer`` with the system as the slow factor; the system
    dimension is inferred when the pipeline runs.  A coupling block-diagonal
    in the system basis is decomposed per block, ``O(ds dim^3)``; any other
    as one block, ``O(D^3)``.
    """

    dim: int
    initial_state: DensityOperator
    coupling: np.ndarray

    def __post_init__(self):
        qcore._require_instance(self.initial_state, DensityOperator, "measurer ready state")
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
        """The kept ``eigh`` of the coupling's :func:`_system_blocks`, found on first use."""
        if self._coupling_eigh is None:
            blocks = _system_blocks(self.coupling, self.system_dim)
            kept = tuple(map(qcore.freeze, np.linalg.eigh(blocks)))
            qcore._set_fields(self, _coupling_eigh=kept)
        return self._coupling_eigh


@dataclass(frozen=True, eq=False)
class PipelineStage:
    """One pipeline step: compose, evolve (with duration), readout, or transform."""

    kind: str
    duration: float = 0.0
    transform: np.ndarray | None = None

    def __post_init__(self):
        qcore._require_choice(self.kind, STAGE_KINDS, "stage kind")
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


def _system_blocks(m: np.ndarray, ds: int) -> np.ndarray:
    """The ``(ds, b, b)`` stack of the diagonal blocks of ``m``, or the one block ``m[None]``.

    The stack when every entry of ``m`` outside the blocks is exactly zero
    (no tolerance), so that ``m`` is their direct sum; else, and for
    ``ds = 1``, ``m`` is its own block.
    """
    b = m.shape[0] // ds
    n = np.arange(ds)
    blocks = m.reshape(ds, b, ds, b)[n, :, n, :]
    if ds > 1 and np.count_nonzero(blocks) == np.count_nonzero(m):
        return blocks
    return m[None]


def _conjugated(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``U m U+`` for the direct sum ``U`` of the ``k`` blocks of the stack ``u``.

    Block ``(n, l)`` is ``u[n] m_nl u[l]+``, by block rows, then block
    columns: ``2 k^2 b^3`` multiply-adds against ``2 (k b)^3`` dense.  With
    ``k = 1`` it is the dense ``u m u+``, bit for bit.
    """
    k, b, _ = u.shape
    rows = u @ m.reshape(k, b, k * b)
    out = np.empty(m.shape, rows.dtype)
    np.matmul(rows.reshape(k * b, k, b).swapaxes(0, 1), np.swapaxes(u.conj(), -1, -2),
              out=out.reshape(k * b, k, b).swapaxes(0, 1))
    return out


def _conjugate(rho: DensityOperator, u: np.ndarray) -> DensityOperator:
    """``U rho U+`` for a stack ``u`` of blocks unitary to machine precision; keeps the spectrum.

    The fresh matrix is checked by :func:`qcore._built_state`: its
    Hermiticity scan, then the trace, with no finiteness pass and no copy.
    """
    return _trusted(DensityOperator, *qcore._built_state(
        _conjugated(rho.matrix, u), "density operator", rho.spectrum))


def compose(rho: DensityOperator, measurer: MeasurerSpec) -> DensityOperator:
    """Joint ready state ``rho (x) rho_meter``."""
    qcore._require_instance(rho, DensityOperator, "rho")
    qcore._require_instance(measurer, MeasurerSpec, "measurer")
    return _product(rho, measurer.initial_state)


def evolve(rho: DensityOperator, h, t: float) -> DensityOperator:
    """Unitary evolution of a state under a Hermitian generator for time ``t``."""
    qcore._require_instance(rho, DensityOperator, "rho")
    u = qcore.matrix_exponential(h, t)
    qcore._require_equal(u.shape[0], rho.dim, "generator dim {0} vs state dim {1}")
    return _conjugate(rho, u[None])


def readout(rho: DensityOperator, dims: tuple[int, int]) -> tuple[DensityOperator, DensityOperator]:
    """Reduced states of both factors of a joint state."""
    qcore._require_instance(rho, DensityOperator, "rho")
    da, db = qcore._factor_dims(dims)
    qcore._require_equal(da * db, rho.dim, "dims {2} incompatible with joint state of dim {1}",
                         dims)
    return (
        _reduced_state(qcore._partial_trace(rho.matrix, dims, 0)),
        _reduced_state(qcore._partial_trace(rho.matrix, dims, 1)),
    )


def transform_basis(rho: DensityOperator, t) -> DensityOperator:
    """Rotate a state by a unitary: ``T rho T+``."""
    qcore._require_instance(rho, DensityOperator, "rho")
    t = qcore.require_unitary(t, "basis transform")
    qcore._require_equal(t.shape[0], rho.dim, "transform dim {0} vs state dim {1}")
    return DensityOperator(_conjugated(rho.matrix, t[None]))


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
    :func:`qcore.matrix_exponential`.  A coupling or transform (``T`` or
    ``T (x) 1``) whose entries off the system-basis blocks are exactly zero
    is applied per block, ``O(ds^2 dm^3)`` against ``O(D^3)``; any other is
    one block.  Each state checks positivity as the module docstring
    describes: the transform stage is factored, not decomposed, and only
    the readout reductions run ``eigvalsh``.
    ``PipelineStage`` checked ``T`` unitary, and ``T (x) 1`` has exactly
    its defect, so it is not checked again.
    """
    qcore._require_instance(rho, DensityOperator, "rho")
    qcore._require_instance(measurer, MeasurerSpec, "measurer")
    qcore._require_instance(stages, Iterable, "stages")
    stages = list(stages)
    if not stages:
        raise ProtocolError("empty pipeline")
    for i, stage in enumerate(stages):
        qcore._require_instance(stage, PipelineStage, f"stages[{i}]")
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

    for stage in stages:
        system = meter = None
        if stage.kind == "compose":
            joint = compose(rho, measurer)
        elif stage.kind == "evolve":
            u = qcore.propagator_from_eigh(measurer._decomposition(), stage.duration)
            joint = _conjugate(joint, u)
            clock += stage.duration
        elif stage.kind == "transform":
            t = stage.transform
            if t.shape[0] == dims[0]:
                t = qcore.tensor_product(t, np.eye(dims[1], dtype=complex))
            qcore._require_equal(t.shape[0], dims[0] * dims[1], "transform dim {0} matches "
                                 "neither the system ({2}) nor the joint space ({1})", dims[0])
            joint = DensityOperator(_conjugated(joint.matrix, _system_blocks(t, dims[0])))
        else:  # readout
            system, meter = readout(joint, dims)
            joint = _product(system, meter)
        records.append(StageRecord(stage.kind, clock, joint, system, meter))

    readouts = [r.system for r in records if r.kind == "readout"]
    return PipelineTrace(tuple(records), readouts[-1], readouts[0])


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
