"""Staged measurement pipelines and the qubit pointer model."""

import re

import numpy as np
import pytest
import scipy.linalg

from qprospect import (
    CompositeState,
    DensityOperator,
    DimensionMismatchError,
    MeasurerSpec,
    Observable,
    PipelineStage,
    ProtocolError,
    ValidationError,
    basis_change,
    compose,
    entanglement_production,
    evolve,
    pointer_measurer,
    policy,
    readout,
    run_pipeline,
    tensor_product,
    transform_basis,
)

from helpers import random_density, random_unitary

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
PLUS = DensityOperator(np.ones((2, 2)) / 2.0)


def stage_list(*kinds, duration=0.0, transform=None):
    out = []
    for kind in kinds:
        if kind == "evolve":
            out.append(PipelineStage("evolve", duration=duration))
        elif kind == "transform":
            out.append(PipelineStage("transform", transform=transform))
        else:
            out.append(PipelineStage(kind))
    return out


class TestStageBuildingBlocks:
    def test_compose_is_tensor_product(self, rng):
        rho = random_density(2, rng)
        meas = pointer_measurer()
        joint = compose(rho, meas)
        want = tensor_product(rho.matrix, meas.initial_state.matrix)
        assert np.abs(joint.matrix - want).max() < 1e-14

    def test_evolve_matches_dense_exponential(self, rng):
        rho = random_density(4, rng)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2.0
        t = 0.8
        u = scipy.linalg.expm(-1j * t * h)
        want = u @ rho.matrix @ u.conj().T
        assert np.abs(evolve(rho, h, t).matrix - want).max() < 1e-12

    def test_readout_returns_partial_traces(self, rng):
        rho_a = random_density(2, rng)
        rho_b = random_density(2, rng)
        joint = DensityOperator(tensor_product(rho_a.matrix, rho_b.matrix))
        system, meter = readout(joint, (2, 2))
        assert np.abs(system.matrix - rho_a.matrix).max() < 1e-12
        assert np.abs(meter.matrix - rho_b.matrix).max() < 1e-12

    def test_readout_refuses_non_positive_dims(self, rng):
        joint = DensityOperator(tensor_product(random_density(2, rng).matrix,
                                               random_density(2, rng).matrix))
        # (-2) * (-2) matches the joint dimension, so the reduction's own dims check refuses it
        with pytest.raises(DimensionMismatchError,
                           match=r"^dims \(-2, -2\) incompatible with operator of dimension 4$"):
            readout(joint, (-2, -2))

    def test_transform_conjugates(self, rng):
        rho = random_density(3, rng)
        u = random_unitary(3, rng)
        got = transform_basis(rho, u)
        want = u @ rho.matrix @ u.conj().T
        assert np.abs(got.matrix - want).max() < 1e-12

    def test_basis_change_is_unitary(self, rng):
        z = Observable.standard(2, "Z")
        x = Observable(np.array([1.0, -1.0]), HADAMARD, "X")
        u = basis_change(z, x)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        # coordinates of an X eigenvector expressed in the Z basis
        assert np.abs(u @ np.array([1.0, 0.0]) - HADAMARD[:, 0]).max() < 1e-12

    @pytest.mark.parametrize("kind", ["compose", "evolve", "readout"])
    def test_only_a_transform_stage_carries_a_matrix(self, kind):
        with pytest.raises(ValidationError) as info:
            PipelineStage(kind, transform=np.eye(2))
        assert str(info.value) == f"{kind} stages carry no transform"


class TestMeasurerSpec:
    def test_pointer_model_shape(self):
        meas = pointer_measurer()
        assert meas.dim == 2
        assert meas.system_dim == 2
        assert np.abs(meas.initial_state.matrix - np.diag([1.0, 0.0])).max() == 0.0

    def test_nonhermitian_coupling_rejected(self):
        with pytest.raises(ValidationError):
            MeasurerSpec(2, DensityOperator.maximally_mixed(2), np.triu(np.ones((4, 4))))

    def test_coupling_must_contain_measurer(self):
        with pytest.raises(ValidationError):
            MeasurerSpec(3, DensityOperator.maximally_mixed(3), np.eye(4))

    def test_ready_state_dimension_checked(self):
        with pytest.raises(ValidationError):
            MeasurerSpec(3, DensityOperator.maximally_mixed(2), np.eye(6))


def _type_refusals():
    """Each domain-type guard in ``channels``, as ``call, message``."""
    rho, measurer = PLUS, pointer_measurer()
    stages = stage_list("compose", "evolve", "readout", duration=0.3)
    flat = [[1.0, 0.0], [0.0, 0.0]]
    return {
        "MeasurerSpec.initial_state": (lambda: MeasurerSpec(2, "x", np.eye(4)),
                                       "measurer ready state must be a DensityOperator, got str"),
        "run_pipeline.rho": (lambda: run_pipeline("x", measurer, stages),
                             "rho must be a DensityOperator, got str"),
        "run_pipeline.measurer": (lambda: run_pipeline(rho, "x", stages),
                                  "measurer must be a MeasurerSpec, got str"),
        "run_pipeline.stage": (lambda: run_pipeline(rho, measurer, ["compose"]),
                               "stages[0] must be a PipelineStage, got str"),
        "compose.rho": (lambda: compose("x", measurer), "rho must be a DensityOperator, got str"),
        "compose.measurer": (lambda: compose(rho, "x"), "measurer must be a MeasurerSpec, got str"),
        "readout": (lambda: readout("x", (2, 2)), "rho must be a DensityOperator, got str"),
        "evolve": (lambda: evolve(flat, np.eye(2), 1.0), "rho must be a DensityOperator, got list"),
        "transform_basis": (lambda: transform_basis(flat, np.eye(2)),
                            "rho must be a DensityOperator, got list"),
    }


class TestDomainTypes:
    @pytest.mark.parametrize("site", sorted(_type_refusals()))
    def test_wrong_type_is_refused_by_name(self, site):
        call, message = _type_refusals()[site]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


class TestPipelineProtocol:
    def setup_method(self):
        self.meas = pointer_measurer()
        self.rho = PLUS

    def run(self, stages):
        return run_pipeline(self.rho, self.meas, stages)

    def test_must_start_with_compose(self):
        with pytest.raises(ProtocolError):
            self.run(stage_list("evolve", "readout", duration=1.0))

    def test_single_compose_only(self):
        stages = [PipelineStage("compose"), PipelineStage("compose"),
                  PipelineStage("evolve", duration=1.0), PipelineStage("readout")]
        with pytest.raises(ProtocolError):
            self.run(stages)

    def test_readout_needs_fresh_dynamics(self):
        with pytest.raises(ProtocolError):
            self.run(stage_list("compose", "readout"))

    def test_must_end_with_readout(self):
        with pytest.raises(ProtocolError):
            self.run(stage_list("compose", "evolve", duration=1.0))

    def test_empty_pipeline(self):
        with pytest.raises(ProtocolError):
            self.run([])

    def test_stage_validation(self):
        with pytest.raises(ValidationError):
            PipelineStage("collapse")
        with pytest.raises(ValidationError):
            PipelineStage("readout", duration=1.0)
        with pytest.raises(ValidationError):
            PipelineStage("transform")  # matrix missing
        with pytest.raises(ValidationError):
            PipelineStage("evolve", duration=-1.0)


class TestPipelineRuns:
    def test_zero_coupling_time_changes_nothing(self, rng):
        rho = random_density(2, rng)
        trace = run_pipeline(rho, pointer_measurer(),
                             stage_list("compose", "evolve", "readout"))
        assert np.abs(trace.rho_a.matrix - rho.matrix).max() < 1e-12
        assert trace.rho_a is trace.rho_b

    def test_single_readout_equals_direct_route(self, rng):
        rho = random_density(2, rng)
        meas = pointer_measurer()
        t = 0.7
        trace = run_pipeline(rho, meas, stage_list("compose", "evolve", "readout",
                                                   duration=t))
        joint = compose(rho, meas)
        joint = evolve(joint, meas.coupling, t)
        system, _ = readout(joint, (2, 2))
        assert np.abs(trace.rho_a.matrix - system.matrix).max() < 1e-13

    def test_clock_accumulates_durations(self):
        stages = [PipelineStage("compose"),
                  PipelineStage("evolve", duration=0.25),
                  PipelineStage("evolve", duration=0.5),
                  PipelineStage("readout")]
        trace = run_pipeline(PLUS, pointer_measurer(), stages)
        assert [r.time for r in trace.records] == [0.0, 0.25, 0.75, 0.75]

    def test_readout_decoheres_the_joint(self):
        # after a readout the stored joint state is the product of its
        # reductions, so a second readout reproduces the same factors
        stages = stage_list("compose", "evolve", "readout", duration=np.pi / 4)
        trace = run_pipeline(PLUS, pointer_measurer(), stages)
        record = trace.records[-1]
        want = tensor_product(record.system.matrix, record.meter.matrix)
        assert np.abs(record.state.matrix - want).max() < 1e-13

    def test_system_space_transform_is_extended(self, rng):
        rho = random_density(2, rng)
        meas = pointer_measurer()
        u = random_unitary(2, rng)
        small = run_pipeline(rho, meas, stage_list("compose", "transform", "readout",
                                                   transform=u))
        big = run_pipeline(rho, meas, stage_list("compose", "transform", "readout",
                                                 transform=np.kron(u, np.eye(2))))
        assert np.abs(small.rho_a.matrix - big.rho_a.matrix).max() < 1e-13

    def test_transform_dimension_mismatch(self, rng):
        rho = random_density(2, rng)
        u = random_unitary(3, rng)
        with pytest.raises(ValidationError):
            run_pipeline(rho, pointer_measurer(),
                         stage_list("compose", "transform", "readout", transform=u))

    def test_two_channel_chain(self, rng):
        # full chain: couple, read out, rotate, couple again, read out
        rho = random_density(2, rng)
        stages = [PipelineStage("compose"),
                  PipelineStage("evolve", duration=np.pi / 2),
                  PipelineStage("readout"),
                  PipelineStage("transform", transform=HADAMARD),
                  PipelineStage("evolve", duration=np.pi / 2),
                  PipelineStage("readout")]
        trace = run_pipeline(rho, pointer_measurer(), stages)
        assert len(trace.records) == 6
        # rho_b is the first channel's system state, rho_a the second's
        assert np.abs(trace.rho_b.matrix.diagonal().real
                      - rho.matrix.diagonal().real).max() < 1e-10
        assert abs(np.trace(trace.rho_a.matrix) - 1.0) < 1e-12


class TestPointerModel:
    def test_diagonal_is_preserved_at_all_times(self, rng):
        rho = random_density(2, rng)
        meas = pointer_measurer()
        for t in (0.3, np.pi / 4, np.pi / 2, 2.1):
            trace = run_pipeline(rho, meas,
                                 stage_list("compose", "evolve", "readout", duration=t))
            assert np.abs(trace.rho_a.matrix.diagonal().real
                          - rho.matrix.diagonal().real).max() < 1e-10

    def test_full_coupling_kills_coherence(self):
        # at t = pi/4 the conditional pointer states are orthogonal and the
        # system coherence is gone; the populations survive untouched
        trace = run_pipeline(PLUS, pointer_measurer(),
                             stage_list("compose", "evolve", "readout",
                                        duration=np.pi / 4))
        got = trace.rho_a.matrix
        assert np.abs(got - np.eye(2) / 2.0).max() < 1e-12

    def test_coherence_revives_with_flipped_sign(self):
        # at t = pi/2 the pointer branches are anti-parallel: the joint is
        # a product again and the off-diagonal term returns negated
        trace = run_pipeline(PLUS, pointer_measurer(),
                             stage_list("compose", "evolve", "readout",
                                        duration=np.pi / 2))
        got = trace.rho_a.matrix
        assert np.abs(got - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() < 1e-12

    def test_joint_state_entangles_midway(self):
        # stop before the readout: at t = pi/4 the joint state of system
        # and pointer is genuinely entangled for a coherent input
        meas = pointer_measurer()
        joint = compose(PLUS, meas)
        joint = evolve(joint, meas.coupling, np.pi / 4)
        state = CompositeState(joint.matrix, (2, 2))
        report = entanglement_production(state)
        assert report.epsilon_spectral > 0.5
        purity = float(np.trace(state.reduced(0).matrix @ state.reduced(0).matrix).real)
        assert purity < 0.999

    def test_pointer_starts_detached(self):
        meas = pointer_measurer()
        joint = compose(DensityOperator(np.diag([1.0, 0.0])), meas)
        state = CompositeState(joint.matrix, (2, 2))
        report = entanglement_production(state)
        assert abs(report.epsilon) < 1e-12
        assert abs(report.epsilon_spectral) < 1e-12


def six_stage_pipeline(ds, dm, rng):
    """The canonical chain with a random input, ready state, coupling and meter rotation."""
    h = rng.normal(size=(ds * dm, ds * dm)) + 1j * rng.normal(size=(ds * dm, ds * dm))
    measurer = MeasurerSpec(dm, random_density(dm, rng), (h + h.conj().T) / 2.0)
    stages = canonical_stages(np.kron(np.eye(ds), random_unitary(dm, rng)))
    return random_density(ds, rng), measurer, stages


def canonical_stages(rotation):
    return [PipelineStage("compose"),
            PipelineStage("evolve", duration=0.7),
            PipelineStage("readout"),
            PipelineStage("evolve", duration=1.1),
            PipelineStage("transform", transform=rotation),
            PipelineStage("readout")]


def stage_by_stage(rho, measurer, stages):
    """The joint state after each stage and the system at each readout, by the public stages."""
    dims = (rho.dim, measurer.dim)
    joints, systems = [], []
    for stage in stages:
        if stage.kind == "compose":
            joint = compose(rho, measurer)
        elif stage.kind == "evolve":
            joint = evolve(joint, measurer.coupling, stage.duration)
        elif stage.kind == "transform":
            t = stage.transform
            if t.shape[0] == rho.dim:
                t = tensor_product(t, np.eye(measurer.dim, dtype=complex))
            joint = transform_basis(joint, t)
        else:
            system, meter = readout(joint, dims)
            systems.append(system)
            joint = DensityOperator(tensor_product(system.matrix, meter.matrix))
        joints.append(joint)
    return joints, systems


class TestKeptSpectra:
    """Product and evolved joint states keep a closed-form spectrum."""

    def test_coupling_and_transformed_state_are_decomposed_once(self, decomposed_sizes, rng):
        rho, measurer, stages = six_stage_pipeline(16, 16, rng)
        assert decomposed_sizes["cholesky"] == [16, 16]  # the validated inputs
        for sizes in decomposed_sizes.values():
            sizes.clear()
        run_pipeline(rho, measurer, stages)
        assert decomposed_sizes["eigh"] == [256]
        # the transform stage is factored, not decomposed; the two reductions
        # of each readout are decomposed, and so are the inputs, on the first
        # read of their spectra (compose)
        assert decomposed_sizes["cholesky"] == [256]
        assert decomposed_sizes["eigvalsh"] == [16, 16, 16, 16, 16, 16]
        for sizes in decomposed_sizes.values():
            sizes.clear()
        run_pipeline(rho, measurer, stages)  # the coupling and the inputs' spectra are kept
        assert decomposed_sizes == {"eigh": [], "eigvalsh": [16, 16, 16, 16], "cholesky": [256]}

    def test_only_the_evolved_and_transformed_joints_are_scanned(self, scanned_sizes, rng):
        rho, measurer, stages = six_stage_pipeline(16, 16, rng)
        scanned_sizes.clear()
        run_pipeline(rho, measurer, stages)
        # 256: the two evolves and the transform.  16: each product is bounded
        # by its two factors (three products), and each readout validates its
        # two reductions
        assert sorted(scanned_sizes) == [16] * 10 + [256] * 3

    def test_second_pipeline_decomposes_nothing(self, decomposed_sizes, rng):
        rho, measurer, stages = six_stage_pipeline(4, 3, rng)
        run_pipeline(rho, measurer, stages)
        decomposed_sizes["eigh"].clear()
        again = run_pipeline(rho, measurer, stages)
        assert decomposed_sizes["eigh"] == []
        fresh = run_pipeline(rho, MeasurerSpec(3, measurer.initial_state, measurer.coupling),
                             stages)
        assert decomposed_sizes["eigh"] == [12]
        for kept, built in zip(again.records, fresh.records):
            assert np.array_equal(kept.state.matrix, built.state.matrix)

    def test_every_stage_keeps_its_spectrum(self, rng):
        rho, measurer, stages = six_stage_pipeline(16, 16, rng)
        trace = run_pipeline(rho, measurer, stages)
        states = [r.state for r in trace.records]
        states += [f for r in trace.records for f in (r.system, r.meter) if f is not None]
        for state in states:
            assert np.abs(state.spectrum - np.linalg.eigvalsh(state.matrix)).max() < 1e-12

    def test_pipeline_matches_the_stage_by_stage_route(self, rng):
        rho, measurer, stages = six_stage_pipeline(4, 3, rng)
        dense = PipelineStage("transform", transform=random_unitary(12, rng))
        # the dense coupling is one block, so records 0-3 are the public
        # route's bit for bit; the meter rotation kron(1, U) is applied per
        # block, where transform_basis multiplies densely, so records 4-5
        # agree to rounding; a dense joint-space rotation is one block too
        for transform, bound in ((stages[4], 1e-15), (dense, 0.0)):
            chain = stages[:4] + [transform, stages[5]]
            trace = run_pipeline(rho, measurer, chain)
            joints, systems = stage_by_stage(rho, measurer, chain)
            for record, joint in zip(trace.records[:4], joints[:4]):
                assert np.array_equal(record.state.matrix, joint.matrix)
            for got, want in zip([r.state for r in trace.records[4:]] + [trace.rho_a],
                                 joints[4:] + systems[-1:], strict=True):
                assert np.abs(got.matrix - want.matrix).max() <= bound  # 0.0: bit for bit

    def test_product_keeps_the_product_spectrum(self, decomposed_sizes, rng):
        rho_a, rho_b = random_density(8, rng), random_density(16, rng)
        assert decomposed_sizes["cholesky"] == [8, 16] and decomposed_sizes["eigvalsh"] == []
        for state in (CompositeState.product(rho_a, rho_b), compose(rho_a, MeasurerSpec(
                16, rho_b, np.zeros((128, 128))))):
            assert np.abs(state.spectrum - np.linalg.eigvalsh(state.matrix)).max() < 1e-12
        # the factors' spectra on their first read, kept for the second
        # product; then the two checks above.  No product is factored.
        assert decomposed_sizes["eigvalsh"] == [8, 16, 128, 128]
        assert decomposed_sizes["cholesky"] == [8, 16]

    def test_evolve_keeps_the_spectrum(self, decomposed_sizes, rng):
        rho = random_density(32, rng)
        h = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        assert decomposed_sizes["cholesky"] == [32]
        state = evolve(rho, (h + h.conj().T) / 2.0, 0.9)
        # rho's spectrum on its first read; the evolved state is neither
        # decomposed nor factored
        assert decomposed_sizes["eigvalsh"] == [32]
        assert decomposed_sizes["cholesky"] == [32]
        assert np.abs(state.spectrum - np.linalg.eigvalsh(state.matrix)).max() < 1e-12

    def test_known_spectrum_still_gates_positivity(self):
        # under a loose tolerance each factor passes, but their product has
        # the eigenvalue -0.29 * 1.29 = -0.374, beyond it
        previous = policy.set_tolerance(0.3)
        try:
            edge = DensityOperator(np.diag([1.29, -0.29]))
            meter = MeasurerSpec(2, edge, np.zeros((4, 4)))
            for build in (lambda: CompositeState.product(edge, edge),
                          lambda: compose(edge, meter)):
                with pytest.raises(ValidationError, match="lowest eigenvalue -3.741e-01"):
                    build()
        finally:
            policy.set_tolerance(previous)


def block_diagonal_pipeline(ds, dm, rng):
    """The canonical chain, its coupling and meter rotation block-diagonal in the system basis."""
    blocks = [rng.normal(size=(dm, dm)) + 1j * rng.normal(size=(dm, dm)) for _ in range(ds)]
    coupling = scipy.linalg.block_diag(*[(b + b.conj().T) / (2.0 * np.sqrt(dm)) for b in blocks])
    rotation = scipy.linalg.block_diag(*[random_unitary(dm, rng) for _ in range(ds)])
    measurer = MeasurerSpec(dm, random_density(dm, rng), coupling)
    return random_density(ds, rng), measurer, canonical_stages(rotation)


def dense_reference(rho, measurer, stages):
    """``(joint, system, meter)`` after each stage, by dense products and ``scipy.linalg.expm``."""
    ds, dm = rho.dim, measurer.dim
    out = []
    for stage in stages:
        system = meter = None
        if stage.kind == "compose":
            joint = np.kron(rho.matrix, measurer.initial_state.matrix)
        elif stage.kind == "evolve":
            u = scipy.linalg.expm(-1j * stage.duration * measurer.coupling)
            joint = u @ joint @ u.conj().T
        elif stage.kind == "transform":
            joint = stage.transform @ joint @ stage.transform.conj().T
        else:
            four = joint.reshape(ds, dm, ds, dm)
            system, meter = np.einsum("ijkj->ik", four), np.einsum("ijil->jl", four)
            joint = np.kron(system, meter)
        out.append((joint, system, meter))
    return out


class TestBlockRoute:
    """A coupling or rotation block-diagonal in the system basis is applied per block."""

    @pytest.mark.parametrize("ds, dm", [(4, 3), (16, 16)])
    def test_records_match_the_dense_reference(self, ds, dm, rng):
        rho, measurer, stages = block_diagonal_pipeline(ds, dm, rng)
        trace = run_pipeline(rho, measurer, stages)
        assert measurer._decomposition()[1].shape == (ds, dm, dm)
        for record, (joint, system, meter) in zip(trace.records, dense_reference(
                rho, measurer, stages), strict=True):
            assert np.abs(record.state.matrix - joint).max() < 1e-13
            if system is not None:
                assert np.abs(record.system.matrix - system).max() < 1e-13
                assert np.abs(record.meter.matrix - meter).max() < 1e-13

    @pytest.mark.parametrize("ds, dm", [(4, 3), (16, 16)])
    def test_readouts_keep_the_system_diagonal(self, ds, dm, rng):
        rho, measurer, stages = block_diagonal_pipeline(ds, dm, rng)
        trace = run_pipeline(rho, measurer, stages)
        systems = [r.system for r in trace.records if r.system is not None] + [trace.rho_a]
        for system in systems:
            assert np.abs(system.matrix.diagonal() - rho.matrix.diagonal()).max() < 1e-12

    def test_one_entry_off_the_blocks_gives_the_dense_route(self, rng):
        rho, block_measurer, stages = block_diagonal_pipeline(4, 3, rng)
        coupling = block_measurer.coupling.copy()
        coupling[0, 11] = coupling[11, 0] = 1e-300
        measurer = MeasurerSpec(3, block_measurer.initial_state, coupling)
        stages[4] = PipelineStage("transform", transform=random_unitary(4, rng))
        trace = run_pipeline(rho, measurer, stages)
        assert measurer._decomposition()[1].shape == (1, 12, 12)
        joints, systems = stage_by_stage(rho, measurer, stages)
        for record, joint in zip(trace.records, joints, strict=True):
            assert np.array_equal(record.state.matrix, joint.matrix)
        readouts = [r.system for r in trace.records if r.system is not None]
        for got, want in zip(readouts, systems, strict=True):
            assert np.array_equal(got.matrix, want.matrix)

    def test_block_coupling_is_decomposed_as_one_stack(self, decomposed_sizes, rng):
        rho, measurer, stages = block_diagonal_pipeline(16, 16, rng)
        for sizes in decomposed_sizes.values():
            sizes.clear()
        run_pipeline(rho, measurer, stages)
        assert decomposed_sizes["eigh"] == [(16, 16, 16)]
        # the rotated state is still proved positive, by one factorization
        assert decomposed_sizes["cholesky"] == [256]


class TestCorrelationBridge:
    def test_amplitude_matrix_becomes_composite(self, rng):
        c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        c /= np.linalg.norm(c)
        state = CompositeState.from_amplitudes(c)
        assert state.dims == (2, 3)
        assert abs(np.trace(state.matrix) - 1.0) < 1e-12
