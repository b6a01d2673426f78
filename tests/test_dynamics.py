"""Piecewise-constant dynamics, two-time amplitudes, and their prospects."""

import numpy as np
import pytest
import scipy.linalg

from qprospect import (
    AmplitudeMatrix,
    CompositeState,
    HamiltonianSpec,
    MultimodeState,
    Prospect,
    ValidationError,
    WaveState,
    amplitude_matrix,
    evolve_state,
    occupation_residual,
    propagator,
    prospect_probability,
    two_time_joint,
    two_time_prospect,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def rk4_propagate(h_of_t, c0, t0, t, steps=4000):
    """Reference integrator for i dc/dt = H(t) c, classic fourth order."""
    c = np.array(c0, dtype=complex)
    dt = (t - t0) / steps
    for k in range(steps):
        tk = t0 + k * dt
        f = lambda tau, y: -1j * (h_of_t(tau) @ y)
        k1 = f(tk, c)
        k2 = f(tk + dt / 2, c + dt * k1 / 2)
        k3 = f(tk + dt / 2, c + dt * k2 / 2)
        k4 = f(tk + dt, c + dt * k3)
        c = c + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return c


class TestHamiltonianSpec:
    def test_piece_selection(self):
        h = HamiltonianSpec(np.zeros((2, 2)), pieces=((1.0, SX), (2.0, 2 * SX)))
        assert np.abs(h.generator_at(0.5)).max() == 0.0
        assert np.abs(h.generator_at(1.5) - SX).max() == 0.0
        assert np.abs(h.generator_at(3.0) - 2 * SX).max() == 0.0

    def test_piece_applies_at_its_start(self):
        h = HamiltonianSpec(np.zeros((2, 2)), pieces=((1.0, SX),))
        assert np.abs(h.generator_at(1.0) - SX).max() == 0.0

    def test_nonincreasing_starts_rejected(self):
        with pytest.raises(ValidationError):
            HamiltonianSpec(np.zeros((2, 2)), pieces=((1.0, SX), (1.0, SX)))

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValidationError):
            HamiltonianSpec(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            HamiltonianSpec(np.zeros((2, 2)), pieces=((0.0, np.triu(np.ones((2, 2)))),))

    def test_piece_shape_must_match(self):
        with pytest.raises(ValidationError):
            HamiltonianSpec(np.zeros((2, 2)), pieces=((0.0, np.zeros((3, 3))),))


class TestPropagator:
    def test_static_case_is_plain_exponential(self, rng):
        h0 = rng.normal(size=(3, 3))
        h0 = (h0 + h0.T) / 2.0
        h = HamiltonianSpec(h0)
        u = propagator(h, 0.0, 1.3)
        assert np.abs(u - scipy.linalg.expm(-1.3j * h0)).max() < 1e-12

    def test_piecewise_matches_rk4(self, rng):
        h0 = rng.normal(size=(3, 3))
        h0 = (h0 + h0.T) / 2.0
        v1 = rng.normal(size=(3, 3))
        v1 = (v1 + v1.T) / 2.0
        v2 = rng.normal(size=(3, 3))
        v2 = (v2 + v2.T) / 2.0
        h = HamiltonianSpec(h0, pieces=((0.4, v1), (1.1, v2)))
        c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        got = propagator(h, 0.0, 2.0) @ c0
        # integrate each constant segment separately (frozen generator) so
        # the reference does not smear the jumps
        want = c0
        for a, b in [(0.0, 0.4), (0.4, 1.1), (1.1, 2.0)]:
            fixed = h.generator_at((a + b) / 2.0)
            want = rk4_propagate(lambda tau: fixed, want, a, b, steps=2000)
        assert np.abs(got - want).max() < 1e-8

    def test_segment_cut_inside_window_only(self):
        # a piece starting before t0 contributes its matrix, not a cut
        h = HamiltonianSpec(np.zeros((2, 2)), pieces=((0.5, SX),))
        u = propagator(h, 1.0, 1.0 + np.pi / 2)
        assert np.abs(u - scipy.linalg.expm(-1j * (np.pi / 2) * SX)).max() < 1e-12

    def test_unitarity(self, rng):
        h0 = rng.normal(size=(4, 4))
        h0 = (h0 + h0.T) / 2.0
        h = HamiltonianSpec(h0, pieces=((0.3, np.eye(4)),))
        u = propagator(h, 0.0, 0.9)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12

    def test_backward_time_rejected(self):
        h = HamiltonianSpec(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            propagator(h, 1.0, 0.5)


class TestEvolveState:
    def test_rabi_oscillation(self):
        # resonant two-mode exchange: population follows sin^2(g t) exactly
        g = 0.8
        h = HamiltonianSpec(np.zeros((2, 2)), pieces=((0.0, g * SX),))
        psi = WaveState(np.array([1.0, 0.0]))
        for t in np.linspace(0.0, 6.0, 50):
            out = evolve_state(psi, h, t)
            assert abs(out.occupations()[1] - np.sin(g * t) ** 2) < 1e-10

    def test_detuned_oscillation(self):
        # static detuning omega reduces the contrast to g^2 / (g^2 + omega^2/4)
        g, omega = 0.6, 0.9
        h = HamiltonianSpec(np.diag([0.0, omega]), pieces=((0.0, g * SX),))
        psi = WaveState(np.array([1.0, 0.0]))
        rabi = np.sqrt(g**2 + omega**2 / 4.0)
        contrast = g**2 / rabi**2
        for t in np.linspace(0.0, 5.0, 25):
            out = evolve_state(psi, h, t)
            want = contrast * np.sin(rabi * t) ** 2
            assert abs(out.occupations()[1] - want) < 1e-10

    def test_evolution_composes(self, rng):
        h0 = rng.normal(size=(3, 3))
        h0 = (h0 + h0.T) / 2.0
        h = HamiltonianSpec(h0, pieces=((0.7, np.diag([1.0, 0.0, -1.0])),))
        c0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = WaveState(c0 / np.linalg.norm(c0))
        direct = evolve_state(psi, h, 1.6)
        via = evolve_state(evolve_state(psi, h, 0.9), h, 1.6)
        assert np.abs(direct.coefficients - via.coefficients).max() < 1e-12

    def test_dimension_mismatch(self):
        h = HamiltonianSpec(np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            evolve_state(WaveState(np.array([1.0, 0.0])), h, 1.0)


class TestAmplitudeMatrix:
    def drive(self):
        return HamiltonianSpec(np.diag([0.0, 1.1]), pieces=((0.0, 0.7 * SX),))

    def test_columns_carry_start_occupations(self):
        psi = WaveState(np.array([0.6, 0.8]))
        amp = amplitude_matrix(psi, self.drive(), 0.0, 1.5)
        cols = np.sum(np.abs(amp.c) ** 2, axis=0)
        assert np.abs(cols - [0.36, 0.64]).max() < 1e-12

    def test_entries_are_weighted_propagator(self):
        psi = WaveState(np.array([0.6, 0.8]))
        h = self.drive()
        amp = amplitude_matrix(psi, h, 0.0, 1.5)
        u = propagator(h, 0.0, 1.5)
        want = u * np.array([0.6, 0.8])[None, :]
        assert np.abs(amp.c - want).max() < 1e-13

    def test_start_state_is_first_evolved(self):
        psi = WaveState(np.array([1.0, 0.0]))
        h = self.drive()
        at_one = evolve_state(psi, h, 1.0)
        amp = amplitude_matrix(psi, h, 1.0, 2.0)
        cols = np.sum(np.abs(amp.c) ** 2, axis=0)
        assert np.abs(cols - at_one.occupations()).max() < 1e-12

    def test_each_generator_is_decomposed_once(self, rng, monkeypatch):
        def hermitian(d, scale=1.0):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return scale * (a + a.conj().T) / 2.0

        d = 16
        h = HamiltonianSpec(
            hermitian(d), tuple((0.1 * (k + 1), hermitian(d, 0.5)) for k in range(10)))
        c0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = WaveState(c0 / np.linalg.norm(c0))
        t0, t = 0.35, 1.25
        # the public two-step route, which decomposes the generator at t0 twice
        want = propagator(h, t0, t) * evolve_state(psi, h, t0).coefficients[None, :]
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *args, **kw: calls.append(a) or original(a, *args, **kw))
        amp = amplitude_matrix(psi, h, t0, t)
        # h0 and the ten pieces: every piece has begun by t
        assert len(calls) == 11
        assert np.array_equal(amp.c, want)

    def test_total_weight_validated(self):
        with pytest.raises(ValidationError):
            AmplitudeMatrix(np.ones((2, 2)), (0.0, 1.0))

    def test_time_order_validated(self):
        c = np.eye(2) / np.sqrt(2.0)
        with pytest.raises(ValidationError):
            AmplitudeMatrix(c, (1.0, 0.0))

    def test_joint_probabilities(self):
        psi = WaveState(np.array([1.0, 0.0]))
        g, t = 0.7, 0.9
        h = HamiltonianSpec(np.zeros((2, 2)), pieces=((0.0, g * SX),))
        amp = amplitude_matrix(psi, h, 0.0, t)
        assert abs(two_time_joint(amp, 0, 0) - np.cos(g * t) ** 2) < 1e-12
        assert abs(two_time_joint(amp, 1, 0) - np.sin(g * t) ** 2) < 1e-12
        assert two_time_joint(amp, 1, 1) < 1e-30  # empty start mode

    def test_joint_index_range(self):
        c = np.eye(2) / np.sqrt(2.0)
        amp = AmplitudeMatrix(c, (0.0, 1.0))
        with pytest.raises(ValidationError):
            two_time_joint(amp, 2, 0)


class TestOccupationResidual:
    def test_single_mode_start_has_none(self):
        psi = WaveState(np.array([1.0, 0.0]))
        h = HamiltonianSpec(np.diag([0.0, 0.4]), pieces=((0.0, 0.7 * SX),))
        amp = amplitude_matrix(psi, h, 0.0, 1.3)
        final = evolve_state(psi, h, 1.3)
        assert occupation_residual(amp, final) < 1e-12

    def test_coherent_start_shows_interference(self):
        # generic superposition under a detuned drive: the incoherent row
        # sums miss the cross terms by a visible margin
        psi = WaveState(np.array([0.8, 0.6j]))
        h = HamiltonianSpec(np.diag([0.0, 1.3]), pieces=((0.0, 0.7 * SX),))
        amp = amplitude_matrix(psi, h, 0.0, 1.0)
        final = evolve_state(psi, h, 1.0)
        residual = occupation_residual(amp, final)
        manual = np.abs(
            np.sum(np.abs(amp.c) ** 2, axis=1) - final.occupations()
        ).max()
        assert abs(residual - manual) < 1e-15
        assert residual > 0.01


class TestTwoTimeProspect:
    def drive(self):
        return HamiltonianSpec(np.diag([0.0, 0.9]), pieces=((0.0, 0.7 * SX),))

    def test_matches_composite_route(self, rng):
        for _ in range(10):
            c0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi = WaveState(c0 / np.linalg.norm(c0))
            h0 = rng.normal(size=(3, 3))
            h0 = (h0 + h0.T) / 2.0
            h = HamiltonianSpec(h0)
            amp = amplitude_matrix(psi, h, 0.0, 1.1)
            state = CompositeState.from_amplitudes(amp.c)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            bs = MultimodeState.in_standard_basis(b)
            for n in range(3):
                got = two_time_prospect(amp, n, bs)
                want = prospect_probability(state, Prospect(n, bs), normalize=False)
                assert abs(got.p - want.p) < 1e-12
                assert abs(got.q - want.q) < 1e-12

    def test_matches_composite_route_at_d64(self, rng):
        d = 64
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        c0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        amp = amplitude_matrix(
            WaveState(c0 / np.linalg.norm(c0)), HamiltonianSpec((a + a.conj().T) / 2.0), 0.0, 0.7)
        state = CompositeState.from_amplitudes(amp.c)
        bs = MultimodeState.in_standard_basis(rng.normal(size=d) + 1j * rng.normal(size=d))
        for n in range(0, d, 7):
            got = two_time_prospect(amp, n, bs)
            want = prospect_probability(state, Prospect(n, bs), normalize=False)
            for field in ("p", "f", "q"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12 * bs.gram()

    def test_uniform_weights_interfere(self):
        psi = WaveState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        amp = amplitude_matrix(psi, self.drive(), 0.0, 1.2)
        out = two_time_prospect(amp, 0, np.array([1.0, 1.0]))
        assert abs(out.p - abs(amp.c[0].sum()) ** 2) < 1e-12
        assert abs(out.p - (out.f + out.q)) < 1e-12
        assert abs(out.q) > 1e-3

    def test_bare_array_and_state_agree(self):
        psi = WaveState(np.array([0.6, 0.8]))
        amp = amplitude_matrix(psi, self.drive(), 0.0, 0.8)
        b = np.array([1.0, -1.0j])
        via_array = two_time_prospect(amp, 1, b)
        via_state = two_time_prospect(amp, 1, MultimodeState.in_standard_basis(b))
        assert via_array == via_state

    def test_rotated_mode_basis_rejected(self):
        psi = WaveState(np.array([0.6, 0.8]))
        amp = amplitude_matrix(psi, self.drive(), 0.0, 0.8)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        from qprospect import Observable

        rotated = MultimodeState(
            np.array([1.0, 1.0]),
            Observable(np.array([1.0, -1.0]), hadamard, "X"),
        )
        with pytest.raises(ValidationError):
            two_time_prospect(amp, 0, rotated)

    def test_zero_weights_rejected(self):
        psi = WaveState(np.array([0.6, 0.8]))
        amp = amplitude_matrix(psi, self.drive(), 0.0, 0.8)
        with pytest.raises(ValidationError):
            two_time_prospect(amp, 0, np.zeros(2))
