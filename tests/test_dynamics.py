"""Piecewise-constant dynamics, two-time amplitudes, and their prospects."""

import dataclasses
import threading

import numpy as np
import pytest
import scipy.linalg

from qprospect import (
    AmplitudeMatrix,
    CompositeState,
    DimensionMismatchError,
    HamiltonianSpec,
    MultimodeState,
    Prospect,
    ValidationError,
    WaveState,
    amplitude_matrix,
    evolve_state,
    occupation_residual,
    propagator,
    policy,
    prospect_probability,
    two_time_joint,
    two_time_prospect,
)

from helpers import traced_peak

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


@pytest.fixture
def eigh_calls(monkeypatch):
    """The size of every matrix passed to ``np.linalg.eigh`` while the test runs."""
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: calls.append(np.shape(a)[-1]) or original(a, *args, **kw))
    return calls


def random_drive(d, rng):
    """A random static generator and ten random pieces starting at 0.1, 0.2, ..., 1.0."""
    def hermitian(scale=1.0):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return scale * (a + a.conj().T) / 2.0

    return hermitian(), tuple((0.1 * (k + 1), hermitian(0.5)) for k in range(10))


def skewed_spec():
    """h0 and one piece each 0.9 tol from Hermitian, so their sum is refused at first use."""
    skew = np.array([[0.0, 0.9 * policy.tolerance()], [0.0, 0.0]])
    return HamiltonianSpec(skew, pieces=((0.5, skew),))


def spec_with_doubled_eigenvectors():
    """A spec whose kept decomposition is planted non-unitary, so an evolved norm drifts."""
    h = HamiltonianSpec(SX)
    w, v = np.linalg.eigh(SX)
    h._decompositions[0] = (w, 2.0 * v)
    return h


def random_wave(d, rng):
    c0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    return WaveState(c0 / np.linalg.norm(c0))


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

    @pytest.mark.parametrize("piece", [(0.0,), 0.0, (0.0, SX, SX), ("soon", SX), (1j, SX)],
                             ids=["one", "bare", "three", "text-start", "complex-start"])
    def test_malformed_piece_rejected(self, piece):
        with pytest.raises(ValidationError, match=r"^piece 0 must be a \(start, matrix\) pair$"):
            HamiltonianSpec(np.eye(2), pieces=(piece,))


class TestKeptDecompositions:
    """A spec decomposes each generator once and every later call reuses it."""

    def test_second_call_decomposes_nothing(self, eigh_calls, rng):
        parts, psi = random_drive(8, rng), random_wave(8, rng)
        h = HamiltonianSpec(*parts)
        evolve_state(psi, h, 1.3)
        amplitude_matrix(psi, h, 0.25, 1.3)
        eigh_calls.clear()
        state, amp = evolve_state(psi, h, 1.3), amplitude_matrix(psi, h, 0.25, 1.3)
        assert eigh_calls == []
        assert np.array_equal(state.coefficients,
                              evolve_state(psi, HamiltonianSpec(*parts), 1.3).coefficients)
        assert np.array_equal(amp.c, amplitude_matrix(psi, HamiltonianSpec(*parts), 0.25, 1.3).c)

    def test_refused_generator_is_refused_again(self):
        h = skewed_spec()
        psi = WaveState(np.array([1.0, 0.0]))
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError) as refused:
                evolve_state(psi, h, 1.0)
            messages.append(str(refused.value))
        assert messages == ["generator is not Hermitian: max deviation 1.800e-10 "
                            "exceeds 1.0e-10"] * 2

    def test_replace_gives_its_own_store(self, eigh_calls, rng):
        (h0, pieces), psi = random_drive(8, rng), random_wave(8, rng)
        h = HamiltonianSpec(h0, pieces)
        evolve_state(psi, h, 1.3)
        eigh_calls.clear()
        doubled = dataclasses.replace(h, h0=2.0 * h0)
        got = evolve_state(psi, doubled, 1.3)
        assert len(eigh_calls) == 11
        assert np.array_equal(got.coefficients,
                              evolve_state(psi, HamiltonianSpec(2.0 * h0, pieces), 1.3).coefficients)
        eigh_calls.clear()
        evolve_state(psi, h, 1.3)
        assert eigh_calls == []

    def test_threads_agree_bit_for_bit(self, rng):
        parts, psi = random_drive(32, rng), random_wave(32, rng)
        h = HamiltonianSpec(*parts)
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def evolve(slot):
            start.wait()
            results[slot] = amplitude_matrix(psi, h, 0.25, 1.3).c

        threads = [threading.Thread(target=evolve, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        want = amplitude_matrix(psi, HamiltonianSpec(*parts), 0.25, 1.3).c
        assert all(c is not None and np.array_equal(c, want) for c in results)


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

    @pytest.mark.parametrize("where", ["start", "cut", "inside", "after"])
    def test_matches_the_propagator_at_d128(self, where, rng):
        h = HamiltonianSpec(*random_drive(128, rng))
        c0 = random_wave(128, rng).coefficients
        psi = WaveState(c0, 0.35)
        t = {"start": 0.35, "cut": h.pieces[5][0], "inside": 0.83, "after": 1.3}[where]
        got = evolve_state(psi, h, t)
        assert got.time == t
        assert np.abs(got.coefficients - propagator(h, 0.35, t) @ c0).max() < 1e-13

    def test_peak_is_below_one_matrix_at_d256(self, rng):
        h, psi = HamiltonianSpec(*random_drive(256, rng)), random_wave(256, rng)
        evolve_state(psi, h, 1.3)  # decomposes every generator
        # one 256 x 256 complex matrix is 1 MiB
        assert traced_peak(lambda: evolve_state(psi, h, 1.3)) < 256 * 256 * 16

    @pytest.mark.parametrize("call,error,message", [
        (lambda: evolve_state(WaveState([1.0, 0.0]), HamiltonianSpec(np.zeros((3, 3))), 1.0),
         DimensionMismatchError, r"state dim 2 vs generator dim 3"),
        (lambda: evolve_state(WaveState([1.0, 0.0]), HamiltonianSpec(SX), np.inf),
         ValidationError, r"propagation times must be finite"),
        (lambda: evolve_state(WaveState([1.0, 0.0]), HamiltonianSpec(SX), np.nan),
         ValidationError, r"propagation times must be finite"),
        (lambda: evolve_state(WaveState([1.0, 0.0], 1.0), HamiltonianSpec(SX), 0.5),
         ValidationError, r"backward propagation from 1\.0 to 0\.5 is not supported"),
        (lambda: evolve_state(WaveState([1.0, 0.0], -1e308), HamiltonianSpec(SX), 1e308),
         ValidationError, r"time must be finite"),
        (lambda: evolve_state(WaveState([1.0, 0.0]), skewed_spec(), 1.0),
         ValidationError, r"generator is not Hermitian: max deviation 1\.800e-10 exceeds 1\.0e-10"),
        (lambda: evolve_state(WaveState([1.0, 0.0]), spec_with_doubled_eigenvectors(), 1.0),
         ValidationError, r"coefficient norm [34]\.\d+ drifts from 1 beyond 1e-08"),
        (lambda: propagator(HamiltonianSpec(SX), 0.0, np.inf),
         ValidationError, r"propagation times must be finite"),
        (lambda: propagator(HamiltonianSpec(SX), 1.0, 0.5),
         ValidationError, r"backward propagation from 1\.0 to 0\.5 is not supported"),
        (lambda: propagator(HamiltonianSpec(SX), -1e308, 1e308),
         ValidationError, r"time must be finite"),
        (lambda: propagator(skewed_spec(), 0.0, 1.0),
         ValidationError, r"generator is not Hermitian: max deviation 1\.800e-10 exceeds 1\.0e-10"),
    ], ids=["dims", "infinite-t", "nan-t", "backward", "span-overflows", "not-hermitian",
            "norm-drift", "propagator-infinite-t", "propagator-backward",
            "propagator-span-overflows", "propagator-not-hermitian"])
    def test_refusals_keep_type_and_message(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$") as refused:
            call()
        assert type(refused.value) is error


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

    def test_each_generator_is_decomposed_once(self, eigh_calls, rng):
        h = HamiltonianSpec(*random_drive(16, rng))
        psi = random_wave(16, rng)
        t0, t = 0.35, 1.25
        # the public two-step route, then the one-call route, on one fresh spec
        want = propagator(h, t0, t) * evolve_state(psi, h, t0).coefficients[None, :]
        amp = amplitude_matrix(psi, h, t0, t)
        # h0 and the ten pieces, once each: every piece has begun by t
        assert len(eigh_calls) == 11
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

    def test_wrong_size_state_is_a_size_mismatch(self):
        # the size is checked before the basis, as for a bare array
        amp = amplitude_matrix(WaveState(np.array([0.6, 0.8])), self.drive(), 0.0, 0.8)
        for b in (np.array([0.6, 0.8, 0.0]), MultimodeState.in_standard_basis([0.6, 0.8, 0.0])):
            with pytest.raises(DimensionMismatchError,
                               match="^3 multimode weights vs 2 start modes$"):
                two_time_prospect(amp, 0, b)

    def test_zero_weights_rejected(self):
        psi = WaveState(np.array([0.6, 0.8]))
        amp = amplitude_matrix(psi, self.drive(), 0.0, 0.8)
        with pytest.raises(ValidationError):
            two_time_prospect(amp, 0, np.zeros(2))
