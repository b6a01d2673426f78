"""Entanglement production: maximally correlated, product, and witness states."""

import math

import numpy as np
import pytest

from qprospect import (
    CompositeState,
    DensityOperator,
    MultimodeState,
    Prospect,
    ValidationError,
    bell_state,
    entanglement_production,
    prospect_probability,
)

from helpers import random_density


class TestBellFamily:
    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_epsilon_is_log_m(self, m):
        report = entanglement_production(bell_state(m))
        assert abs(report.epsilon - math.log(m)) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_spectral_route_doubles(self, m):
        # the joint state is pure, so its spectral norm is 1 while both
        # reductions are maximally mixed: the spectral reading is 2 log m
        report = entanglement_production(bell_state(m))
        assert abs(report.epsilon_spectral - 2.0 * math.log(m)) < 1e-12
        assert abs(report.spectral_norms[0] - 1.0) < 1e-12

    def test_base_two_counts_bits(self):
        report = entanglement_production(bell_state(4), log_base=2)
        assert abs(report.epsilon - 2.0) < 1e-12
        assert report.log_base == 2.0

    def test_norm_triple(self):
        report = entanglement_production(bell_state(2))
        assert abs(report.norms[0] - 0.5) < 1e-14
        assert abs(report.norms[1] - 0.5) < 1e-14
        assert abs(report.norms[2] - 0.5) < 1e-14

    def test_single_mode_rejected(self):
        with pytest.raises(ValidationError):
            bell_state(1)


class TestBellAtScale:
    @pytest.mark.parametrize("m", [16, 64])
    def test_both_readings(self, m):
        # m = 64 is the dimension cap, D = 4096
        report = entanglement_production(bell_state(m))
        assert abs(report.epsilon - math.log(m)) < 1e-12
        assert abs(report.epsilon_spectral - 2.0 * math.log(m)) < 1e-12


class TestProducts:
    def test_pure_products_score_zero(self, rng):
        for da, db in [(2, 2), (2, 3), (4, 2)]:
            a = rng.normal(size=da) + 1j * rng.normal(size=da)
            b = rng.normal(size=db) + 1j * rng.normal(size=db)
            state = CompositeState.from_amplitudes(
                np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            )
            report = entanglement_production(state)
            assert abs(report.epsilon) < 1e-10
            assert abs(report.epsilon_spectral) < 1e-10

    def test_mixed_products_score_zero(self, rng):
        state = CompositeState.product(random_density(3, rng), random_density(2, rng))
        report = entanglement_production(state)
        assert abs(report.epsilon) < 1e-10
        assert abs(report.epsilon_spectral) < 1e-10

    def test_diagonal_product_mixture(self):
        # classical (diagonal, factorizing) statistics produce nothing
        state = CompositeState.product(
            DensityOperator(np.diag([0.7, 0.3])),
            DensityOperator(np.diag([0.2, 0.8])),
        )
        report = entanglement_production(state)
        assert abs(report.epsilon) <= 1e-10
        assert abs(report.epsilon_spectral) <= 1e-10
        # frozen triple: 0.56 / (0.7 * 0.8) = 1
        assert abs(report.norms[0] - 0.56) < 1e-14


class TestReportInvariants:
    def test_epsilon_reproduces_norms(self, rng):
        from helpers import random_composite

        for _ in range(10):
            state = random_composite(2, 3, rng)
            report = entanglement_production(state)
            want = math.log(report.norms[0] / (report.norms[1] * report.norms[2]))
            assert abs(report.epsilon - want) < 1e-12
            want_s = math.log(
                report.spectral_norms[0]
                / (report.spectral_norms[1] * report.spectral_norms[2])
            )
            assert abs(report.epsilon_spectral - want_s) < 1e-12

    def test_bad_log_base_rejected(self):
        with pytest.raises(ValidationError):
            entanglement_production(bell_state(2), log_base=1.0)
        with pytest.raises(ValidationError):
            entanglement_production(bell_state(2), log_base=0.5)
        with pytest.raises(ValidationError):
            entanglement_production(bell_state(2), log_base="ten")
        with pytest.raises(ValidationError):
            entanglement_production(bell_state(2), log_base=math.inf)


class TestWitnesses:
    def test_entangled_state_with_interference(self):
        # the same state that shows a nonzero prospect interference term
        # also scores positive entanglement production on the spectral route
        c = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.sqrt(3.0)
        state = CompositeState.from_amplitudes(c)
        report = entanglement_production(state)
        assert report.epsilon_spectral > 0.25
        b = MultimodeState.in_standard_basis(np.array([1.0, 1.0]))
        out = prospect_probability(state, Prospect(0, b), normalize=False)
        assert abs(out.q) > 0.01

    def test_bell_interference_free_yet_entangled(self):
        # maximal correlation without any prospect interference: the two
        # diagnostics are genuinely independent
        state = bell_state(2)
        report = entanglement_production(state)
        assert report.epsilon > 0.69
        b = MultimodeState.in_standard_basis(np.ones(2))
        for n in range(2):
            out = prospect_probability(state, Prospect(n, b), normalize=False)
            assert abs(out.q) < 1e-12
