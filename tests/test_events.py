"""Event model: observables, states, projectors, multimode propositions, POVMs."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprospect import (
    CompositeState,
    DensityOperator,
    GeneralizedProposition,
    MultimodeState,
    NumericContractError,
    Observable,
    PovmFamily,
    Projector,
    ValidationError,
    multimode_probability,
    policy,
    projector_of,
    validate_povm,
)

from qprospect.events import _trusted

from helpers import (
    overflowing_cases,
    random_density,
    random_multimode_coefficients,
    random_observable,
    random_unitary,
    returns_or_refuses,
)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


class TestObservable:
    def test_standard_basis(self):
        obs = Observable.standard(3, "N")
        assert obs.dim == 3
        assert np.array_equal(obs.eigenbasis, np.eye(3))
        assert np.array_equal(obs.eigenvalues, [0.0, 1.0, 2.0])

    def test_vector_returns_column(self):
        obs = Observable(np.array([1.0, -1.0]), HADAMARD, "X")
        v = obs.vector(1)
        assert np.abs(v - HADAMARD[:, 1]).max() == 0.0

    def test_degenerate_eigenvalues_rejected(self):
        with pytest.raises(ValidationError):
            Observable(np.array([1.0, 1.0 + 1e-14]), np.eye(2), "A")

    @pytest.mark.parametrize("values, gap", [
        ([3.0, 1.0, 1.0 + 1e-14], "9.992e-15"),
        ([2.0, 0.5, 2.0], "0.000e+00"),
        ([0.0, 1e-12, 5.0], "1.000e-12"),
    ])
    def test_degenerate_message_names_the_least_gap(self, values, gap):
        with pytest.raises(ValidationError) as info:
            Observable(np.array(values), np.eye(3), "A")
        assert str(info.value) == (f"observable 'A' is degenerate: eigenvalue gap {gap} at or "
                                   "below 1e-12")

    def test_least_gap_matches_every_pairwise_gap(self, rng):
        # the message reports the least of all |a_i - a_j|, found from sorted neighbours
        for _ in range(200):
            values = rng.normal(size=int(rng.integers(2, 40))) * 10.0 ** rng.integers(-3, 3)
            i, j = rng.choice(values.size, 2, replace=False)
            values[j] = values[i] + rng.choice([0.0, 1e-13, -4e-13, 5e-16])
            gaps = np.abs(values[:, None] - values[None, :])
            gaps[np.diag_indices_from(gaps)] = np.inf
            with pytest.raises(ValidationError, match=re.escape(f"gap {gaps.min():.3e} at")):
                Observable(values, np.eye(values.size), "A")

    def test_one_outcome_has_no_gap(self):
        assert Observable(np.array([7.0]), np.eye(1)).dim == 1

    def test_nonunitary_basis_rejected(self):
        with pytest.raises(ValidationError):
            Observable(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]), "A")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Observable(np.array([0.0, 1.0, 2.0]), np.eye(2), "A")

    def test_operator_reconstruction(self, rng):
        obs = random_observable(4, rng)
        op = obs.operator()
        want = sum(
            obs.eigenvalues[n] * np.outer(obs.eigenbasis[:, n], obs.eigenbasis[:, n].conj())
            for n in range(4)
        )
        assert np.abs(op - want).max() < 1e-12


class TestProjectors:
    def test_idempotent_and_complete(self, rng):
        obs = random_observable(3, rng)
        projs = [projector_of(obs, n) for n in range(3)]
        total = sum(p.matrix for p in projs)
        assert np.abs(total - np.eye(3)).max() < 1e-12
        for p in projs:
            assert np.abs(p.matrix @ p.matrix - p.matrix).max() < 1e-12

    def test_orthogonality(self, rng):
        obs = random_observable(3, rng)
        p0 = projector_of(obs, 0).matrix
        p1 = projector_of(obs, 1).matrix
        assert np.abs(p0 @ p1).max() < 1e-12

    def test_source_label(self):
        obs = Observable.standard(2, "Z")
        assert projector_of(obs, 1).source == ("Z", 1)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            projector_of(Observable.standard(2, "Z"), 2)

    def test_matrix_is_the_outer_product_read_only(self, rng):
        obs = random_observable(64, rng, "A")
        for n in (0, 17, 63):
            p = projector_of(obs, n)
            v = obs.vector(n)
            assert np.array_equal(p.matrix, np.outer(v, v.conj()))
            assert p.source == ("A", n)
            with pytest.raises(ValueError):
                p.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-7], ids=["unit", "scaled"])
    def test_vector_defect_is_the_matrix_defect(self, scale):
        # P = |v><v| gives P^2 - P = (<v|v> - 1) P: the O(d) check in
        # projector_of reads the bound of Projector's O(d^3) one
        d = 64
        basis = random_unitary(d, np.random.default_rng(64))
        basis[:, 5] *= scale
        with policy.tolerance_scope(1e-6):
            obs = Observable(np.arange(d, dtype=float), basis)
        for n in range(d):
            v = obs.vector(n)
            m = np.outer(v, v.conj())
            w = np.abs(v) ** 2
            vector = abs(w.sum() - 1.0) * w.max()
            assert abs(vector - np.abs(m @ m - m).max()) <= 1e-15

    def test_eigenvectors_of_a_looser_observable_are_refused(self):
        # unitary within 1e-6, so an Observable under that scope; but
        # |v><v| with <v|v> = (1 + 1e-7)^2 is not idempotent within 1e-10
        basis = np.eye(3)
        basis[:, 1] *= 1.0 + 1e-7
        with policy.tolerance_scope(1e-6):
            obs = Observable(np.array([0.0, 1.0, 2.0]), basis)
            assert projector_of(obs, 1).source == ("A", 1)
        with pytest.raises(ValidationError,
                           match=r"not idempotent: max \|P\^2 - P\| = 2\.000e-07"):
            projector_of(obs, 1)
        assert np.array_equal(projector_of(obs, 0).matrix, np.diag([1.0, 0.0, 0.0]))

    def test_supplied_matrices_are_still_checked(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            Projector(np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="not idempotent"):
            Projector(np.diag([1.0 + 1e-7, 0.0]))
        with pytest.raises(ValidationError, match="not idempotent"):
            Projector(np.ones((2, 2)) / 2.0 + np.eye(2) * 1e-3)

    def test_supplied_projector_reports_its_dimension(self):
        assert Projector(np.diag([0.0, 1.0, 0.0])).dim == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
class TestFailClosed:
    """Finite inputs whose entries reach 1e308 are refused or truly valid."""

    def test_pure_state(self):
        for v in overflowing_cases(11, lambda d, rng: random_unitary(d, rng)[:, 0]):
            got = returns_or_refuses(DensityOperator.from_pure, v)
            assert got is None or np.abs(got.matrix).max() <= 1.0 + policy.tolerance()

    def test_supplied_projector(self):
        def projector(d, rng):
            u = random_unitary(d, rng)[:, : rng.integers(1, d + 1)]
            return u @ u.conj().T

        for m in overflowing_cases(12, projector, hermitian=True):
            got = returns_or_refuses(Projector, m)
            assert got is None or np.abs(got.matrix).max() <= 1.0 + policy.tolerance()

    def test_eigenvector_projector(self):
        # a basis that skipped the unitarity check, as only a looser
        # tolerance_scope lets one through
        for basis in overflowing_cases(13, random_unitary):
            obs = _trusted(Observable, np.arange(basis.shape[0], dtype=float), basis, "W")
            for n in range(obs.dim):
                got = returns_or_refuses(projector_of, obs, n)
                assert got is None or np.abs(got.matrix).max() <= 1.0 + policy.tolerance()


class TestDensityOperator:
    def test_accepts_valid_mixture(self):
        rho = DensityOperator(np.diag([0.25, 0.75]))
        assert rho.dim == 2
        assert abs(rho.purity() - (0.0625 + 0.5625)) < 1e-14

    def test_from_pure_normalizes_phase_free(self):
        rho = DensityOperator.from_pure(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert np.abs(rho.matrix - 0.5 * np.ones((2, 2))).max() < 1e-14

    def test_from_pure_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            DensityOperator.from_pure(np.array([1.0, 1.0]))

    def test_trace_must_be_one(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator(np.diag([0.5, 0.6]))

    def test_must_be_hermitian(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.array([[0.5, 0.1], [0.2, 0.5]]))

    def test_must_be_positive(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_maximally_mixed(self):
        rho = DensityOperator.maximally_mixed(4)
        assert np.abs(rho.matrix - np.eye(4) / 4.0).max() == 0.0
        assert abs(rho.purity() - 0.25) < 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("rank", [1, 2, None], ids=["pure", "rank2", "full"])
    def test_purity_matches_the_matrix_square(self, dim, rank, rng):
        rho = random_density(dim, rng, min(rank or dim, dim))
        want = np.trace(rho.matrix @ rho.matrix).real
        assert abs(rho.purity() - want) < 1e-15

    def test_matrix_is_read_only(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_spectrum_is_kept_read_only_and_unset_by_callers(self, rng):
        rho = random_density(5, rng)
        assert np.abs(rho.spectrum - np.linalg.eigvalsh(rho.matrix)).max() < 1e-12
        with pytest.raises(ValueError):
            rho.spectrum[0] = 1.0
        assert "spectrum" not in repr(rho)
        with pytest.raises(TypeError):
            DensityOperator(np.diag([1.5, -0.5]), spectrum=np.array([0.0, 1.0]))

    def test_from_pure_spectrum_and_hermiticity(self, rng):
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        rho = DensityOperator.from_pure(v / np.linalg.norm(v))
        assert np.abs(rho.spectrum - np.linalg.eigvalsh(rho.matrix)).max() < 1e-12
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_from_pure_names_the_norm_inside_the_norm_window(self):
        # the norm window (1e-8) is wider than the trace tolerance (1e-10):
        # the squared norm is checked against the latter, with the norm message
        with pytest.raises(ValidationError, match=r"state vector norm 1\.000000005 deviates"
                                                  r".*squared norm is off by 1\.000e-08"):
            DensityOperator.from_pure(np.array([1.0 + 5e-9, 0.0]))

    @pytest.mark.parametrize("tolerance,accepted,refused", [
        (1e-10, 1.0 + 4e-11, 1.0 + 6e-11),  # the tolerance on the squared norm binds
        (1e-6, 1.0 + 9e-9, 1.0 + 2e-8),     # NORM_TOL on the norm binds
    ])
    def test_from_pure_accepts_the_same_vectors(self, tolerance, accepted, refused):
        previous = policy.set_tolerance(tolerance)
        try:
            assert DensityOperator.from_pure(np.array([accepted, 0.0])).dim == 2
            with pytest.raises(ValidationError, match="state vector norm"):
                DensityOperator.from_pure(np.array([refused, 0.0]))
        finally:
            policy.set_tolerance(previous)


class TestLazySpectrum:
    """A state proved positive by a factorization finds its spectrum on first read."""

    def test_spectrum_is_found_once_on_first_read(self, decomposed_sizes, rng):
        rho = DensityOperator(random_density(256, rng).matrix)
        assert decomposed_sizes["eigvalsh"] == [] and "spectrum" not in vars(rho)
        w = rho.spectrum
        assert decomposed_sizes["eigvalsh"] == [256]
        assert rho.spectrum is w and not w.flags.writeable
        assert decomposed_sizes["eigvalsh"] == [256]
        # bit for bit the eager value: the same call on the same frozen array
        assert np.array_equal(w, np.linalg.eigvalsh(rho.matrix))

    def test_survives_copy_deepcopy_and_pickle(self, rng):
        m = random_density(12, rng).matrix
        for read in (False, True):  # before, then after the first read of the spectrum
            for original in (DensityOperator(m), CompositeState(m, (3, 4))):
                want = np.linalg.eigvalsh(original.matrix)
                if read:
                    assert np.array_equal(original.spectrum, want)
                for clone in (copy.copy(original), copy.deepcopy(original),
                              pickle.loads(pickle.dumps(original))):
                    assert type(clone) is type(original)
                    assert ("spectrum" in vars(clone)) == read
                    assert np.array_equal(clone.matrix, original.matrix)
                    assert np.array_equal(clone.spectrum, want)
                    if isinstance(original, CompositeState):
                        assert clone.dims == (3, 4) and clone.dim == 12

    @pytest.mark.parametrize("cls", [DensityOperator, CompositeState])
    def test_half_built_instance_raises_attribute_error(self, cls):
        # as copy and pickle see an instance before its fields are restored:
        # every read is an AttributeError, none recurses
        bare = object.__new__(cls)
        for name in ("spectrum", "matrix", "dims", "other"):
            with pytest.raises(AttributeError, match=repr(name) if name != "spectrum"
                               else "'matrix'"):
                getattr(bare, name)


class TestMultimodeState:
    def test_unnormalized_coefficients_allowed(self):
        state = MultimodeState.in_standard_basis(np.array([2.0, 0.0]))
        assert abs(state.gram() - 4.0) < 1e-14

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            MultimodeState.in_standard_basis(np.zeros(3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_overflowing_norm_rejected(self):
        # each coefficient is finite, but <B|B> = 2e310 is not; the state
        # once passed and left an inf window to the probabilities built on it
        with pytest.raises(ValidationError, match=r"<B\|B> = inf is not finite"):
            MultimodeState.in_standard_basis([1e155, 1e155])
        assert MultimodeState.in_standard_basis([1e153, 1e153]).gram() == 2e306

    def test_vector_combines_basis_columns(self, rng):
        obs = random_observable(3, rng)
        b = np.array([1.0, 1j, 0.0])
        state = MultimodeState(b, obs)
        want = obs.eigenbasis[:, 0] + 1j * obs.eigenbasis[:, 1]
        assert np.abs(state.vector() - want).max() < 1e-14

    def test_plus_state_interference_splits(self):
        # |B> = (|0> + |1>)/sqrt(2) against rho = |B><B|: the event is
        # certain, but each half only arrives via interference
        rho = DensityOperator(np.ones((2, 2)) / 2.0)
        state = MultimodeState.in_standard_basis(np.array([1.0, 1.0]) / np.sqrt(2.0))
        out = multimode_probability(rho, state)
        assert abs(out.p - 1.0) < 1e-14
        assert abs(out.classical - 0.5) < 1e-14
        assert abs(out.quantum - 0.5) < 1e-14

    def test_interference_can_suppress(self):
        # orthogonal proposition: classical part unchanged, interference
        # cancels it exactly
        rho = DensityOperator(np.ones((2, 2)) / 2.0)
        state = MultimodeState.in_standard_basis(np.array([1.0, -1.0]) / np.sqrt(2.0))
        out = multimode_probability(rho, state)
        assert abs(out.p) < 1e-14
        assert abs(out.classical - 0.5) < 1e-14
        assert abs(out.quantum + 0.5) < 1e-14

    def test_single_mode_has_no_interference(self, rng):
        rho = random_density(3, rng)
        state = MultimodeState.in_standard_basis(np.array([0.0, 1.0, 0.0]))
        out = multimode_probability(rho, state)
        assert out.quantum == 0.0
        assert abs(out.p - rho.matrix[1, 1].real) < 1e-14

    def test_decomposition_consistency(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho = random_density(dim, rng)
            b = random_multimode_coefficients(dim, rng)
            obs = random_observable(dim, rng)
            state = MultimodeState(b, obs)
            out = multimode_probability(rho, state)
            assert abs(out.p - (out.classical + out.quantum)) < 1e-10
            assert -1e-10 <= out.p <= state.gram() + 1e-10
            assert out.classical >= -1e-12

    def test_probability_window_scales_with_gram(self, rng):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        state = MultimodeState.in_standard_basis(np.array([3.0, 0.0]))
        out = multimode_probability(rho, state)
        assert abs(out.p - 9.0) < 1e-12

    def test_dimension_mismatch(self, rng):
        rho = random_density(2, rng)
        state = MultimodeState.in_standard_basis(np.ones(3))
        with pytest.raises(ValidationError):
            multimode_probability(rho, state)


class TestGeneralizedProposition:
    def test_from_state_weight_and_idempotence(self, rng):
        b = np.array([1.0, 2.0], dtype=complex)
        state = MultimodeState.in_standard_basis(b)
        prop = GeneralizedProposition.from_state(state)
        assert abs(prop.weight() - 5.0) < 1e-12
        # P^2 = <B|B> P for a rank-one weighted projector
        m = prop.operator
        assert np.abs(m @ m - 5.0 * m).max() < 1e-10

    def test_rank_above_one_rejected(self):
        with pytest.raises(ValidationError):
            GeneralizedProposition(np.diag([1.0, 1.0]))

    def test_zero_operator_rejected(self):
        with pytest.raises(ValidationError):
            GeneralizedProposition(np.zeros((2, 2)))

    def test_only_operators_from_outside_are_decomposed(self, rng, monkeypatch):
        sizes = []
        original = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        state = MultimodeState(random_multimode_coefficients(64, rng), random_observable(64, rng))
        built = GeneralizedProposition.from_state(state)
        assert sizes == []
        GeneralizedProposition(built.operator)
        assert sizes == [64]
        assert not built.operator.flags.writeable
        # the closed form passes the checks it skips
        w = original(built.operator)
        assert np.abs(w[:-1]).max() <= 1e-12 * state.gram()
        assert abs(w[-1] - state.gram()) <= 1e-12 * state.gram()

    @pytest.mark.parametrize("coefficients,message", [
        ([1e-6, 0.0], "numerically"),
        ([1e200, 0.0], "non-finite entries"),
    ])
    def test_from_state_keeps_its_weight_and_finiteness_checks(self, coefficients, message):
        # MultimodeState refuses an overflowing <B|B> when it is built, so the
        # coefficients are set afterwards to reach the check from_state keeps
        state = MultimodeState.in_standard_basis(np.array([1.0, 0.0]))
        object.__setattr__(state, "coefficients", np.array(coefficients, dtype=complex))
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match=message):
            GeneralizedProposition.from_state(state)


class TestPovm:
    def mub_members(self):
        """Four rank-one members built from two mutually unbiased qubit bases."""
        vecs = [
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([1.0, 1.0]) / np.sqrt(2.0),
            np.array([1.0, -1.0]) / np.sqrt(2.0),
        ]
        scale = 1.0 / np.sqrt(2.0)
        return [
            GeneralizedProposition.from_state(
                MultimodeState.in_standard_basis(scale * v)
            )
            for v in vecs
        ]

    def test_unbiased_pair_resolves_identity(self):
        report = validate_povm(self.mub_members())
        assert report.passed
        assert report.residual <= 1e-12

    def test_probabilities_sum_to_one(self, rng):
        rho = random_density(2, rng)
        report = validate_povm(self.mub_members(), rho)
        assert report.probabilities is not None
        assert abs(report.total_probability - 1.0) < 1e-10
        assert all(p >= -1e-12 for p in report.probabilities)

    def test_probabilities_match_the_matmul_trace_at_d64(self, rng):
        u = random_unitary(64, rng)
        members = [GeneralizedProposition.from_state(MultimodeState.in_standard_basis(u[:, k]))
                   for k in range(64)]
        rho = random_density(64, rng)
        report = validate_povm(members, rho)
        want = [np.trace(rho.matrix @ member.operator).real for member in members]
        assert np.abs(np.subtract(report.probabilities, want)).max() < 1e-14

    def test_member_probabilities_stay_in_the_window(self):
        # passes the state checks at the default tolerance, but its first
        # member probability lies above 1 + PROBABILITY_TOL
        rho = DensityOperator(np.diag([1 + 5e-11, -5e-11]))
        members = [GeneralizedProposition(np.diag([1.0, 0.0])),
                   GeneralizedProposition(np.diag([0.0, 1.0]))]
        with pytest.raises(NumericContractError, match=r"member probability\[0\]"):
            validate_povm(members, rho)

    def test_unscaled_family_fails(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)]
        members = [
            GeneralizedProposition.from_state(MultimodeState.in_standard_basis(v))
            for v in vecs
        ]
        report = validate_povm(members)
        assert not report.passed
        assert report.residual > 0.5

    def test_family_constructor_enforces_resolution(self):
        good = PovmFamily(self.mub_members())
        assert len(good) == 4
        with pytest.raises(ValidationError):
            PovmFamily([GeneralizedProposition(np.diag([1.0, 0.0]))])

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            validate_povm([])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_orthonormal_basis_is_povm(self, seed):
        gen = np.random.default_rng(seed)
        u = random_unitary(3, gen)
        members = [
            GeneralizedProposition.from_state(
                MultimodeState.in_standard_basis(u[:, k])
            )
            for k in range(3)
        ]
        assert validate_povm(members).passed

    def test_family_from_states(self):
        h = np.sqrt(0.5)
        states = [MultimodeState.in_standard_basis(v) for v in ([h, h], [h, -h])]
        family = PovmFamily.from_states(states)
        assert len(family) == 2 and family.dim == 2
        for member, state in zip(family.members, states):
            v = state.vector()
            assert np.array_equal(member.operator, np.outer(v, v.conj()))
