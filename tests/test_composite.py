"""Composite systems: joint events, marginals, prospects, interference."""

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
    DimensionMismatchError,
    MultimodeState,
    NumericContractError,
    Prospect,
    ProspectOperator,
    ProspectProbability,
    SizeLimitError,
    ValidationError,
    ZeroProbabilityError,
    bayes_conditional,
    bell_state,
    born_distribution,
    conditional_under_uncertainty,
    entanglement_production,
    joint_probability,
    joint_table,
    marginals,
    multimode_probability,
    prospect_lattice,
    prospect_operator,
    prospect_probability,
)
from qprospect import channels, policy, qcore
from qprospect.events import _trusted

from helpers import (
    random_amplitudes,
    random_composite,
    random_density,
    random_multimode_coefficients,
    random_observable,
    traced_peak,
)


def witness_state():
    """Entangled two-qubit pure state with one empty amplitude."""
    c = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.sqrt(3.0)
    return CompositeState.from_amplitudes(c)


class TestCompositeState:
    def test_from_amplitudes_elementwise(self, rng):
        c = random_amplitudes(2, 3, rng)
        state = CompositeState.from_amplitudes(c)
        for m in range(2):
            for n in range(2):
                for alpha in range(3):
                    for beta in range(3):
                        want = c[m, alpha] * np.conj(c[n, beta])
                        assert abs(state.element(m, alpha, n, beta) - want) < 1e-13

    def test_from_amplitudes_requires_normalization(self):
        with pytest.raises(ValidationError):
            CompositeState.from_amplitudes(np.ones((2, 2)))

    def test_block_slices_match_elements(self, rng):
        state = random_composite(2, 3, rng)
        blk = state.block(0, 1)
        assert blk.shape == (3, 3)
        assert abs(blk[2, 1] - state.element(0, 2, 1, 1)) < 1e-15

    def test_product_factorizes(self, rng):
        rho_a = random_density(2, rng)
        rho_b = random_density(3, rng)
        state = CompositeState.product(rho_a, rho_b)
        assert np.abs(state.reduced(0).matrix - rho_a.matrix).max() < 1e-12
        assert np.abs(state.reduced(1).matrix - rho_b.matrix).max() < 1e-12

    def test_element_indices_are_range_checked(self):
        state = CompositeState.from_amplitudes([[0.6, 0.0], [0.8, 0.0]])
        assert state.element(1, 0, 1, 0) == pytest.approx(0.64)
        # each of these once aliased to <1 0|rho|1 0> or ended in a numpy IndexError
        for indices in [(0, 2, 0, 2), (-1, 0, -1, 0), (2, 0, 2, 0), (0, 0, 0, 2), (0, 0, 2, 0),
                        (0, -1, 0, 0), (0, 0, -1, 0)]:
            with pytest.raises(ValidationError, match=re.escape(
                    f"element indices {indices} out of range for dims (2, 2)")):
                state.element(*indices)

    def test_reduced_keep_is_checked(self, rng):
        state = random_composite(2, 3, rng)
        with pytest.raises(ValidationError, match="^keep must be 0 or 1, got 2$"):
            state.reduced(2)

    def test_dims_must_divide_matrix(self):
        with pytest.raises(ValidationError):
            CompositeState(np.eye(6) / 6.0, (2, 2))

    @pytest.mark.parametrize("shape", [(65, 64), (1000, 1000)])
    def test_oversized_amplitudes_rejected_before_the_matrix_is_built(self, shape):
        c = np.ones(shape) / np.sqrt(shape[0] * shape[1])

        def refuse():
            with pytest.raises(SizeLimitError,
                               match=f"composite state has size {c.size}, above the cap 4096"):
                CompositeState.from_amplitudes(c)

        # a few copies of the amplitudes, not the (c.size)^2 complex matrix
        assert traced_peak(refuse) < 8 * 16 * c.size

    def test_spectrum_is_kept_and_handed_on(self, rng):
        state = random_composite(3, 4, rng)
        assert np.abs(state.spectrum - np.linalg.eigvalsh(state.matrix)).max() < 1e-12
        assert "spectrum" not in repr(state)
        # a composite state is itself the DensityOperator it hands on
        assert isinstance(state, DensityOperator)
        with pytest.raises(TypeError):
            CompositeState(state.matrix, (3, 4), spectrum=state.spectrum)

    def test_is_accepted_where_a_density_operator_is(self, rng):
        state = random_composite(3, 4, rng)
        obs = random_observable(12, rng)
        plain = DensityOperator(state.matrix)
        assert np.array_equal(born_distribution(state, obs), born_distribution(plain, obs))
        assert state.dim == 12 and state.dims == (3, 4)

    @pytest.mark.parametrize("build", [
        lambda: CompositeState.from_pure(np.array([0.6, 0.8])),
        lambda: CompositeState.maximally_mixed(4),
    ])
    def test_inherited_constructors_build_a_plain_density_operator(self, build):
        rho = build()
        assert type(rho) is DensityOperator
        assert not hasattr(rho, "dims")


class TestEachStateValidatedOnce:
    """A state is decomposed once when built from outside, never when pure."""

    def test_pure_states_are_not_decomposed(self, decomposed_sizes, rng):
        states = [CompositeState.from_amplitudes(random_amplitudes(32, 32, rng)), bell_state(32)]
        assert decomposed_sizes["eigvalsh"] == []
        for state in states:
            entanglement_production(state)
        # only the two 32 x 32 reductions of each state are validated
        assert decomposed_sizes["eigvalsh"] == [32, 32, 32, 32]

    def test_external_state_is_decomposed_once(self, decomposed_sizes, rng):
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        m = a @ a.conj().T
        state = CompositeState(m / np.trace(m), (16, 16))
        # factored, not decomposed
        assert decomposed_sizes == {"eigh": [], "eigvalsh": [], "cholesky": [256]}
        entanglement_production(state)
        entanglement_production(state)
        # the 256 x 256 spectrum on its first read, then kept; each reduction
        # is decomposed when built, and never factored
        assert decomposed_sizes["eigvalsh"].count(256) == 1
        assert decomposed_sizes == {"eigh": [], "eigvalsh": [16, 16, 256, 16, 16],
                                    "cholesky": [256]}

    def test_stored_spectra_match_eigvalsh(self, rng):
        pure = CompositeState.from_amplitudes(random_amplitudes(8, 16, rng))
        states = [pure, bell_state(8), random_composite(4, 8, rng),
                  pure.reduced(0), pure.reduced(1)]
        for state in states:
            assert np.abs(state.spectrum - np.linalg.eigvalsh(state.matrix)).max() < 1e-12

    def test_trusted_pure_state_passes_the_skipped_checks(self, rng):
        for state in (CompositeState.from_amplitudes(random_amplitudes(16, 16, rng)),
                      bell_state(16)):
            m = state.matrix
            # one rounded product per entry: a few ulp, far inside the tolerance
            assert np.abs(m - m.conj().T).max() <= 1e-15
            assert np.linalg.eigvalsh(m).min() >= -policy.tolerance()


class TestStateMatrixScannedOnce:
    """The reductions of a validated state skip the full-size finiteness scan."""

    @pytest.fixture
    def scanned_shapes(self, monkeypatch):
        shapes = []
        original = qcore.as_complex_matrix

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(qcore, "as_complex_matrix", counting)
        return shapes

    def test_reductions_of_a_state_do_not_rescan_it(self, scanned_shapes, rng):
        state = CompositeState.from_amplitudes(random_amplitudes(32, 32, rng))
        b = MultimodeState.in_standard_basis(random_multimode_coefficients(32, rng))
        scanned_shapes.clear()
        marginals(state)
        entanglement_production(state)
        conditional_under_uncertainty(state, Prospect(3, b))
        assert (1024, 1024) not in scanned_shapes
        # the counter counts: the public function scans a raw matrix in full
        qcore.partial_trace(state.matrix, state.dims, 0)
        assert scanned_shapes.count((1024, 1024)) == 1

    @pytest.mark.parametrize("dims", [(2, 2), (8, 8), (16, 16), (32, 32)])
    def test_bit_identical_to_the_public_route(self, dims, rng, monkeypatch):
        pure = CompositeState.from_amplitudes(random_amplitudes(*dims, rng))
        states = [pure]
        if dims[0] * dims[1] <= 64:
            states.append(random_composite(*dims, rng))
        kernel, seen = qcore._partial_trace, []

        def recording(*args):
            seen.append(kernel(*args))
            return seen[-1]

        monkeypatch.setattr(qcore, "_partial_trace", recording)
        for state in states:
            public = [qcore.partial_trace(state.matrix, dims, keep) for keep in (0, 1)]
            for keep in (0, 1):
                got = state.reduced(keep).matrix
                if state is pure:
                    # C C^dag and (C^dag C)^T: a matrix product, a few ulp off the einsum
                    assert np.abs(got - public[keep]).max() <= 1e-15
                else:
                    assert np.array_equal(got, public[keep])
            for got, want in zip(channels.readout(state, dims), public):
                assert np.array_equal(got.matrix, want)
            seen.clear()
            pa, pb = marginals(state)
            table = joint_table(state)
            assert np.array_equal(pa, table.sum(axis=1)) and np.array_equal(pb, table.sum(axis=0))
            da, db = dims
            assert np.array_equal(table, qcore.real_probabilities(
                state.matrix.diagonal().reshape(dims)))
            for m, n in ((0, 0), (da - 1, 0), (0, da - 1)):
                assert np.array_equal(state.block(m, n),
                                      state.matrix[m * db:(m + 1) * db, n * db:(n + 1) * db])
            if state is pure:
                assert seen == []  # read from the amplitudes, not by the kernel
            else:
                # the cross-check read the very reductions the public route gives
                assert len(seen) == 2 and all(map(np.array_equal, seen, public))


def dense_twin(state):
    """The state of ``state.matrix`` on the dense route, checked by the constructor
    up to D = 256; above, trusted with the kept spectrum, because one eigvalsh at
    D = 4096 takes tens of seconds."""
    if state.dim <= 256:
        return CompositeState(state.matrix, state.dims)
    return _trusted(CompositeState, state.matrix, state.spectrum, dims=state.dims)


def close(got, want):
    """Within 1e-15, relative to values above 1 (an epsilon of a few units)."""
    return np.all(np.abs(np.subtract(got, want)) <= 1e-15 * np.maximum(1.0, np.abs(want)))


class TestFactoredPureState:
    """A pure state built from amplitudes reads as the dense state of its own matrix does."""

    @pytest.fixture(params=[(2, 2), (3, 5), (16, 16), (64, 64)], ids=str)
    def case(self, request):
        dims = request.param
        rng = np.random.default_rng(1700 + dims[0] * dims[1])
        c = random_amplitudes(*dims, rng)
        b = MultimodeState(random_multimode_coefficients(dims[1], rng),
                           random_observable(dims[1], rng, "B"))
        return c, CompositeState.from_amplitudes(c), b

    def test_matrix_is_built_on_first_read(self, case):
        c, state, _ = case
        assert "matrix" not in vars(state) and state.dim == c.size
        v = c.reshape(-1)
        m = state.matrix
        assert not m.flags.writeable
        for rows in np.array_split(np.arange(v.size), 8):  # one D x D matrix at a time
            assert np.array_equal(m[rows], np.outer(v[rows], v.conj()))
        assert state.matrix is m  # kept
        assert state.spectrum[-1] == m.trace().real and not state.spectrum[:-1].any()

    def test_tables_blocks_and_lattices_are_bit_identical(self, case):
        _, state, b = case
        dense = dense_twin(state)
        da, db = state.dims
        assert np.array_equal(joint_table(state), joint_table(dense))
        corners = {(0, 0), (da - 1, 0), (0, da - 1), (da - 1, da - 1)}
        for m, n in corners:
            assert np.array_equal(state.block(m, n), dense.block(m, n))
            assert not state.block(m, n).flags.writeable
            for alpha, beta in {(0, db - 1), (db - 1, 0), (db // 2, db // 2)}:
                assert state.element(m, alpha, n, beta) == dense.element(m, alpha, n, beta)
            assert joint_probability(state, m, db - 1) == joint_probability(dense, m, db - 1)
        for normalize in (False, True):
            got, want = (prospect_lattice(s, b, normalize) for s in (state, dense))
            assert [(v.p, v.f, v.q) for v in got] == [(v.p, v.f, v.q) for v in want]

    def test_reductions_agree_within_1e_15(self, case):
        _, state, b = case
        dense = dense_twin(state)
        for keep in (0, 1):
            assert close(state.reduced(keep).matrix, dense.reduced(keep).matrix)
        for got, want in zip(marginals(state), marginals(dense)):
            assert close(got, want)
        got, want = entanglement_production(state), entanglement_production(dense)
        assert close(got.norms, want.norms) and close(got.epsilon, want.epsilon)
        assert close(got.spectral_norms, want.spectral_norms)
        assert close(got.epsilon_spectral, want.epsilon_spectral)
        prospect = Prospect(state.dims[0] // 2, b)
        assert close(conditional_under_uncertainty(state, prospect),
                     conditional_under_uncertainty(dense, prospect))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (16, 16)])
    def test_survives_copy_deepcopy_and_pickle(self, dims, rng):
        c = random_amplitudes(*dims, rng)
        state = CompositeState.from_amplitudes(c)
        table, built = joint_table(state), np.array(state.matrix)
        for original in (CompositeState.from_amplitudes(c), state):  # unbuilt, then built
            for clone in (copy.copy(original), copy.deepcopy(original),
                          pickle.loads(pickle.dumps(original))):
                assert clone.dims == state.dims and clone.dim == state.dim
                assert np.array_equal(clone.spectrum, state.spectrum)
                assert np.array_equal(joint_table(clone), table)
                assert np.array_equal(clone.matrix, built)

    def test_first_matrix_read_is_not_checked(self, monkeypatch, rng):
        c = random_amplitudes(4, 4, rng) * (1.0 + 5e-13)  # total weight 1 + 1e-12
        state = CompositeState.from_amplitudes(c)
        calls = []
        original = qcore.require_within
        monkeypatch.setattr(qcore, "require_within",
                            lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        with policy.tolerance_scope(1e-14):
            m = state.matrix
            assert calls == []
            with pytest.raises(ValidationError, match="total weight"):
                CompositeState.from_amplitudes(c)  # the scope refuses a new state
        assert np.array_equal(m, np.outer(c.reshape(-1), c.reshape(-1).conj()))

    def test_peak_at_max_dim_is_far_below_one_matrix(self, rng):
        c = random_amplitudes(64, 64, rng)
        b = MultimodeState(random_multimode_coefficients(64, rng), random_observable(64, rng))

        def read_everything():
            state = CompositeState.from_amplitudes(c)
            joint_table(state)
            state.block(63, 0)
            state.element(1, 2, 3, 4)
            prospect_lattice(state, b, normalize=False)
            prospect_lattice(state, b)
            state.reduced(0)
            state.reduced(1)
            marginals(state)
            entanglement_production(state)
            conditional_under_uncertainty(state, Prospect(7, b))
            assert "matrix" not in vars(state)

        # one 4096 x 4096 complex matrix is 256 MiB
        assert traced_peak(read_everything) < 32 * 2**20

    @pytest.mark.parametrize("mutation", ["transpose C", "swap keep"])
    def test_marginal_routes_catch_a_wrong_reduction(self, mutation, rng, monkeypatch):
        state = CompositeState.from_amplitudes(random_amplitudes(8, 8, rng))
        marginals(state)  # the true routes agree
        reduction = CompositeState._reduction

        def mutated(self, keep):
            if mutation == "swap keep":
                return reduction(self, 1 - keep)
            c = self._amplitudes.T
            return c @ c.conj().T if keep == 0 else c.T @ c.conj()

        monkeypatch.setattr(CompositeState, "_reduction", mutated)
        with pytest.raises(NumericContractError, match="marginal routes disagree"):
            marginals(state)


class TestJointEvents:
    def test_bell_table_is_diagonal(self):
        for m in (2, 3):
            table = joint_table(bell_state(m))
            assert np.abs(table - np.eye(m) / m).max() < 1e-14

    def test_single_probability_matches_table(self, rng):
        state = random_composite(2, 3, rng)
        table = joint_table(state)
        for n in range(2):
            for alpha in range(3):
                assert abs(joint_probability(state, n, alpha) - table[n, alpha]) < 1e-13

    def test_table_sums_to_one(self, rng):
        state = random_composite(3, 3, rng)
        assert abs(joint_table(state).sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("diagonal,entry,message", [
        ([0.5, 0.5, 1.5, -0.5], (1, 0), "= 1.5 lies outside"),
        ([0.5, 0.5j, 0.0, 0.0], (0, 1), "has imaginary residue 5.000e-01"),
    ])
    def test_table_window_names_the_entry(self, diagonal, entry, message):
        state = object.__new__(CompositeState)  # unvalidated, to reach the contract
        object.__setattr__(state, "matrix", np.diag(np.array(diagonal, dtype=complex)))
        object.__setattr__(state, "dims", (2, 2))
        with pytest.raises(NumericContractError) as caught:
            joint_table(state)
        assert str(caught.value).startswith(
            f"joint probability[{entry[0]}, {entry[1]}] {message}")
        with pytest.raises(NumericContractError):
            joint_probability(state, *entry)

    def test_product_state_joint_factorizes(self, rng):
        rho_a = random_density(2, rng)
        rho_b = random_density(3, rng)
        state = CompositeState.product(rho_a, rho_b)
        table = joint_table(state)
        pa = rho_a.matrix.diagonal().real
        pb = rho_b.matrix.diagonal().real
        assert np.abs(table - np.outer(pa, pb)).max() < 1e-12

    def test_out_of_range_indices(self, rng):
        state = random_composite(2, 2, rng)
        with pytest.raises(ValidationError):
            joint_probability(state, 2, 0)


class TestMarginals:
    def test_two_routes_agree(self, rng):
        state = random_composite(3, 4, rng)
        pa, pb = marginals(state)
        assert abs(pa.sum() - 1.0) < 1e-10
        assert abs(pb.sum() - 1.0) < 1e-10

    def test_bell_marginals_are_flat(self):
        pa, pb = marginals(bell_state(4))
        assert np.abs(pa - 0.25).max() < 1e-14
        assert np.abs(pb - 0.25).max() < 1e-14

    def test_bayes_conditional_columns_normalize(self, rng):
        state = random_composite(3, 3, rng)
        for alpha in range(3):
            total = sum(bayes_conditional(state, n, alpha) for n in range(3))
            assert abs(total - 1.0) < 1e-10

    def test_bayes_on_impossible_event(self):
        rho_a = DensityOperator.maximally_mixed(2)
        rho_b = DensityOperator(np.diag([1.0, 0.0]))
        state = CompositeState.product(rho_a, rho_b)
        with pytest.raises(ZeroProbabilityError):
            bayes_conditional(state, 0, 1)

    def test_correlated_state_is_asymmetric(self):
        # conditioning direction matters when the factors have unequal
        # marginals: p(A_0|B_0) != p(B_0|A_0) in general
        c = np.array([[np.sqrt(0.5), 0.0], [np.sqrt(0.3), np.sqrt(0.2)]])
        state = CompositeState.from_amplitudes(c)
        p_a_given_b = bayes_conditional(state, 0, 0)
        pa, pb = marginals(state)
        p_b_given_a = joint_probability(state, 0, 0) / pa[0]
        assert abs(p_a_given_b - p_b_given_a) > 0.1


class TestProspectRaw:
    def test_witness_interference_value(self):
        state = witness_state()
        b = MultimodeState.in_standard_basis(np.array([1.0, 1.0]))
        out = prospect_probability(state, Prospect(0, b), normalize=False)
        assert abs(out.p - 4.0 / 3.0) < 1e-12
        assert abs(out.f - 2.0 / 3.0) < 1e-12
        assert abs(out.q - 2.0 / 3.0) < 1e-12

    def test_witness_second_row_is_classical(self):
        state = witness_state()
        b = MultimodeState.in_standard_basis(np.array([1.0, 1.0]))
        out = prospect_probability(state, Prospect(1, b), normalize=False)
        assert abs(out.p - 1.0 / 3.0) < 1e-12
        assert abs(out.q) < 1e-12

    def test_bell_uniform_prospect_has_no_interference(self):
        state = bell_state(3)
        b = MultimodeState.in_standard_basis(np.ones(3) / np.sqrt(3.0))
        for n in range(3):
            out = prospect_probability(state, Prospect(n, b), normalize=False)
            assert abs(out.p - 1.0 / 9.0) < 1e-13
            assert abs(out.q) < 1e-13

    def test_matches_operator_trace(self, rng):
        for _ in range(5):
            state = random_composite(2, 3, rng)
            b = MultimodeState.in_standard_basis(random_multimode_coefficients(3, rng))
            for n in range(2):
                pro = Prospect(n, b)
                out = prospect_probability(state, pro, normalize=False)
                op = prospect_operator(pro, state.dims).operator
                want = np.trace(state.matrix @ op).real
                assert abs(out.p - want) < 1e-10 * max(1.0, b.gram())

    def test_decomposition_is_exact(self, rng):
        state = random_composite(3, 2, rng)
        b = MultimodeState.in_standard_basis(random_multimode_coefficients(2, rng))
        out = prospect_probability(state, Prospect(1, b), normalize=False)
        assert abs(out.p - (out.f + out.q)) < 1e-12 * max(1.0, b.gram())


class TestProspectNormalized:
    def test_witness_lattice_values(self):
        state = witness_state()
        b = MultimodeState.in_standard_basis(np.array([1.0, 1.0]))
        lattice = prospect_lattice(state, b)
        assert abs(lattice[0].p - 0.8) < 1e-12
        assert abs(lattice[1].p - 0.2) < 1e-12
        assert abs(lattice[0].f - 2.0 / 3.0) < 1e-12
        assert abs(lattice[0].q - 2.0 / 15.0) < 1e-12
        assert abs(lattice[1].q + 2.0 / 15.0) < 1e-12

    def test_bell_lattice_is_uniform(self):
        state = bell_state(3)
        b = MultimodeState.in_standard_basis(np.ones(3))
        for out in prospect_lattice(state, b):
            assert abs(out.p - 1.0 / 3.0) < 1e-13
            assert abs(out.f - 1.0 / 3.0) < 1e-13
            assert abs(out.q) < 1e-13

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lattice_sums(self, seed):
        gen = np.random.default_rng(seed)
        da, db = int(gen.integers(2, 5)), int(gen.integers(2, 5))
        state = random_composite(da, db, gen)
        b = MultimodeState.in_standard_basis(random_multimode_coefficients(db, gen))
        lattice = prospect_lattice(state, b)
        assert abs(sum(v.p for v in lattice) - 1.0) < 1e-10
        assert abs(sum(v.f for v in lattice) - 1.0) < 1e-10
        assert abs(sum(v.q for v in lattice)) < 1e-10

    def test_normalized_entry_matches_lattice(self, rng):
        state = random_composite(3, 3, rng)
        b = MultimodeState.in_standard_basis(random_multimode_coefficients(3, rng))
        lattice = prospect_lattice(state, b)
        single = prospect_probability(state, Prospect(2, b))
        assert abs(single.p - lattice[2].p) < 1e-14
        assert abs(single.q - lattice[2].q) < 1e-14

    def test_degenerate_lattice_rejected(self):
        rho_a = DensityOperator.maximally_mixed(2)
        rho_b = DensityOperator(np.diag([1.0, 0.0]))
        state = CompositeState.product(rho_a, rho_b)
        dead = MultimodeState.in_standard_basis(np.array([0.0, 1.0]))
        with pytest.raises(ZeroProbabilityError):
            prospect_lattice(state, dead)

    def test_contract_violations_rejected(self):
        with pytest.raises(NumericContractError):
            ProspectProbability(0.5, 0.3, 0.1)
        with pytest.raises(NumericContractError):
            ProspectProbability(1.2, 1.0, 0.2, normalized=True)


class TestLatticeAtScale:
    @pytest.mark.parametrize("dims", [(16, 16), (64, 64)])
    def test_normalized_lattice_is_a_distribution(self, dims):
        rng = np.random.default_rng(1664 + dims[1])
        state = CompositeState.from_amplitudes(random_amplitudes(*dims, rng))
        b = MultimodeState.in_standard_basis(random_multimode_coefficients(dims[1], rng))
        lattice = prospect_lattice(state, b)
        assert len(lattice) == dims[0]
        assert abs(sum(e.q for e in lattice)) <= 1e-10
        assert abs(sum(e.p for e in lattice) - 1.0) <= 1e-12
        assert abs(sum(e.f for e in lattice) - 1.0) <= 1e-12


class TestLatticeBlocks:
    def test_every_block_read_at_once_matches_the_block_route(self, rng):
        state = random_composite(8, 32, rng)
        b = MultimodeState(random_multimode_coefficients(32, rng), random_observable(32, rng))
        lattice = prospect_lattice(state, b, normalize=False)
        e, coeff = b.basis.eigenbasis, b.coefficients
        upper = np.triu(np.ones((32, 32), dtype=bool), k=1)
        for n, value in enumerate(lattice):
            m = e.conj().T @ state.block(n, n) @ e
            f = sum(abs(coeff[a]) ** 2 * m[a, a].real for a in range(32))
            q = sum(2.0 * (np.conj(coeff[a]) * (m[a, upper[a]] @ coeff[upper[a]])).real
                    for a in range(32))
            want_p = np.trace(state.matrix @ prospect_operator(Prospect(n, b), (8, 32)).operator)
            assert abs(value.p - want_p.real) < 1e-12 * b.gram()
            assert abs(value.f - f) < 1e-12 * b.gram()
            assert abs(value.q - q) < 1e-12 * b.gram()
            single = prospect_probability(state, Prospect(n, b), normalize=False)
            assert (single.p, single.f, single.q) == (value.p, value.f, value.q)
            numerator = conditional_under_uncertainty(state, Prospect(n, b))
            assert numerator * multimode_probability(state.reduced(1), b).p == pytest.approx(
                value.p, rel=1e-12)

    def test_mismatched_multimode_dimension_is_typed(self, rng):
        state = random_composite(2, 3, rng)
        b = MultimodeState.in_standard_basis(np.ones(2))
        for call in (lambda: prospect_lattice(state, b),
                     lambda: prospect_probability(state, Prospect(0, b), normalize=False),
                     lambda: conditional_under_uncertainty(state, Prospect(0, b))):
            with pytest.raises(DimensionMismatchError, match="multimode state dim 2"):
                call()


class TestConditionalUnderUncertainty:
    def test_witness_value(self):
        state = witness_state()
        b = MultimodeState.in_standard_basis(np.array([1.0, 1.0]))
        got = conditional_under_uncertainty(state, Prospect(0, b))
        assert abs(got - 0.8) < 1e-12

    def test_agrees_with_normalized_prospect(self, rng):
        for _ in range(10):
            state = random_composite(2, 3, rng)
            b = MultimodeState.in_standard_basis(random_multimode_coefficients(3, rng))
            lattice = prospect_lattice(state, b)
            for n in range(2):
                got = conditional_under_uncertainty(state, Prospect(n, b))
                assert abs(got - lattice[n].p) < 1e-10

    def test_single_mode_reduces_to_bayes(self, rng):
        state = random_composite(3, 3, rng)
        b = MultimodeState.in_standard_basis(np.array([0.0, 1.0, 0.0]))
        for n in range(3):
            got = conditional_under_uncertainty(state, Prospect(n, b))
            assert abs(got - bayes_conditional(state, n, 1)) < 1e-10

    def test_product_state_forgets_the_condition(self, rng):
        rho_a = random_density(3, rng)
        rho_b = random_density(2, rng)
        state = CompositeState.product(rho_a, rho_b)
        b1 = MultimodeState.in_standard_basis(np.array([1.0, 1.0]))
        b2 = MultimodeState.in_standard_basis(np.array([1.0, -0.5j]))
        for n in range(3):
            got1 = conditional_under_uncertainty(state, Prospect(n, b1))
            got2 = conditional_under_uncertainty(state, Prospect(n, b2))
            want = rho_a.matrix[n, n].real
            assert abs(got1 - want) < 1e-10
            assert abs(got2 - want) < 1e-10

    def test_impossible_condition_rejected(self):
        rho_a = DensityOperator.maximally_mixed(2)
        rho_b = DensityOperator(np.diag([1.0, 0.0]))
        state = CompositeState.product(rho_a, rho_b)
        dead = MultimodeState.in_standard_basis(np.array([0.0, 1.0]))
        with pytest.raises(ZeroProbabilityError):
            conditional_under_uncertainty(state, Prospect(0, dead))


class TestProspectOperator:
    def test_scaled_idempotence(self, rng):
        b = MultimodeState.in_standard_basis(np.array([1.0, 2.0, 2.0]))
        op = prospect_operator(Prospect(1, b), (2, 3)).operator
        assert np.abs(op @ op - 9.0 * op).max() < 1e-10

    def test_index_out_of_range(self):
        b = MultimodeState.in_standard_basis(np.ones(2))
        with pytest.raises(ValidationError):
            prospect_operator(Prospect(5, b), (2, 2))

    @pytest.mark.parametrize("matrix,dims,error,message", [
        (np.triu(np.ones((4, 4))), (2, 2), ValidationError,
         "prospect operator is not Hermitian: max deviation 1.000e+00"),
        (np.diag([1.0, 0.0, 0.0, 0.0]), (2, 3), DimensionMismatchError,
         "operator dimension 4 does not match dims 2 x 3"),
        (np.diag([1.0, 0.0, 0.0, -0.5]), (2, 2), ValidationError,
         "prospect operator not positive: lowest eigenvalue -5.000e-01"),
        (np.diag([1.0, 0.0, 0.0, 0.5]), (2, 2), ValidationError,
         "prospect operator has rank > 1: second eigenvalue 5.000e-01"),
    ])
    def test_outside_operator_rejections(self, matrix, dims, error, message):
        with pytest.raises(error, match="^" + re.escape(message)):
            ProspectOperator(matrix, dims)

    def test_only_operators_from_outside_are_decomposed(self, decomposed_sizes, rng):
        b = MultimodeState(random_multimode_coefficients(8, rng), random_observable(8, rng))
        built = prospect_operator(Prospect(2, b), (4, 8))
        assert decomposed_sizes["eigvalsh"] == []
        ProspectOperator(built.operator, built.dims)
        assert decomposed_sizes["eigvalsh"] == [32]
        # the closed form P_n (x) |B><B| passes the skipped checks
        w = np.linalg.eigvalsh(built.operator)
        assert np.abs(w[:-1]).max() <= 1e-12 and abs(w[-1] - b.gram()) <= 1e-12 * b.gram()
        assert np.abs(built.operator - built.operator.conj().T).max() <= 1e-15 * b.gram()

    def test_outside_rank_one_operator_accepted(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        op = ProspectOperator(np.outer(v, v.conj()), (2, 3))
        assert op.dims == (2, 3)
        assert not op.operator.flags.writeable
