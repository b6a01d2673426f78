"""Single- and two-step measurement probabilities and state reduction."""

import types

import numpy as np
import pytest

from qprospect import (
    DensityOperator,
    DimensionMismatchError,
    NumericContractError,
    Observable,
    ValidationError,
    ZeroProbabilityError,
    apply_measurement,
    born_distribution,
    born_probability,
    disjoint_union_probability,
    expected_value,
    identity_chain_residual,
    kirkwood_form,
    kirkwood_table,
    luders_reduce,
    luders_transition,
    most_probable,
    projector_of,
    transition_matrix,
    wigner_distribution,
    wigner_table,
)
from qprospect import events, measure, qcore

from helpers import random_density, random_observable, traced_peak

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
Z = Observable(np.array([1.0, -1.0]), np.eye(2), "Z")
X = Observable(np.array([1.0, -1.0]), HADAMARD, "X")
PLUS = DensityOperator(np.ones((2, 2)) / 2.0)


@pytest.fixture
def calls(monkeypatch):
    """Names of the eigensolver and Cholesky calls and validated Projector builds, in order."""
    calls = []

    def counting(name, original):
        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return count

    for name in ("eigvalsh", "eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(events.Projector, "__post_init__",
                        counting("Projector", events.Projector.__post_init__))
    return calls


class TestBorn:
    def test_plus_state_is_unbiased_in_z(self):
        assert abs(born_probability(PLUS, Z, 0) - 0.5) < 1e-14
        assert abs(born_probability(PLUS, Z, 1) - 0.5) < 1e-14

    def test_plus_state_is_deterministic_in_x(self):
        assert abs(born_probability(PLUS, X, 0) - 1.0) < 1e-14
        assert born_probability(PLUS, X, 1) == 0.0

    def test_distribution_matches_sandwich(self, rng):
        rho = random_density(4, rng)
        obs = random_observable(4, rng)
        dist = born_distribution(rho, obs)
        for n in range(4):
            v = obs.eigenbasis[:, n]
            want = np.vdot(v, rho.matrix @ v).real
            assert abs(dist[n] - want) < 1e-12
        assert abs(dist.sum() - 1.0) < 1e-10

    def test_diagonal_mixture_reads_off_diagonal(self):
        rho = DensityOperator(np.diag([0.2, 0.3, 0.5]))
        dist = born_distribution(rho, Observable.standard(3, "N"))
        assert np.abs(dist - [0.2, 0.3, 0.5]).max() < 1e-14


class TestExpectedValue:
    def test_matches_trace_rule(self, rng):
        rho = random_density(3, rng)
        obs = random_observable(3, rng)
        got = expected_value(rho, obs)
        want = np.trace(rho.matrix @ obs.operator()).real
        assert abs(got - want) < 1e-10

    def test_pauli_z_on_plus_state(self):
        assert abs(expected_value(PLUS, Z)) < 1e-14
        assert abs(expected_value(PLUS, X) - 1.0) < 1e-14


class TestMostProbable:
    def test_picks_argmax(self):
        rho = DensityOperator(np.diag([0.2, 0.5, 0.3]))
        assert most_probable(rho, Observable.standard(3, "N")) == 1

    def test_tie_resolves_to_lowest_index(self):
        assert most_probable(DensityOperator.maximally_mixed(2), Z) == 0


class TestDisjointUnion:
    def test_additivity(self):
        rho = DensityOperator(np.diag([0.2, 0.3, 0.5]))
        obs = Observable.standard(3, "N")
        got = disjoint_union_probability(rho, obs, [0, 2])
        assert abs(got - 0.7) < 1e-14

    def test_full_union_is_certain(self, rng):
        rho = random_density(3, rng)
        obs = random_observable(3, rng)
        assert abs(disjoint_union_probability(rho, obs, [0, 1, 2]) - 1.0) < 1e-10

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            disjoint_union_probability(PLUS, Z, [0, 0])

    def test_empty_selection_rejected(self):
        with pytest.raises(ValidationError):
            disjoint_union_probability(PLUS, Z, [])


class TestLudersReduction:
    def test_plus_state_collapses_exactly(self):
        reduced = luders_reduce(PLUS, Z, 0)
        assert np.abs(reduced.matrix - np.diag([1.0, 0.0])).max() < 1e-14

    def test_reduction_is_idempotent(self, rng):
        rho = random_density(3, rng)
        obs = random_observable(3, rng)
        once = luders_reduce(rho, obs, 1)
        twice = luders_reduce(once, obs, 1)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-12

    def test_reduced_state_is_certain(self, rng):
        rho = random_density(3, rng)
        obs = random_observable(3, rng)
        reduced = luders_reduce(rho, obs, 2)
        assert abs(born_probability(reduced, obs, 2) - 1.0) < 1e-10

    def test_zero_probability_event_rejected(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(ZeroProbabilityError):
            luders_reduce(rho, Observable.standard(2, "N"), 1)

    def test_apply_measurement_bundle(self):
        out = apply_measurement(PLUS, Z, 1)
        assert abs(out.probability - 0.5) < 1e-14
        assert np.abs(out.post_state.matrix - np.diag([0.0, 1.0])).max() < 1e-14
        assert out.event == ("Z", 1)

    def test_reduction_is_not_decomposed(self, calls):
        # P rho P / p is the pure state |n><n|: no projector, no eigensolver
        d = 64
        rng = np.random.default_rng(6464)
        rho = random_density(d, rng)
        obs = random_observable(d, rng)
        calls.clear()
        out = apply_measurement(rho, obs, 5)
        assert calls == []
        v = obs.vector(5)
        DensityOperator(out.post_state.matrix).spectrum
        events.Projector(np.outer(v, v.conj()))
        assert calls == ["cholesky", "eigvalsh", "Projector"]  # the counters do count
        assert out.probability == born_probability(rho, obs, 5)
        assert np.array_equal(out.post_state.matrix, np.outer(v, v.conj()))
        # the closed-form spectrum is the one the skipped check would find
        w = np.linalg.eigvalsh(out.post_state.matrix)
        assert np.abs(w - out.post_state.spectrum).max() < 1e-12


class TestLudersTransition:
    def test_hadamard_pair_is_unbiased(self):
        for n in range(2):
            for alpha in range(2):
                assert abs(luders_transition(Z, n, X, alpha) - 0.5) < 1e-14

    def test_symmetry(self, rng):
        a = random_observable(3, rng, "A")
        b = random_observable(3, rng, "B")
        for n in range(3):
            for alpha in range(3):
                forward = luders_transition(a, n, b, alpha)
                backward = luders_transition(b, alpha, a, n)
                assert abs(forward - backward) < 1e-12

    def test_matrix_is_doubly_stochastic(self, rng):
        a = random_observable(4, rng, "A")
        b = random_observable(4, rng, "B")
        t = transition_matrix(a, b)
        assert np.abs(t.sum(axis=0) - 1.0).max() < 1e-10
        assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-10

    def test_same_basis_gives_identity(self, rng):
        a = random_observable(3, rng, "A")
        t = transition_matrix(a, a)
        assert np.abs(t - np.eye(3)).max() < 1e-12


class TestWigner:
    def test_plus_state_sequence_value(self):
        # rho = |+><+|, first X then Z: only the alpha=+ branch fires and
        # it splits evenly over the final Z outcomes
        got = wigner_table(PLUS, Z, X)
        assert got.shape == (2, 2)
        assert abs(got[0, 0] - 0.5) < 1e-14  # alpha=+ branch, n=0
        assert abs(got[0, 1] - 0.0) < 1e-14  # alpha=- never fires
        assert abs(got.sum() - 1.0) < 1e-12

    def test_factorizes_into_chain_rule(self, rng):
        rho = random_density(3, rng)
        a = random_observable(3, rng, "A")
        b = random_observable(3, rng, "B")
        table = wigner_table(rho, a, b)
        for alpha in range(3):
            p_first = born_probability(rho, b, alpha)
            for n in range(3):
                want = p_first * luders_transition(b, alpha, a, n)
                assert abs(table[n, alpha] - want) < 1e-12

    def test_columns_sum_to_first_step(self, rng):
        rho = random_density(4, rng)
        a = random_observable(4, rng, "A")
        b = random_observable(4, rng, "B")
        table = wigner_table(rho, a, b)
        first = born_distribution(rho, b)
        assert np.abs(table.sum(axis=0) - first).max() < 1e-10


class TestKirkwood:
    def test_witness_value_is_complex(self):
        # rho = |0><0| with a Hadamard-rotated intermediate: the (n=0,
        # alpha=+) quasiprobability equals (1+i)/4 up to basis phase
        rho = DensityOperator(np.diag([1.0, 0.0]))
        y_basis = np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0)
        y = Observable(np.array([1.0, -1.0]), y_basis, "Y")
        table = kirkwood_table(rho, y, X)
        assert abs(table[0, 0] - (0.25 + 0.25j)) < 1e-14

    def test_table_sums_to_one(self, rng):
        rho = random_density(3, rng)
        a = random_observable(3, rng, "A")
        b = random_observable(3, rng, "B")
        table = kirkwood_table(rho, a, b)
        assert abs(table.sum() - 1.0) < 1e-10

    def test_compatible_steps_are_classical(self, rng):
        rho = random_density(3, rng)
        a = random_observable(3, rng, "A")
        table = kirkwood_table(rho, a, a)
        assert np.abs(table.imag).max() < 1e-12
        assert np.abs(np.diag(table.real) - born_distribution(rho, a)).max() < 1e-12

    def test_column_marginals_match_first_step(self, rng):
        rho = random_density(3, rng)
        a = random_observable(3, rng, "A")
        b = random_observable(3, rng, "B")
        table = kirkwood_table(rho, a, b)
        first = born_distribution(rho, b)
        assert np.abs(table.sum(axis=0) - first).max() < 1e-10


class TestIdentityChain:
    def test_residual_vanishes(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            rho = random_density(dim, rng)
            a = random_observable(dim, rng, "A")
            b = random_observable(dim, rng, "B")
            for n in range(dim):
                assert identity_chain_residual(rho, a, n, b) <= 1e-10

    def test_hand_worked_case(self):
        # p(A_0) splits into the two Wigner terms plus one cross term
        assert identity_chain_residual(PLUS, Z, 0, X) <= 1e-12

    def test_residual_vanishes_at_d256(self):
        d = 256
        rng = np.random.default_rng(25600)
        rho = random_density(d, rng)
        a = random_observable(d, rng, "A")
        b = random_observable(d, rng, "B")
        for n in rng.choice(d, size=3, replace=False):
            assert identity_chain_residual(rho, a, int(n), b) <= 1e-10


# ------------------------------------------- whole tables at realistic d

def scalar_tables(rho, a, b):
    """The tables entry by entry through the scalar, projector-based route."""
    d = rho.dim
    wigner = np.array([[wigner_distribution(rho, a, n, b, alpha) for alpha in range(d)]
                       for n in range(d)])
    kirkwood = np.array([[kirkwood_form(rho, a, n, b, alpha) for alpha in range(d)]
                         for n in range(d)])
    born = np.array([born_probability(rho, a, n) for n in range(d)])
    return wigner, kirkwood, born


@pytest.fixture(scope="module", params=[16, 64], ids=lambda d: f"d{d}")
def large_case(request):
    d = request.param
    rng = np.random.default_rng(7100 + d)
    rho = random_density(d, rng)
    a = random_observable(d, rng, "A")
    b = random_observable(d, rng, "B")
    return rho, a, b, scalar_tables(rho, a, b)


class TestTablesAtScale:
    def test_entries_match_the_scalar_route(self, large_case):
        rho, a, b, (wigner, kirkwood, born) = large_case
        assert np.abs(wigner_table(rho, a, b) - wigner).max() <= 1e-12
        assert np.abs(kirkwood_table(rho, a, b) - kirkwood).max() <= 1e-12
        assert np.abs(born_distribution(rho, a) - born).max() <= 1e-12

    def test_wigner_marginals(self, large_case):
        rho, a, b, _ = large_case
        table = wigner_table(rho, a, b)
        assert np.abs(table.sum(axis=0) - born_distribution(rho, b)).max() <= 1e-12
        assert abs(table.sum() - 1.0) <= 1e-12

    def test_kirkwood_total_is_one(self, large_case):
        rho, a, b, _ = large_case
        assert abs(kirkwood_table(rho, a, b).sum() - 1.0) <= 1e-12

    def test_kirkwood_of_one_observable_is_classical(self, large_case):
        rho, a, _, _ = large_case
        table = kirkwood_table(rho, a, a)
        assert np.abs(table.imag).max() <= 1e-12
        assert np.abs(np.diag(table).real - born_distribution(rho, a)).max() <= 1e-12
        assert np.abs(table - np.diag(np.diag(table))).max() <= 1e-12


def unvalidated_density(m) -> DensityOperator:
    """A DensityOperator that skips validation, to reach the numeric contracts."""
    rho = object.__new__(DensityOperator)
    object.__setattr__(rho, "matrix", np.asarray(m, dtype=complex))
    return rho


def first_failure(compute, shape):
    """Index of the first entry whose scalar computation raises, in table order."""
    for index in np.ndindex(*shape):
        try:
            compute(*index)
        except NumericContractError:
            return index
    return None


class TestTableContracts:
    @pytest.mark.parametrize("defect,raises", [
        (lambda m, e: m + 1e-6j * np.eye(len(m)), True),       # imaginary diagonal
        (lambda m, e: m + 1e-14j * np.eye(len(m)), False),     # residue inside the window
        (lambda m, e: (e * [1.5, -0.5, 0, 0, 0, 0]) @ e.conj().T, True),  # not PSD in B
        (lambda m, e: -m, True),                               # trace -1
    ], ids=["imaginary", "tiny-imaginary", "not-psd", "negative"])
    def test_tables_raise_where_the_scalar_route_raises(self, rng, defect, raises):
        d = 6
        a = random_observable(d, rng, "A")
        b = random_observable(d, rng, "B")
        rho = unvalidated_density(defect(random_density(d, rng).matrix, b.eigenbasis))
        routes = [
            (lambda n, alpha: wigner_distribution(rho, a, n, b, alpha), (d, d),
             lambda: wigner_table(rho, a, b)),
            (lambda n: born_probability(rho, b, n), (d,),
             lambda: born_distribution(rho, b)),
        ]
        for scalar, shape, table in routes:
            failure = first_failure(scalar, shape)
            assert (failure is not None) == raises
            if failure is None:
                table()
                continue
            with pytest.raises(NumericContractError) as caught:
                table()
            assert f"[{', '.join(map(str, failure))}]" in str(caught.value)

    def test_dimension_mismatch(self, rng):
        rho = random_density(3, rng)
        a = random_observable(3, rng, "A")
        b = random_observable(4, rng, "B")
        for call in (lambda: wigner_table(rho, a, b), lambda: kirkwood_table(rho, b, a),
                     lambda: born_distribution(rho, b)):
            with pytest.raises(DimensionMismatchError, match="observable 'B' dim 4"):
                call()


class TestChainResidualIndependence:
    def test_diagonal_goes_through_the_scalar_route(self, rng, monkeypatch):
        d = 16
        rho = random_density(d, rng)
        a = random_observable(d, rng, "A")
        b = random_observable(d, rng, "B")
        assert identity_chain_residual(rho, a, 3, b) <= 1e-10
        scalar = measure.wigner_distribution
        monkeypatch.setattr(measure, "wigner_distribution",
                            lambda *args: scalar(*args) + 1e-8)
        assert identity_chain_residual(rho, a, 3, b) > 1e-10


class TestScalarRoutes:
    """The scalar routes contract rho with their built projectors, O(d^2) per entry,
    and read nothing of the table kernels' closed form."""

    @pytest.fixture
    def case(self, rng):
        d = 16
        return (random_density(d, rng), random_observable(d, rng, "A"),
                random_observable(d, rng, "B"))

    @staticmethod
    def scalar_values(rho, a, b):
        return ([wigner_distribution(rho, a, 3, b, alpha) for alpha in range(rho.dim)],
                [kirkwood_form(rho, a, 3, b, alpha) for alpha in range(rho.dim)],
                identity_chain_residual(rho, a, 3, b))

    def test_closed_form_mutations_do_not_reach_them(self, case, monkeypatch):
        rho, a, b = case
        before = self.scalar_values(rho, a, b)
        table = wigner_table(rho, a, b)
        change, diagonal = measure.basis_change, measure._diagonal_in
        monkeypatch.setattr(measure, "basis_change", lambda *args: change(*args) * (1 + 1e-6))
        monkeypatch.setattr(measure, "_diagonal_in", lambda *args: diagonal(*args) * (1 + 1e-6))
        assert self.scalar_values(rho, a, b) == before
        assert np.abs(wigner_table(rho, a, b) - table).max() > 1e-10  # the mutation bites

    def test_projector_mutation_is_caught_by_the_residual(self, case, monkeypatch):
        rho, a, b = case
        table = wigner_table(rho, a, b)
        exact = measure.projector_of
        monkeypatch.setattr(measure, "projector_of", lambda obs, n: types.SimpleNamespace(
            matrix=exact(obs, n).matrix * (1 + 1e-6)))
        assert identity_chain_residual(rho, a, 3, b) > 1e-10
        assert np.array_equal(wigner_table(rho, a, b), table)

    def test_matches_the_product_trace_at_d64(self):
        d = 64
        rng = np.random.default_rng(6400)
        rho = random_density(d, rng)
        a = random_observable(d, rng, "A")
        b = random_observable(d, rng, "B")
        for n, alpha in rng.integers(0, d, size=(64, 2)):
            n, alpha = int(n), int(alpha)
            pa = projector_of(b, alpha).matrix
            pn = projector_of(a, n).matrix
            m = rho.matrix
            assert abs(wigner_distribution(rho, a, n, b, alpha)
                       - np.trace(m @ pa @ pn @ pa).real) <= 1e-14
            assert abs(kirkwood_form(rho, a, n, b, alpha) - np.trace(m @ pn @ pa)) <= 1e-14

    @pytest.mark.parametrize("d", [2, 7, 16, 64])
    def test_values_are_the_outer_product_and_array_window_formulas(self, d):
        # the scalar routes as first written, projectors by np.outer and every
        # probability through real_probabilities: equal to the last bit
        rng = np.random.default_rng(700 + d)
        rho = random_density(d, rng)
        a, b = random_observable(d, rng, "A"), random_observable(d, rng, "B")
        m = rho.matrix

        def window(raw, name):
            return float(qcore.real_probabilities(raw, name))

        def outer(obs, n):
            v = obs.vector(n)
            return np.outer(v, v.conj())

        def born(n):
            v = a.vector(n)
            return window(complex(np.vdot(v, m @ v)), f"p(A_{n})")

        def wigner(n, alpha):
            v = b.vector(alpha)
            return window(complex(np.vdot(v, m @ (outer(b, alpha) @ (outer(a, n) @ v)))),
                          "sequential probability")

        def kirkwood(n, alpha):
            v = b.vector(alpha)
            return complex(np.vdot(v, m @ (outer(a, n) @ (outer(b, alpha) @ v))))

        def residual(n):
            diagonal = sum(wigner(n, alpha) for alpha in range(d))
            sandwich = b.eigenbasis.conj().T @ m @ b.eigenbasis
            w = b.eigenbasis.conj().T @ a.vector(n)
            table = sandwich.T * np.outer(w, w.conj())
            return float(abs(born(n) - diagonal - complex(table.sum() - np.trace(table))))

        pairs = [(n, alpha) for n in range(d) for alpha in range(d)][:: max(1, d * d // 64)]
        for n, alpha in pairs:
            assert wigner_distribution(rho, a, n, b, alpha) == wigner(n, alpha)
            assert kirkwood_form(rho, a, n, b, alpha) == kirkwood(n, alpha)
        for n in sorted({0, d // 2, d - 1}):
            assert born_probability(rho, a, n) == born(n)
            assert identity_chain_residual(rho, a, n, b) == residual(n)

    def test_peak_is_below_three_matrices_at_d256(self):
        d = 256
        rng = np.random.default_rng(25601)
        rho = random_density(d, rng)
        a = random_observable(d, rng, "A")
        b = random_observable(d, rng, "B")
        matrix = d * d * np.dtype(complex).itemsize
        assert traced_peak(lambda: wigner_distribution(rho, a, 5, b, 7)) < 3 * matrix
        assert traced_peak(lambda: kirkwood_form(rho, a, 5, b, 7)) < 3 * matrix


class TestNoPerEntryProjectors:
    """The table kernels are O(d^3): a d^2 loop of projectors would be O(d^5)."""

    def test_tables_build_no_projectors(self, calls):
        d = 64
        rng = np.random.default_rng(6464)
        rho = random_density(d, rng)
        a = random_observable(d, rng, "A")
        b = random_observable(d, rng, "B")
        calls.clear()
        wigner_table(rho, a, b)
        kirkwood_table(rho, a, b)
        born_distribution(rho, a)
        assert calls == []
        # the scalar diagonal's 2 * d eigenvector projectors take the
        # trusted route of projector_of: no validated build, no eigensolver
        identity_chain_residual(rho, a, 0, b)
        assert calls == []
        v = a.vector(0)
        events.Projector(np.outer(v, v.conj()))
        np.linalg.eigvalsh(rho.matrix)
        assert calls == ["Projector", "eigvalsh"]  # the counters do count
