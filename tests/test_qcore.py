"""Linear-algebra primitives: tensor products, partial traces, exponentials."""

import ast
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qprospect import (
    DimensionMismatchError,
    NumericContractError,
    SizeLimitError,
    ValidationError,
    ZeroProbabilityError,
    matrix_exponential,
    partial_trace,
    spectral_norm,
    tensor_product,
)
import qprospect
from qprospect import policy
from qprospect.qcore import (
    as_amplitude_matrix,
    as_complex_matrix,
    as_complex_vector,
    freeze,
    hermiticity_defect,
    mode_split,
    pure_state,
    real_probabilities,
    real_probability,
    require_hermitian,
    require_event,
    require_unitary,
    require_within,
    validate_rank_one,
    validate_state,
)

from helpers import (
    overflowing_cases,
    random_amplitudes,
    random_density,
    random_unitary,
    returns_or_refuses,
)


def kron_by_loops(a, b):
    """Reference Kronecker product, written out indexwise."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestTensorProduct:
    def test_matches_indexwise_reference(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(tensor_product(a, b) - kron_by_loops(a, b)).max() < 1e-14

    def test_first_factor_is_slow_index(self):
        # basis state |1> x |0> must land at flat index 1*2+0 = 2
        e1 = np.diag([0.0, 1.0])
        e0 = np.diag([1.0, 0.0])
        joint = tensor_product(e1, e0)
        assert joint[2, 2] == 1.0
        assert np.trace(joint) == 1.0

    def test_trace_is_multiplicative(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        got = np.trace(tensor_product(a, b))
        assert abs(got - np.trace(a) * np.trace(b)) < 1e-12

    def test_size_cap(self):
        big = np.eye(70)
        with pytest.raises(SizeLimitError):
            tensor_product(big, big)


class TestPartialTrace:
    def test_maximally_entangled_reduces_to_mixed(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        joint = np.outer(psi, psi.conj())
        for keep in (0, 1):
            red = partial_trace(joint, (2, 2), keep)
            assert np.abs(red - np.eye(2) / 2.0).max() < 1e-14

    def test_product_input_factorizes(self, rng):
        rho_a = random_density(3, rng).matrix
        rho_b = random_density(2, rng).matrix
        joint = tensor_product(rho_a, rho_b)
        assert np.abs(partial_trace(joint, (3, 2), 0) - rho_a).max() < 1e-13
        assert np.abs(partial_trace(joint, (3, 2), 1) - rho_b).max() < 1e-13

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, da, db, seed):
        gen = np.random.default_rng(seed)
        m = gen.normal(size=(da * db, da * db)) + 1j * gen.normal(size=(da * db, da * db))
        for keep in (0, 1):
            red = partial_trace(m, (da, db), keep)
            assert abs(np.trace(red) - np.trace(m)) < 1e-11

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(6), (2, 2), 0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1j * np.nan, -1j * np.inf])
    def test_raw_matrix_is_scanned_for_finiteness(self, entry):
        m = np.eye(4, dtype=complex)
        m[1, 2] = entry
        # the scan runs before the O(1) checks, so a bad keep does not mask it
        for keep in (0, 2):
            with pytest.raises(ValidationError, match="^bipartite operator has non-finite entries$"):
                partial_trace(m, (2, 2), keep)

    @pytest.mark.parametrize("m, dims, keep, error, message", [
        (np.ones((2, 3)), (1, 2), 0, DimensionMismatchError,
         r"bipartite operator must be square, got shape \(2, 3\)"),
        (np.zeros((0, 0)), (1, 1), 0, ValidationError, "bipartite operator is empty"),
        # a broadcast view: checked against the cap without allocating 4097^2 entries
        (np.broadcast_to(np.complex128(0), (4097, 4097)), (17, 241), 0, SizeLimitError,
         "bipartite operator has dimension 4097, above the cap 4096"),
        (np.eye(4), (-2, -2), 0, DimensionMismatchError,
         r"dims \(-2, -2\) incompatible with operator of dimension 4"),
        (np.eye(4), (0, 4), 1, DimensionMismatchError,
         r"dims \(0, 4\) incompatible with operator of dimension 4"),
        (np.eye(6), (2, 2), 0, DimensionMismatchError,
         r"dims \(2, 2\) incompatible with operator of dimension 6"),
        (np.eye(4), (2, 2), 2, ValidationError, "keep must be 0 or 1, got 2"),
    ])
    def test_refusals_keep_their_type_and_message(self, m, dims, keep, error, message):
        with pytest.raises(error, match=f"^{message}$") as info:
            partial_trace(m, dims, keep)
        assert type(info.value) is error


class TestMatrixExponential:
    def test_agrees_with_scipy_expm(self, rng):
        for dim in (2, 3, 5):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (h + h.conj().T) / 2.0
            t = float(rng.uniform(0.1, 3.0))
            want = scipy.linalg.expm(-1j * t * h)
            assert np.abs(matrix_exponential(h, t) - want).max() < 1e-12

    def test_quarter_turn_of_pauli_x(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = matrix_exponential(sx, np.pi / 2.0)
        assert np.abs(u - (-1j) * sx).max() < 1e-14

    def test_result_is_unitary(self, rng):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2.0
        u = matrix_exponential(h, 1.7)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12

    def test_zero_time_is_identity(self, rng):
        h = rng.normal(size=(3, 3))
        h = (h + h.T) / 2.0
        assert np.abs(matrix_exponential(h, 0.0) - np.eye(3)).max() < 1e-14

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestSpectralNorm:
    def test_matches_largest_eigenvalue(self, rng):
        rho = random_density(5, rng).matrix
        assert abs(spectral_norm(rho) - np.linalg.eigvalsh(rho)[-1]) < 1e-12

    def test_pure_state_has_unit_norm(self, rng):
        u = random_unitary(4, rng)
        rho = np.outer(u[:, 0], u[:, 0].conj())
        assert abs(spectral_norm(rho) - 1.0) < 1e-12

    def test_negative_spectrum_rejected(self):
        with pytest.raises(ValidationError):
            spectral_norm(np.diag([1.0, -0.5]))


class TestStateValidator:
    def test_returns_a_copy_and_its_spectrum(self, rng):
        rho = random_density(6, rng).matrix
        m, w = validate_state(rho, "state")
        assert m is not rho and np.array_equal(m, rho)
        assert np.array_equal(w, np.linalg.eigvalsh(rho))

    @pytest.mark.parametrize("matrix,dims,error,message", [
        (np.zeros((2, 3)), None, DimensionMismatchError, "state must be square"),
        (np.array([[0.5, 0.1], [0.2, 0.5]]), None, ValidationError, "state is not Hermitian"),
        (np.eye(6) / 6.0, (2, 2), DimensionMismatchError,
         "matrix dimension 6 does not match dims 2 x 2"),
        (np.diag([0.5, 0.6]), None, ValidationError,
         r"state breaks unit trace: Tr = 1.1 \(deviation 1.000e-01 exceeds 1.0e-10\)$"),
        (np.diag([0.5, 0.6]), (1, 2), ValidationError, r"state breaks unit trace: Tr = 1.1$"),
        (np.diag([1.5, -0.5]), None, ValidationError,
         "state not positive-semidefinite: lowest eigenvalue -5.000e-01"),
    ])
    def test_rejections_in_order(self, matrix, dims, error, message):
        with pytest.raises(error, match=message):
            validate_state(matrix, "state", dims)

    def test_pure_state_spectrum_is_known(self, rng):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        v /= np.linalg.norm(v)
        m, w = pure_state(v, "state")
        assert np.array_equal(m, np.outer(v, v.conj()))
        assert np.all(w[:-1] == 0.0) and w[-1] == m.trace().real
        assert np.abs(w - np.linalg.eigvalsh(m)).max() < 1e-12
        assert hermiticity_defect(m) <= 1e-15

    @pytest.mark.parametrize("v,dims,error,message", [
        (np.ones((2, 2)) / 2.0, None, DimensionMismatchError, "nonempty 1-d"),
        (np.array([np.nan, 1.0]), None, ValidationError, "non-finite"),
        (np.ones(5000) / np.sqrt(5000), None, SizeLimitError, "above the cap"),
        (np.ones(4) / 2.0, (3, 1), DimensionMismatchError, "does not match dims 3 x 1"),
        (np.array([1.0, 1.0]), None, ValidationError, r"unit trace: Tr = 2.0 \(deviation"),
        (np.array([1.0, 1.0]), (2, 1), ValidationError, r"unit trace: Tr = 2.0$"),
    ])
    def test_pure_state_rejections(self, v, dims, error, message):
        with pytest.raises(error, match=message):
            pure_state(v, "state", dims)

    def test_freeze_marks_read_only(self):
        a = np.zeros(3)
        assert freeze(a) is a
        with pytest.raises(ValueError):
            a[0] = 1.0


def split_by_loops(coeff, m):
    """Reference split of ``<b|m|b>``, written out over mode pairs."""
    d = coeff.size
    direct = f = q = 0.0
    for a in range(d):
        f += abs(coeff[a]) ** 2 * m[a, a].real
        for c in range(d):
            term = np.conj(coeff[a]) * m[a, c] * coeff[c]
            direct += term
            if a < c:
                q += 2.0 * term.real
    return direct, f, q


class TestModeSplit:
    def test_matches_the_double_loop_at_d64(self, rng):
        coeff = rng.normal(size=64) + 1j * rng.normal(size=64)
        m = random_density(64, rng).matrix
        want = split_by_loops(coeff, m)
        got = mode_split(coeff, m)
        scale = float(np.sum(np.abs(coeff) ** 2))
        for g, w in zip(got, want):
            assert np.ndim(g) == 0
            assert abs(g - w) <= 1e-13 * scale
        assert abs(got[0] - (got[1] + got[2])) <= 1e-13 * scale

    def test_q_is_its_own_sum_over_the_upper_triangle(self):
        # m is not Hermitian here, so q = p - f would read 3, not 6
        direct, f, q = mode_split(np.ones(3, dtype=complex), np.triu(np.ones((3, 3)), k=1))
        assert (direct, f, q) == (3.0, 0.0, 6.0)

    def test_a_lattice_stack_matches_the_double_loop_at_16x256(self, rng):
        coeff = rng.normal(size=256) + 1j * rng.normal(size=256)
        stack = rng.normal(size=(16, 256, 256)) + 1j * rng.normal(size=(16, 256, 256))
        stack = (stack + stack.conj().transpose(0, 2, 1)) / 512.0
        direct, f, q = mode_split(coeff, stack)
        assert direct.shape == f.shape == q.shape == (16,)
        scale = float(np.sum(np.abs(coeff) ** 2))
        upper = np.triu(np.ones((256, 256), dtype=bool), k=1)
        for n in range(16):
            m = stack[n]
            # the inner sum vectorised, the mode pairs still walked row by row
            want_direct = sum(np.conj(coeff[a]) * (m[a] @ coeff) for a in range(256))
            want_f = sum(abs(coeff[a]) ** 2 * m[a, a].real for a in range(256))
            want_q = sum(2.0 * (np.conj(coeff[a]) * (m[a, upper[a]] @ coeff[upper[a]])).real
                         for a in range(256))
            assert abs(direct[n] - want_direct) <= 1e-12 * scale
            assert abs(f[n] - want_f) <= 1e-12 * scale
            assert abs(q[n] - want_q) <= 1e-12 * scale
            # each matrix of the stack splits as it would alone, bit for bit
            alone = mode_split(coeff, m)
            assert (alone[0], alone[1], alone[2]) == (direct[n], f[n], q[n])


class TestRankOneValidator:
    @pytest.mark.parametrize("matrix,dims,error,message", [
        (np.zeros((2, 3)), None, DimensionMismatchError, "op must be square"),
        (np.triu(np.ones((4, 4))), None, ValidationError, "op is not Hermitian"),
        (np.diag([1.0, 0.0, 0.0]), (2, 2), DimensionMismatchError,
         "operator dimension 3 does not match dims 2 x 2"),
        (np.diag([1.0, -0.5]), None, ValidationError, "op not positive: lowest eigenvalue"),
        (np.diag([1.0, 0.5]), None, ValidationError, "op has rank > 1: second eigenvalue"),
    ])
    def test_rejections_in_order(self, matrix, dims, error, message):
        with pytest.raises(error, match=message):
            validate_rank_one(matrix, "op", dims)

    def test_returns_a_copy_and_its_spectrum(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        op = np.outer(v, v.conj())
        m, w = validate_rank_one(op, "op", (2, 3))
        assert m is not op and np.array_equal(m, op)
        assert np.array_equal(w, np.linalg.eigvalsh(op))


class TestConversionGuards:
    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            as_complex_matrix(np.zeros((2, 3)), "m")

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            as_complex_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]), "m")
        with pytest.raises(ValidationError):
            as_complex_vector(np.array([np.inf, 0.0]), "v")

    def test_oversized_rejected(self):
        with pytest.raises(SizeLimitError):
            as_complex_matrix(np.eye(5000), "m")

    def test_probability_window(self):
        assert real_probability(1.0 + 1e-14, "p") == 1.0
        assert real_probability(-1e-14, "p") == 0.0
        with pytest.raises(NumericContractError):
            real_probability(1.5, "p")
        with pytest.raises(NumericContractError):
            real_probability(0.5 + 1e-6j, "p")

    def test_window_edges_sit_at_the_tolerance(self):
        w = policy.PROBABILITY_TOL
        inside = [0.5 + 0.5j * w, -0.5 * w, 1.0 + 0.5 * w]
        assert np.array_equal(real_probabilities(inside, "p"), [0.5, 0.0, 1.0])
        for bad in (0.5 + 2j * w, 0.5 - 2j * w, -2 * w, 1.0 + 2 * w):
            with pytest.raises(NumericContractError):
                real_probability(bad, "p")
            with pytest.raises(NumericContractError, match=r"^p\[1\]"):
                real_probabilities([0.5, bad], "p")

    def test_scalar_window_messages_name_no_index(self):
        with pytest.raises(NumericContractError, match=r"^p = 1\.5 lies outside"):
            real_probability(1.5, "p")
        with pytest.raises(NumericContractError, match=r"^p has imaginary residue 1\.000e-06"):
            real_probability(0.5 + 1e-6j, "p")

    def test_scalar_clamp_keeps_float_semantics(self):
        for x in (-0.0, 0.0, 0.25, 1.0, -1e-13, 1.0 + 1e-13):
            got = real_probability(x, "p")
            assert type(got) is float
            assert repr(got) == repr(min(max(x, 0.0), 1.0))
        pytest.raises(NumericContractError, real_probability, float("nan"), "p")

    def test_table_window_names_the_first_offending_entry(self):
        table = np.array([[0.5, 1e-14j], [-1e-13, 1.0 + 1e-13]])
        got = real_probabilities(table, "w")
        assert got.dtype == float and got.shape == (2, 2)
        assert np.array_equal(got, [[0.5, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericContractError, match=r"^w\[1, 0\] = -0\.1 lies outside"):
            real_probabilities(np.array([[0.5, 0.2], [-0.1, 2.0]]), "w")
        with pytest.raises(NumericContractError, match=r"^w\[0, 1\] has imaginary residue"):
            real_probabilities(np.array([[0.5, 0.2 + 1e-9j], [-0.1, 2.0]]), "w")
        with pytest.raises(NumericContractError, match=r"^p\[2\] = 1\.5 lies"):
            real_probabilities([0.1, 0.2, 1.5, -3.0], "p")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
class TestFailClosed:
    """Finite inputs whose entries reach 1e308 are refused or truly valid.

    A defect such as ``max |A^dag A - 1|`` overflows to ``inf - inf = NaN``
    on them, and ``NaN > bound`` is false, so a check written that way lets
    them through.
    """

    def test_unitary_check(self):
        for a in overflowing_cases(1, random_unitary):
            got = returns_or_refuses(require_unitary, a, "U")
            assert got is None or np.abs(got).max() <= 1.0 + policy.tolerance()

    def test_hermitian_check(self):
        for a in overflowing_cases(2, lambda d, rng: random_density(d, rng).matrix):
            got = returns_or_refuses(require_hermitian, a, "H")
            assert got is None or hermiticity_defect(got) <= policy.tolerance()

    def test_state_checks(self):
        for a in overflowing_cases(3, lambda d, rng: random_density(d, rng).matrix, hermitian=True):
            got = returns_or_refuses(validate_state, a, "rho")
            assert got is None or np.abs(got[0]).max() <= 1.0 + policy.tolerance()

    def test_pure_state_check(self):
        for v in overflowing_cases(4, lambda d, rng: random_unitary(d, rng)[:, 0]):
            got = returns_or_refuses(pure_state, v, "psi")
            assert got is None or np.abs(got[0]).max() <= 1.0 + policy.tolerance()

    def test_rank_one_check(self):
        def rank_one(d, rng):
            v = random_unitary(d, rng)[:, 0] * rng.uniform(0.5, 2.0)
            return np.outer(v, v.conj())

        for a in overflowing_cases(5, rank_one, hermitian=True):
            returns_or_refuses(validate_rank_one, a, "P")

    def test_amplitude_matrix_check(self):
        for c in overflowing_cases(6, lambda d, rng: random_amplitudes(d, 2, rng)):
            got = returns_or_refuses(as_amplitude_matrix, c, policy.tolerance())
            assert got is None or np.abs(got).max() <= 1.0 + policy.tolerance()

    def test_probability_window(self):
        for a in overflowing_cases(7, lambda d, rng: rng.uniform(0.0, 1.0, size=(d, 2))):
            got = returns_or_refuses(real_probabilities, a, "p")
            assert got is None or (np.all(got >= 0.0) and np.all(got <= 1.0))


class TestRequireWithin:
    def test_nan_defect_is_refused_with_its_numbers(self):
        # A^dag A overflows to inf - inf: the defect is NaN
        basis = np.array([[1.37e154 + 9.40e290j, -6.65e153 - 7.43e291j],
                          [3.52e153 - 9.22e291j, 9.03e153 - 4.58e291j]])
        with np.errstate(all="ignore"), pytest.raises(
                ValidationError, match=r"^U is not unitary: max deviation nan exceeds 1\.0e-10$"
        ) as info:
            require_unitary(basis, "U")
        assert np.isnan(info.value.measured)
        assert info.value.bound == policy.tolerance()

    def test_message_is_filled_from_fields_only_when_raising(self):
        require_within(1.0, 1.0, "{undefined}")
        with pytest.raises(NumericContractError, match=r"^\{x\} is off by 2\.0$") as info:
            require_within(2.0, 1.0, "{label} is off by {measured}", NumericContractError,
                           label="{x}")
        assert (info.value.measured, info.value.bound) == (2.0, 1.0)


class TestRequireEvent:
    def test_refuses_nan_and_the_tolerance_itself(self):
        tol = policy.ZERO_EVENT_TOL
        require_event(np.nextafter(tol, 1.0), "{undefined}")
        for p in (np.nan, tol, 0.0, -1.0):
            with pytest.raises(ZeroProbabilityError, match=r"^\{x\} has p = "):
                require_event(p, "{label} has p = {p!r}", label="{x}")

    def test_error_type_is_the_callers(self):
        with pytest.raises(ValidationError) as info:
            require_event(float("nan"), "no mass", ValidationError)
        assert type(info.value) is ValidationError


def _null_event_sites(monkeypatch, nan: bool):
    """The six null-event guards, as ``name: (call, error, message)``.

    Each is reached with a probability of 0 from real inputs, or, with
    ``nan``, with the probability it checks forced to NaN.
    """
    from qprospect import (CompositeState, DensityOperator, InterferenceDistribution,
                           MultimodeState, Observable, Prospect, bayes_conditional,
                           conditional_under_uncertainty, composite, game, luders_reduce,
                           measure, prospect_lattice)
    from qprospect.events import MultimodeProbability
    state = CompositeState.product(DensityOperator.maximally_mixed(2),
                                   DensityOperator(np.diag([1.0, 0.0])))
    dead = MultimodeState.in_standard_basis([0.0, 1.0])
    rho = DensityOperator(np.diag([1.0, 0.0]))
    p = float("nan") if nan else 0.0
    if nan:
        monkeypatch.setattr(composite, "marginals", lambda s: (None, np.full(2, np.nan)))
        monkeypatch.setattr(composite, "_components",
                            lambda s, b, ns: (np.full(len(ns), np.nan), np.ones(len(ns)),
                                              np.zeros(len(ns))))
        monkeypatch.setattr(composite, "multimode_probability",
                            lambda r, b: MultimodeProbability(np.nan, np.nan, 0.0))
        monkeypatch.setattr(measure, "born_probability", lambda r, obs, n: np.nan)
    monkeypatch.setattr(game, "_positive_mass", lambda dist: p)
    lattice = "nan (classical 2.0)" if nan else "0.0 (classical 0.0)"
    return {
        "bayes_conditional": (lambda: bayes_conditional(state, 0, 1), ZeroProbabilityError,
                              f"cannot condition on B_1: probability np.float64({p}) is "
                              "numerically zero"),
        "prospect_lattice": (lambda: prospect_lattice(state, dead), ZeroProbabilityError,
                             f"degenerate lattice: total prospect weight {lattice} is "
                             "numerically zero"),
        "conditional_under_uncertainty": (
            lambda: conditional_under_uncertainty(state, Prospect(0, dead)),
            ZeroProbabilityError, f"cannot condition on multimode event of probability {p}"),
        "luders_reduce": (lambda: luders_reduce(rho, Observable.standard(2, "N"), 1),
                          ZeroProbabilityError,
                          f"cannot reduce on N_1: probability {p} is numerically zero"),
        "_clamp_and_renormalize": (
            lambda: game._clamp_and_renormalize(np.full(3, p), np.zeros(3), np.empty(3)),
            ZeroProbabilityError, "both prospect probabilities clamp to zero"),
        "_sample_magnitudes": (
            lambda: game._sample_magnitudes(InterferenceDistribution.uniform(), 3,
                                            np.random.default_rng(0)),
            ValidationError, "density has no mass on the positive half-line"),
    }


class TestNullEventSites:
    """Every guard on a null event goes through ``qcore.require_event``."""

    @pytest.mark.parametrize("nan", [False, True], ids=["zero", "nan"])
    @pytest.mark.parametrize("site", [
        "bayes_conditional", "prospect_lattice", "conditional_under_uncertainty",
        "luders_reduce", "_clamp_and_renormalize", "_sample_magnitudes"])
    def test_refusal_keeps_its_type_and_message(self, monkeypatch, site, nan):
        call, error, message = _null_event_sites(monkeypatch, nan)[site]
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message


def _index_entry_points():
    """Each library call that takes an event or mode index, as ``(call, dim)``
    with the index as the call's one argument."""
    from qprospect import (AmplitudeMatrix, DensityOperator, MultimodeState, Observable,
                           Prospect, apply_measurement, bell_state, born_probability,
                           joint_probability, prospect_probability, two_time_joint,
                           two_time_prospect)
    obs = Observable.standard(3)
    rho = DensityOperator.from_pure([0.6, 0.0, 0.8])
    state = bell_state(2)
    b = MultimodeState.in_standard_basis([1.0, 1.0])
    amp = AmplitudeMatrix(np.full((2, 2), 0.5), (0.0, 1.0))
    return {
        "Observable.vector": (obs.vector, 3),
        "born_probability": (lambda n: born_probability(rho, obs, n), 3),
        "apply_measurement": (lambda n: apply_measurement(rho, obs, n).probability, 3),
        "CompositeState.block": (lambda n: state.block(0, n), 2),
        "CompositeState.element": (lambda n: state.element(0, n, 0, 0), 2),
        "joint_probability": (lambda n: joint_probability(state, n, 0), 2),
        "prospect_probability": (lambda n: prospect_probability(state, Prospect(n, b)).p, 2),
        "two_time_joint": (lambda n: two_time_joint(amp, n, 0), 2),
        "two_time_prospect": (lambda n: two_time_prospect(amp, n, b).p, 2),
    }


class TestIndexGuard:
    """An index is a Python or numpy integer in range; anything else is a
    ValidationError with the call's own message, never a numpy error."""

    @pytest.mark.parametrize("entry", sorted(_index_entry_points()))
    @pytest.mark.parametrize("index", ["half", "bool", "negative", "dim"])
    def test_bad_index_is_a_validation_error(self, entry, index):
        call, dim = _index_entry_points()[entry]
        bad = {"half": 0.5, "bool": True, "negative": -1, "dim": dim}[index]
        with pytest.raises(ValidationError, match="out of range|must be nonnegative"):
            call(bad)

    @pytest.mark.parametrize("entry", sorted(_index_entry_points()))
    def test_numpy_integer_is_an_index(self, entry):
        call, dim = _index_entry_points()[entry]
        np.testing.assert_array_equal(call(np.int64(dim - 1)), call(dim - 1))


def _dimension_refusals():
    """Each hand-written dimension check in the package, as ``call, message``;
    labels holding ``{`` show that a label never becomes part of a template."""
    from qprospect import (AmplitudeMatrix, CompositeState, DensityOperator,
                           GeneralizedProposition, HamiltonianSpec, MeasurerSpec,
                           MultimodeState, Observable, PipelineStage, Prospect, WaveState,
                           basis_change, born_distribution, evolve_state, luders_transition,
                           multimode_probability, occupation_residual, pointer_measurer,
                           prospect_operator, readout, run_pipeline, transform_basis,
                           two_time_prospect, validate_povm)
    mixed = DensityOperator.maximally_mixed
    obs2, obs3 = Observable.standard(2, "{A}"), Observable.standard(3, "B")
    b2 = MultimodeState.in_standard_basis([1.0, 1.0])
    prop2 = GeneralizedProposition.from_state(b2)
    prop3 = GeneralizedProposition.from_state(MultimodeState.in_standard_basis([1.0, 0, 0]))
    amp = AmplitudeMatrix(np.full((2, 2), 0.5), (0.0, 1.0))
    psi3 = WaveState([1.0, 0.0, 0.0])
    compose, evolve, read = (PipelineStage("compose"), PipelineStage("evolve", duration=1.0),
                             PipelineStage("readout"))
    return {
        "Observable": (lambda: Observable([0.0, 1.0, 2.0], np.eye(2)),
                       "3 eigenvalues vs eigenbasis of dimension 2"),
        "basis_change": (lambda: basis_change(obs2, obs3),
                         "observables '{A}' and 'B' act on different spaces"),
        "MultimodeState": (lambda: MultimodeState([1.0, 1.0, 1.0], obs2),
                           "3 coefficients vs basis of dimension 2"),
        "multimode_probability": (lambda: multimode_probability(mixed(3), b2),
                                  "density operator dim 3 vs multimode state dim 2"),
        "validate_povm.member": (lambda: validate_povm([prop2, prop3]),
                                 "family member 1 has dimension 3, expected 2"),
        "validate_povm.rho": (lambda: validate_povm([prop2], mixed(3)),
                              "density operator dim 3 vs family dimension 2"),
        "measure._check_dims": (lambda: born_distribution(mixed(3), obs2),
                                "density operator dim 3 vs observable '{A}' dim 2"),
        "luders_transition": (lambda: luders_transition(obs2, 0, obs3, 0),
                              "observables '{A}' (2) and 'B' (3) act on different spaces"),
        "composite._require_fits": (lambda: prospect_operator(Prospect(0, b2), (2, 3)),
                                    "multimode state dim 2 vs second factor dim 3"),
        "MeasurerSpec.ready": (lambda: MeasurerSpec(2, mixed(3), np.eye(4)),
                               "measurer ready state has dim 3, expected 2"),
        "MeasurerSpec.coupling": (lambda: MeasurerSpec(2, mixed(2), np.eye(3)), "coupling "
                                  "dimension 3 is not a multiple of the measurer dimension 2"),
        "readout": (lambda: readout(mixed(4), (2, 3)),
                    "dims (2, 3) incompatible with joint state of dim 4"),
        "transform_basis": (lambda: transform_basis(mixed(2), np.eye(3)),
                            "transform dim 3 vs state dim 2"),
        "run_pipeline.system": (
            lambda: run_pipeline(mixed(3), pointer_measurer(), [compose, evolve, read]),
            "system state dim 3 vs coupling system dim 2"),
        "run_pipeline.transform": (
            lambda: run_pipeline(mixed(2), pointer_measurer(),
                                 [compose, PipelineStage("transform", transform=np.eye(3)), read]),
            "transform dim 3 matches neither the system (2) nor the joint space (4)"),
        "HamiltonianSpec.piece": (lambda: HamiltonianSpec(np.eye(2), ((0.0, np.eye(3)),)),
                                  "piece 0 has shape (3, 3), expected (2, 2)"),
        "evolve_state": (lambda: evolve_state(psi3, HamiltonianSpec(np.eye(2)), 1.0),
                         "state dim 3 vs generator dim 2"),
        "occupation_residual": (lambda: occupation_residual(amp, psi3),
                                "final state dim 3 vs amplitude rows 2"),
        "two_time_prospect": (lambda: two_time_prospect(amp, 0, [1.0, 1.0, 1.0]),
                              "3 multimode weights vs 2 start modes"),
        "qcore._require_dims": (lambda: CompositeState(np.eye(6) / 6.0, (2, 2)),
                                "matrix dimension 6 does not match dims 2 x 2"),
        "qcore._partial_trace": (lambda: partial_trace(np.eye(6), (2, 2), 0),
                                 "dims (2, 2) incompatible with operator of dimension 6"),
    }


def mismatch_raises(source: str) -> list[int]:
    """Lines of ``raise DimensionMismatchError...`` statements in ``source``."""
    def names(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
        and names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        == "DimensionMismatchError"
    ]


def _factor_dims_entry_points():
    """The five calls that parse factor dims, each returning an array so that
    results compare."""
    from qprospect import (CompositeState, DensityOperator, MultimodeState, Prospect,
                           ProspectOperator, prospect_operator, readout)
    rho = DensityOperator.maximally_mixed(4)
    b = MultimodeState.in_standard_basis([1.0, 1.0])
    pb = prospect_operator(Prospect(0, b), (2, 2)).operator
    return {
        "CompositeState": lambda dims: CompositeState(rho.matrix, dims).reduced(0).matrix,
        "partial_trace": lambda dims: partial_trace(rho.matrix, dims, 0),
        "ProspectOperator": lambda dims: ProspectOperator(pb, dims).operator,
        "prospect_operator": lambda dims: prospect_operator(Prospect(0, b), dims).operator,
        "readout": lambda dims: readout(rho, dims)[1].matrix,
    }


class TestShapeGuards:
    """Shapes are decided in qcore: one dimension guard, one parse of factor dims."""

    @pytest.mark.parametrize("entry", sorted(_dimension_refusals()))
    def test_dimension_refusal_keeps_its_type_and_message(self, entry):
        call, message = _dimension_refusals()[entry]
        with pytest.raises(DimensionMismatchError) as info:
            call()
        assert type(info.value) is DimensionMismatchError
        assert str(info.value) == message

    def test_only_qcore_raises_dimension_mismatch(self):
        sources = pathlib.Path(qprospect.__file__).parent.glob("*.py")
        found = {path.name: mismatch_raises(path.read_text()) for path in sources}
        # the three coercers, _partial_trace and the guard itself
        assert len(found.pop("qcore.py")) == 5
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_detector_finds_every_spelling(self):
        spellings = ["raise DimensionMismatchError('x')", "raise errors.DimensionMismatchError",
                     "if a:\n    raise DimensionMismatchError(f'{a}') from None"]
        assert [mismatch_raises(s) for s in spellings] == [[1], [1], [2]]
        assert mismatch_raises("raise ValidationError('DimensionMismatchError')\nraise") == []

    @pytest.mark.parametrize("entry", ["CompositeState", "partial_trace", "ProspectOperator",
                                       "prospect_operator", "readout"])
    @pytest.mark.parametrize("dims", [(2, 2, 5), (4,), 4, (2.7, 2), (True, 4), ("2", "2")],
                             ids=repr)
    def test_malformed_dims_are_refused(self, entry, dims):
        with pytest.raises(ValidationError, match=r"^dims must be a pair of integers, got "):
            _factor_dims_entry_points()[entry](dims)

    @pytest.mark.parametrize("entry", ["CompositeState", "partial_trace", "ProspectOperator",
                                       "prospect_operator", "readout"])
    def test_a_list_or_numpy_integers_are_dims(self, entry):
        call = _factor_dims_entry_points()[entry]
        want = call((2, 2))
        for dims in ([2, 2], (np.int64(2), 2)):
            np.testing.assert_array_equal(call(dims), want)

    @pytest.mark.parametrize("keep", [True, 1.0, np.float64(0.0)], ids=repr)
    def test_keep_is_not_coerced(self, keep):
        from qprospect import CompositeState
        state = CompositeState.from_amplitudes([[0.6, 0], [0, 0.8]])
        with pytest.raises(ValidationError, match=f"^{re.escape(f'keep must be 0 or 1, got {keep!r}')}$"):
            state.reduced(keep)
        np.testing.assert_array_equal(state.reduced(np.int64(1)).matrix, state.reduced(1).matrix)

    @pytest.mark.parametrize("call, size, message", [
        ("bell_state", 3.0, "mode count must be an integer, got 3.0"),
        ("bell_state", 1, "need at least two modes, got 1"),
        ("standard", 2.5, "dim must be an integer, got 2.5"),
        ("standard", -1, "dim must be nonnegative, got -1"),
        ("standard", True, "dim must be an integer, got True"),
        ("standard", 0, "eigenbasis is empty"),
        ("maximally_mixed", 2.5, "dim must be an integer, got 2.5"),
        ("maximally_mixed", -1, "dim must be nonnegative, got -1"),
        ("maximally_mixed", 0, "density operator is empty"),
        ("MeasurerSpec", "2", "measurer dimension must be an integer, got '2'"),
        ("MeasurerSpec", True, "measurer dimension must be an integer, got True"),
        ("MeasurerSpec", 0, "measurer dimension must be positive, got 0"),
    ])
    def test_sizes_are_integers(self, call, size, message):
        from qprospect import DensityOperator, MeasurerSpec, Observable, bell_state
        build = {
            "bell_state": bell_state,
            "standard": Observable.standard,
            "maximally_mixed": DensityOperator.maximally_mixed,
            "MeasurerSpec": lambda d: MeasurerSpec(d, DensityOperator.maximally_mixed(2),
                                                   np.eye(4)),
        }[call]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(size)
        assert build(np.int64(2)).dim == build(2).dim


def _real_scalar_sites():
    """Each library call that reads a real scalar, as ``name: call`` with
    that scalar as the call's one argument."""
    from qprospect import (AmplitudeMatrix, HamiltonianSpec, PipelineStage, WaveState,
                           broken_symmetry_probabilities, evolve_state)
    c = np.full((2, 2), 0.5)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return {
        "PipelineStage.duration": lambda x: PipelineStage("evolve", duration=x).duration,
        "WaveState.time": lambda x: WaveState([1.0, 0.0], time=x).time,
        "AmplitudeMatrix.times": lambda x: AmplitudeMatrix(c, x).times,
        "broken_symmetry_probabilities": lambda x: (
            broken_symmetry_probabilities((0.5, 0.5), x).q_applied[0]),
        "evolve_state": lambda x: evolve_state(WaveState([1.0, 0.0]), HamiltonianSpec(sx), x).time,
        "matrix_exponential": lambda x: matrix_exponential(sx, x)[0, 1],
    }


class TestRealScalars:
    """A real scalar is a Python or numpy number, never a bool or a str; every
    refusal is a ValidationError, never a numpy or indexing error."""

    @pytest.mark.parametrize("site, x, message", [
        ("PipelineStage.duration", "1", "stage duration must be a real number, got '1'"),
        ("PipelineStage.duration", True, "stage duration must be a real number, got True"),
        ("PipelineStage.duration", 1j, "stage duration must be a real number, got 1j"),
        ("PipelineStage.duration", np.nan, "stage duration must be finite and >= 0"),
        ("PipelineStage.duration", 10 ** 400, "stage duration must be finite and >= 0"),
        ("PipelineStage.duration", -1, "stage duration must be finite and >= 0"),
        ("WaveState.time", "0", "time must be a real number, got '0'"),
        ("WaveState.time", np.array(0.0), "time must be a real number, got array(0.)"),
        ("WaveState.time", np.inf, "time must be finite"),
        ("AmplitudeMatrix.times", (0.0,), "invalid time pair (0.0,)"),
        ("AmplitudeMatrix.times", 1.0, "invalid time pair 1.0"),
        ("AmplitudeMatrix.times", (0.0, "1"), "time must be a real number, got '1'"),
        ("AmplitudeMatrix.times", (0.0, np.nan), "invalid time pair (0.0, nan)"),
        ("AmplitudeMatrix.times", (1.0, 0.0), "invalid time pair (1.0, 0.0)"),
        ("broken_symmetry_probabilities", "0.1",
         "interference magnitude must be a real number, got '0.1'"),
        ("broken_symmetry_probabilities", False,
         "interference magnitude must be a real number, got False"),
        ("broken_symmetry_probabilities", np.nan,
         "interference magnitude must lie in [0, 1], got nan"),
        ("broken_symmetry_probabilities", 2, "interference magnitude must lie in [0, 1], got 2"),
        ("evolve_state", "1", "time must be a real number, got '1'"),
        ("evolve_state", np.nan, "propagation times must be finite"),
        ("matrix_exponential", True, "time must be a real number, got True"),
        ("matrix_exponential", np.inf, "time must be finite"),
    ], ids=lambda v: "10**400" if type(v) is int and v > 10 ** 300 else None)
    def test_refusal_is_a_validation_error(self, site, x, message):
        with pytest.raises(ValidationError) as info:
            _real_scalar_sites()[site](x)
        assert type(info.value) is ValidationError
        assert str(info.value) == message

    @pytest.mark.parametrize("site", sorted(_real_scalar_sites()))
    def test_numpy_numbers_are_accepted(self, site):
        call = _real_scalar_sites()[site]
        if site == "AmplitudeMatrix.times":
            assert call((np.int64(0), np.float32(1.0))) == call([0, 1]) == (0.0, 1.0)
            return
        want = call(1.0)
        for x in (1, np.int64(1), np.float64(1.0), np.float32(1.0)):
            assert call(x) == want
