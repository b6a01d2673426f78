"""Linear-algebra primitives: tensor products, partial traces, exponentials."""

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
    matrix_exponential,
    partial_trace,
    spectral_norm,
    tensor_product,
)
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
