"""Linear-algebra primitives: tensor products, partial traces, exponentials."""

import ast
import inspect
import json
import pathlib
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qprospect import (
    DimensionMismatchError,
    NumericContractError,
    ScenarioError,
    SizeLimitError,
    ValidationError,
    ZeroProbabilityError,
    matrix_exponential,
    partial_trace,
    spectral_norm,
    tensor_product,
)
import qprospect
from qprospect import policy, qcore
from qprospect.scenario import parse_scenario
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
        assert w is None  # proved positive by the factorization, not decomposed
        kept = np.linalg.eigvalsh(rho)
        assert validate_state(rho, "state", spectrum=kept)[1] is kept
        with policy.tolerance_scope(1e-15):  # too tight for the factorization's proof
            assert np.array_equal(validate_state(rho, "state")[1], np.linalg.eigvalsh(rho))

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


def planted_state(d, low, rng):
    """A Hermitian unit-trace matrix with lowest eigenvalue ``low``, the rest positive."""
    w = rng.uniform(0.5, 1.5, size=d)
    w[0] = 0.0
    w *= (1.0 - low) / w.sum()
    w[0] = low
    u = random_unitary(d, rng)
    a = (u * w) @ u.conj().T
    return (a + a.conj().T) / 2.0


def positivity_decision(a):
    """``validate_state``'s accept (True), or the positivity refusal it raised."""
    try:
        validate_state(a, "rho")
    except ValidationError as exc:
        assert "not positive-semidefinite" in str(exc)
        return exc
    return True


class TestPositivityByFactorization:
    """A Cholesky factorization accepts and ``eigvalsh`` judges the rest; it decides as eigvalsh."""

    @pytest.mark.parametrize("tol", [None, 1e-6, 1e-14], ids=["default", "1e-6", "1e-14"])
    @pytest.mark.parametrize("d", [2, 16, 64, 256])
    def test_decisions_match_eigvalsh(self, d, tol, decomposed_sizes, rng):
        with policy.tolerance_scope(policy.tolerance() if tol is None else tol):
            t = policy.tolerance()
            for k in (0.4, 0.6, 1.5, 2.0):
                a = planted_state(d, -k * t, rng)
                low = np.linalg.eigvalsh(a).min()  # the reference: eigvalsh alone
                for sizes in decomposed_sizes.values():
                    sizes.clear()
                got = positivity_decision(a)
                assert (got is True) == (-low <= t)
                if got is not True:
                    # the refusal of eigvalsh alone, word for word and field for field
                    assert str(got) == f"rho not positive-semidefinite: lowest eigenvalue {low:.3e}"
                    assert got.measured == -low and got.bound == t
                if tol != 1e-14:  # the rounding of the planting is far inside t
                    assert (got is True) == (k < 1.0)
                    # -0.4 t is accepted by the factorization alone; the others
                    # fail it and are judged by eigvalsh
                    assert decomposed_sizes["cholesky"] == [d]
                    assert decomposed_sizes["eigvalsh"] == ([] if k == 0.4 else [d])

    def test_tiny_tolerance_skips_the_factorization_at_large_d(self, decomposed_sizes, rng):
        a = random_density(256, rng).matrix
        decomposed_sizes["cholesky"].clear()
        with policy.tolerance_scope(1e-13):
            assert validate_state(a, "rho")[1] is not None
        assert decomposed_sizes == {"eigh": [], "eigvalsh": [256], "cholesky": []}

    def test_nan_factor_is_refused(self):
        # Hermitian, unit trace and finite, with lowest eigenvalue about
        # -3.39e299; on some LAPACK builds potrf finishes on the NaN pivot
        # that the overflow makes and raises nothing, so only a finite
        # factor counts as a proof
        a = np.eye(16, dtype=complex) / 16.0
        a[4, 12] = -9.4e195 - 3.39e299j
        a[12, 4] = a[4, 12].conjugate()
        low = np.linalg.eigvalsh(a).min()
        assert low < -3e299
        with pytest.raises(ValidationError, match=r"rho not positive-semidefinite: lowest "
                                                  r"eigenvalue -3\.39\de\+299$"):
            validate_state(a, "rho")


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

    @pytest.mark.parametrize("c", [[0.6, 0.8], np.zeros((1, 0)), np.ones((1, 1, 1))],
                             ids=["1-d", "empty", "3-d"])
    def test_amplitude_matrix_must_be_two_dimensional(self, c):
        with pytest.raises(DimensionMismatchError) as info:
            as_amplitude_matrix(c, 1e-10)
        assert str(info.value) == f"amplitude matrix must be 2-d, got shape {np.shape(c)}"

    def test_probability_window(self):
        assert real_probability(1.0 + 1e-14, "p") == 1.0
        assert real_probability(-1e-14, "p") == 0.0
        with pytest.raises(NumericContractError):
            real_probability(1.5, "p")
        with pytest.raises(NumericContractError):
            real_probability(0.5 + 1e-6j, "p")

    def test_window_edges_sit_at_the_tolerance(self):
        for scale in (0.5, 1.0, 40.0):
            w = policy.PROBABILITY_TOL * max(1.0, scale)
            inside = [0.5 * scale + 0.5j * w, -0.5 * w, 0.5 * w, scale - 0.5 * w,
                      scale + 0.5 * w]
            assert np.array_equal(real_probabilities(inside, "p", scale),
                                  [0.5 * scale, 0.0, 0.5 * w, scale - 0.5 * w, scale])
            for bad in (0.5 * scale + 2j * w, 0.5 * scale - 2j * w, -2 * w, scale + 2 * w):
                with pytest.raises(NumericContractError):
                    real_probability(bad, "p", scale)
                with pytest.raises(NumericContractError, match=r"^p\[1\]"):
                    real_probabilities([0.5 * scale, bad], "p", scale)

    def test_scalar_window_messages_name_no_index(self):
        with pytest.raises(NumericContractError, match=r"^p = 1\.5 lies outside "
                           r"\[-1e-12, 1 \+ 1e-12\]$") as info:
            real_probability(1.5, "p")
        assert (info.value.measured, info.value.bound) == (0.5, policy.PROBABILITY_TOL)
        with pytest.raises(NumericContractError,
                           match=r"^p has imaginary residue 1\.000e-06") as info:
            real_probability(0.5 + 1e-6j, "p")
        assert (info.value.measured, info.value.bound) == (1e-6, policy.PROBABILITY_TOL)

    @pytest.mark.parametrize("value, scale, measured, message", [
        (-3.0, 2.0, 3.0, "p = -3.0 lies outside [-2e-12, 2 + 2e-12]"),
        (5.0, 2.0, 3.0, "p = 5.0 lies outside [-2e-12, 2 + 2e-12]"),
        (0.5 + 1e-6j, 40.0, 1e-6, "p has imaginary residue 1.000e-06 beyond 4.0e-11"),
        (0.5 - 1e-6j, 0.5, 1e-6, "p has imaginary residue -1.000e-06 beyond 1.0e-12"),
        (np.inf, 1.0, np.inf, "p = inf lies outside [-1e-12, 1 + 1e-12]"),
    ], ids=["below", "above", "imaginary", "negative-imaginary", "infinite"])
    def test_refusals_carry_measured_and_bound(self, value, scale, measured, message):
        with pytest.raises(NumericContractError, match=f"^{re.escape(message)}$") as info:
            real_probability(value, "p", scale)
        assert info.value.measured == measured
        assert info.value.bound == policy.PROBABILITY_TOL * max(1.0, scale)
        with pytest.raises(NumericContractError, match=r"^p = nan lies outside") as info:
            real_probability(float("nan"), "p", scale)
        assert np.isnan(info.value.measured)

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
    from qprospect import channels
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
        "evolve.small_generator": (
            lambda: channels.evolve(CompositeState.from_amplitudes(np.diag([0.6, 0.8])),
                                    np.eye(2), 0.5),
            "generator dim 2 vs state dim 4"),
        "evolve.large_generator": (lambda: channels.evolve(mixed(2), np.eye(4), 0.5),
                                   "generator dim 4 vs state dim 2"),
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
    from qprospect import (AmplitudeMatrix, GameSpec, HamiltonianSpec, PipelineStage,
                           ProspectProbability, WaveState, bell_state,
                           broken_symmetry_probabilities, entanglement_production, evolve_state)
    c = np.full((2, 2), 0.5)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    joint = np.full((2, 2), 0.25)
    return {
        "HamiltonianSpec.pieces": lambda x: HamiltonianSpec(sx, ((x, sx),)).pieces[0][0],
        "GameSpec.payoffs": lambda x: GameSpec(joint, (3, 0, 5, x)).payoffs,
        "broken_symmetry_probabilities.f": lambda x: (
            broken_symmetry_probabilities((x, 0), 0.1).p),
        "broken_symmetry_probabilities.empirical_reference": lambda x: (
            broken_symmetry_probabilities((0.5, 0.5), 0.1, empirical_reference=(x, 0))
            .deviations()),
        "entanglement_production.log_base": lambda x: (
            entanglement_production(bell_state(2), 2 * x).epsilon),
        "ProspectProbability": lambda x: ProspectProbability(x, x, 0).p,
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
        ("HamiltonianSpec.pieces", True, "piece 0 must be a (start, matrix) pair"),
        ("HamiltonianSpec.pieces", np.inf, "piece 0 has non-finite start time"),
        ("GameSpec.payoffs", np.inf, "payoffs must be 4 numbers, got (3, 0, 5, inf)"),
        ("GameSpec.payoffs", False, "payoffs must be 4 numbers, got (3, 0, 5, False)"),
        ("broken_symmetry_probabilities.f", "1",
         "classical weight must be a real number, got '1'"),
        ("broken_symmetry_probabilities.f", np.nan,
         "classical weights must be two finite numbers, got (nan, 0)"),
        ("broken_symmetry_probabilities.empirical_reference", None,
         "empirical reference must be a real number, got None"),
        ("broken_symmetry_probabilities.empirical_reference", np.inf,
         "empirical reference must be two finite numbers, got (inf, 0)"),
        ("entanglement_production.log_base", np.inf,
         "log base must be finite and exceed 1, got inf"),
        ("entanglement_production.log_base", 0.5, "log base must be finite and exceed 1, got 1.0"),
        ("ProspectProbability", "0.5", "prospect probability field p must be a real number, "
         "got '0.5'"),
        ("ProspectProbability", np.nan, "prospect probability field p is not finite"),
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


SX = np.array([[0.0, 1.0], [1.0, 0.0]])
BOOL = np.array([[True, False], [False, False]])


def _refused_inputs():
    """Each input that was once coerced, cut or answered with a numpy error,
    as ``id: (call, the field its message names)``."""
    from qprospect import (CompositeState, DensityOperator, GameSpec, HamiltonianSpec,
                           InterferenceDistribution, MultimodeState, Observable,
                           ProspectProbability, WaveState, bell_state,
                           broken_symmetry_probabilities, entanglement_production)
    joint = np.full((2, 2), 0.25)
    eye = np.eye(2)
    return {
        "from_pure-bool": (lambda: DensityOperator.from_pure([True, False]), "state vector"),
        "from_pure-str": (lambda: DensityOperator.from_pure(["1", "0"]), "state vector"),
        "from_pure-ragged": (lambda: DensityOperator.from_pure([[1], [0, 0]]), "state vector"),
        "density-bool": (lambda: DensityOperator(BOOL), "density operator"),
        "density-ragged": (lambda: DensityOperator([[1, 0], [0]]), "density operator"),
        "density-dict": (lambda: DensityOperator({"a": 1}), "density operator"),
        "eigenvalues-str": (lambda: Observable(["0", "1"], eye), "eigenvalue"),
        "eigenvalues-bool": (lambda: Observable([True, False], eye), "eigenvalue"),
        "eigenvalues-complex": (lambda: Observable(np.array([0.0, 1j]), eye), "eigenvalue"),
        "eigenvalues-ragged": (lambda: Observable([[0], [1, 2]], eye), "eigenvalue"),
        "eigenbasis-bool": (lambda: Observable([0, 1], np.eye(2, dtype=bool)), "eigenbasis"),
        "multimode-str": (lambda: MultimodeState.in_standard_basis(["1", "1"]), "coefficients"),
        "wave-bool": (lambda: WaveState([True, False]), "coefficients"),
        "amplitudes-bool": (lambda: CompositeState.from_amplitudes(BOOL), "amplitude matrix"),
        "tensor_product-bool": (lambda: tensor_product(BOOL, eye), "first factor"),
        "joint-str": (lambda: GameSpec([["0.5", "0"], ["0", "0.5"]]), "joint table"),
        "joint-bool": (lambda: GameSpec(BOOL), "joint table"),
        "joint-complex": (lambda: GameSpec(joint + 1e-3j * SX), "joint table"),
        "joint-ragged": (lambda: GameSpec([[0.5, 0.5], [0]]), "joint table"),
        "payoffs-str-bool": (lambda: GameSpec(joint, ("3", 0, 5, True)), "payoffs"),
        "tabulated-str": (lambda: InterferenceDistribution.tabulated(["-1", "1"], ["0.5", "0.5"]),
                          "tabulated grid"),
        "tabulated-ragged": (lambda: InterferenceDistribution.tabulated([[-1], [0, 1]],
                                                                         [0.5, 0.5]),
                             "tabulated grid"),
        "pdf-str": (lambda: InterferenceDistribution.uniform().pdf("0.5"), "q"),
        "pdf-nan": (lambda: InterferenceDistribution.uniform().pdf([0.5, np.nan]), "q"),
        "piece-str": (lambda: HamiltonianSpec(eye, [("1", SX)]), "piece 0"),
        "piece-bool": (lambda: HamiltonianSpec(eye, [(True, SX)]), "piece 0"),
        "f-str": (lambda: broken_symmetry_probabilities(("0.5", "0.5"), 0.1), "classical weight"),
        "f-bool": (lambda: broken_symmetry_probabilities((True, 0), 0.1), "classical weight"),
        "empirical-str": (lambda: broken_symmetry_probabilities(
            (0.5, 0.5), 0.1, empirical_reference=("a", 1)), "empirical reference"),
        "log_base-str": (lambda: entanglement_production(bell_state(2), "2"), "log base"),
        "log_base-array": (lambda: entanglement_production(bell_state(2), np.array([2, 3])),
                           "log base"),
        "prospect-str": (lambda: ProspectProbability("0.5", 0.5, 0.0), "field p"),
    }


def _accepted_arrays():
    """Each library call that reads a caller's array, as ``site: (call, dtype)``:
    ``call(x)`` must equal ``call(np.asarray(x, dtype))`` bit for bit."""
    from qprospect import (CompositeState, DensityOperator, GameSpec, InterferenceDistribution,
                           MultimodeState, Observable, WaveState)
    return {
        "DensityOperator": (lambda m: DensityOperator(m).matrix, complex),
        "DensityOperator.from_pure": (lambda v: DensityOperator.from_pure(v).matrix, complex),
        "Observable.eigenvalues": (lambda v: Observable(v, np.eye(2)).eigenvalues, float),
        "Observable.eigenbasis": (lambda u: Observable([0, 1], u).eigenbasis, complex),
        "MultimodeState": (lambda b: MultimodeState.in_standard_basis(b).coefficients, complex),
        "WaveState": (lambda c: WaveState(c).coefficients, complex),
        "CompositeState.from_amplitudes": (
            lambda c: CompositeState.from_amplitudes(c).matrix, complex),
        "tensor_product": (lambda a: tensor_product(a, np.eye(2)), complex),
        "GameSpec.joint": (lambda t: GameSpec(t).joint, float),
        "InterferenceDistribution.grid": (
            lambda g: InterferenceDistribution.tabulated(g, [0.5, 0.5]).grid, float),
        "InterferenceDistribution.density": (
            lambda y: InterferenceDistribution.tabulated([-1, 0, 1], y).density, float),
        "InterferenceDistribution.pdf": (lambda q: InterferenceDistribution.uniform().pdf(q),
                                         float),
    }


HALF = np.full(4, 0.5)


class TestCallerNumbers:
    """Every caller's array is read by ``qcore._require_numbers`` and every real
    scalar by ``qcore._require_real``: a ``bool``, ``str``, object, ragged or
    (for a real field) complex input is a ValidationError naming its field,
    never a numpy error, a warning or a silent coercion."""

    @pytest.mark.parametrize("case", sorted(_refused_inputs()))
    def test_refused_with_the_field_named(self, case):
        call, field = _refused_inputs()[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                call()
        assert field in str(info.value)

    @pytest.mark.parametrize("site, x", [
        ("DensityOperator", [[1, 0], [0, 0]]),
        ("DensityOperator", np.array([[0, 0], [0, 1]], dtype=np.int64)),
        ("DensityOperator", np.diag([0.5, 0.5]).astype(np.float32)),
        ("DensityOperator", np.array([[0.5, 0.5j], [-0.5j, 0.5]])),
        ("DensityOperator.from_pure", [0, 1]),
        ("DensityOperator.from_pure", np.array([1, 0], dtype=np.int64)),
        ("DensityOperator.from_pure", HALF.astype(np.float32)),
        ("DensityOperator.from_pure", np.array([0.6, 0.8j])),
        ("Observable.eigenvalues", [0, 1]),
        ("Observable.eigenvalues", np.array([2, -1], dtype=np.int64)),
        ("Observable.eigenvalues", np.array([0.1, 0.7], dtype=np.float32)),
        ("Observable.eigenvalues", [np.float64(0.25), np.float64(-3.5)]),
        ("Observable.eigenbasis", [[0, 1], [1, 0]]),
        ("Observable.eigenbasis", np.eye(2, dtype=np.int64)),
        ("Observable.eigenbasis", np.eye(2, dtype=np.float32)),
        ("Observable.eigenbasis", np.array([[0, 1j], [1j, 0]])),
        ("MultimodeState", [1, 2]),
        ("MultimodeState", np.array([3, 0], dtype=np.int64)),
        ("MultimodeState", np.array([0.1, 0.2], dtype=np.float32)),
        ("MultimodeState", np.array([1.0, 1j])),
        ("WaveState", [0, 1]),
        ("WaveState", HALF.astype(np.float32)),
        ("WaveState", np.array([0.6j, 0.8])),
        ("CompositeState.from_amplitudes", [[1, 0], [0, 0]]),
        ("CompositeState.from_amplitudes", np.eye(2, dtype=np.int64)[:1]),
        ("CompositeState.from_amplitudes", HALF.reshape(2, 2).astype(np.float32)),
        ("CompositeState.from_amplitudes", np.array([[0.5, 0.5j], [0.5, -0.5]])),
        ("tensor_product", np.eye(2, dtype=np.int64)),
        ("tensor_product", np.array([[1, 2], [3, 4]], dtype=np.float32)),
        ("GameSpec.joint", [[1, 0], [0, 0]]),
        ("GameSpec.joint", np.array([[0, 0], [0, 1]], dtype=np.int64)),
        ("GameSpec.joint", np.full((2, 2), 0.25, dtype=np.float32)),
        ("InterferenceDistribution.grid", [-1, 1]),
        ("InterferenceDistribution.grid", np.array([-1, 1], dtype=np.int64)),
        ("InterferenceDistribution.grid", np.array([-1, 1], dtype=np.float32)),
        ("InterferenceDistribution.density", [0, 1, 0]),
        ("InterferenceDistribution.density", np.array([0, 1, 0], dtype=np.float32)),
        ("InterferenceDistribution.pdf", 0),
        ("InterferenceDistribution.pdf", np.float64(0.5)),
        ("InterferenceDistribution.pdf", np.array([0.5, 2.0], dtype=np.float32)),
        ("InterferenceDistribution.pdf", np.array([-1, 3], dtype=np.int64)),
        ("InterferenceDistribution.pdf", np.inf),
        ("InterferenceDistribution.pdf", [-np.inf, 0.3, np.inf]),
    ])
    def test_numbers_are_read_as_numpy_casts_them(self, site, x):
        call, dtype = _accepted_arrays()[site]
        got, want = call(x), call(np.asarray(x, dtype=dtype))
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        assert getattr(got, "dtype", None) == getattr(want, "dtype", None)

    @pytest.mark.parametrize("reader", ["as_complex_matrix", "as_complex_vector",
                                        "as_amplitude_matrix"])
    def test_array_readers_share_one_check(self, reader):
        # each keeps only its shape and cap rules; dtype and finiteness are
        # _require_numbers' alone
        source = inspect.getsource(getattr(qcore, reader))
        assert "_require_numbers(" in source
        assert "isfinite" not in source and "dtype" not in source


class TestDomainArguments:
    """A domain object of the wrong type is a ValidationError naming the
    argument, caught by the guard the call already passes through."""

    @pytest.mark.parametrize("case", ["born_distribution", "MultimodeState", "prospect_lattice",
                                      "conditional_under_uncertainty", "Prospect"])
    def test_wrong_type_is_refused_by_name(self, case):
        from qprospect import (MultimodeState, Observable, Prospect, bell_state,
                               born_distribution, conditional_under_uncertainty,
                               prospect_lattice)
        state = bell_state(2)
        call, argument = {
            "born_distribution": (lambda: born_distribution("x", Observable.standard(2)), "rho"),
            "MultimodeState": (lambda: MultimodeState([1, 0], "x"), "multimode basis"),
            "prospect_lattice": (lambda: prospect_lattice(state, "x"), "multimode state b"),
            "conditional_under_uncertainty": (
                lambda: conditional_under_uncertainty(state, Prospect(0, "x")), "prospect b"),
            "Prospect": (lambda: Prospect(0, "x"), "prospect b"),
        }[case]
        with pytest.raises(ValidationError, match=f"^{argument} must be an? [A-Za-z]+, got str$"):
            call()

    @pytest.mark.parametrize("case", ["joint_probability", "joint_table", "marginals",
                                      "bayes_conditional", "prospect_lattice",
                                      "prospect_probability", "prospect_probability-raw",
                                      "conditional_under_uncertainty",
                                      "entanglement_production"])
    def test_plain_state_is_not_a_composite_state(self, case):
        # a CompositeState goes wherever a DensityOperator does, not the reverse
        from qprospect import (DensityOperator, MultimodeState, Prospect, bayes_conditional,
                               conditional_under_uncertainty, entanglement_production,
                               joint_probability, joint_table, marginals, prospect_lattice,
                               prospect_probability)
        rho = DensityOperator.maximally_mixed(4)
        b = MultimodeState.in_standard_basis([1.0, 1.0])
        call = {
            "joint_probability": lambda: joint_probability(rho, 0, 0),
            "joint_table": lambda: joint_table(rho),
            "marginals": lambda: marginals(rho),
            "bayes_conditional": lambda: bayes_conditional(rho, 0, 0),
            "prospect_lattice": lambda: prospect_lattice(rho, b),
            "prospect_probability": lambda: prospect_probability(rho, Prospect(0, b)),
            "prospect_probability-raw": lambda: prospect_probability(rho, Prospect(0, b), False),
            "conditional_under_uncertainty": lambda: conditional_under_uncertainty(
                rho, Prospect(0, b)),
            "entanglement_production": lambda: entanglement_production(rho),
        }[case]
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == "state must be a CompositeState, got DensityOperator"

    @pytest.mark.parametrize("case, argument", [
        ("born_probability", "obs"), ("born_distribution", "obs"), ("expected_value", "obs"),
        ("most_probable", "obs"), ("wigner_table", "obs_a"), ("wigner_table", "obs_b"),
        ("kirkwood_table", "obs_b"), ("wigner_distribution", "obs_a"),
        ("kirkwood_form", "obs_b"), ("identity_chain_residual", "obs_a"),
        ("transition_matrix", "obs_a"), ("transition_matrix", "obs_b"),
        ("basis_change", "obs_a"), ("basis_change", "obs_b"),
    ])
    @pytest.mark.parametrize("value", [None, np.eye(2)], ids=["None", "matrix"])
    def test_non_observable_is_refused_by_name(self, case, argument, value):
        from qprospect import (DensityOperator, Observable, basis_change, born_distribution,
                               born_probability, expected_value, identity_chain_residual,
                               kirkwood_form, kirkwood_table, most_probable, transition_matrix,
                               wigner_distribution, wigner_table)
        rho, obs = DensityOperator.maximally_mixed(2), Observable.standard(2)
        a, b = (value, obs) if argument == "obs_a" else (obs, value)
        call = {
            "born_probability": lambda: born_probability(rho, value, 0),
            "born_distribution": lambda: born_distribution(rho, value),
            "expected_value": lambda: expected_value(rho, value),
            "most_probable": lambda: most_probable(rho, value),
            "wigner_table": lambda: wigner_table(rho, a, b),
            "kirkwood_table": lambda: kirkwood_table(rho, a, b),
            "wigner_distribution": lambda: wigner_distribution(rho, a, 0, b, 0),
            "kirkwood_form": lambda: kirkwood_form(rho, a, 0, b, 0),
            "identity_chain_residual": lambda: identity_chain_residual(rho, a, 0, b),
            "transition_matrix": lambda: transition_matrix(a, b),
            "basis_change": lambda: basis_change(a, b),
        }[case]
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == (f"{argument} must be an Observable, "
                                   f"got {type(value).__name__}")


BIG = 10 ** 5000  # str() refuses an int past 4300 digits
SHOWN = {"big": f"<{BIG.bit_length()}-bit integer>", "-big": f"-<{BIG.bit_length()}-bit integer>",
         "1e400": "<1329-bit integer>", "-1e400": "-<1329-bit integer>",
         "1e300": "<997-bit integer>"}


def _huge_integer_calls():
    """Each call that once formatted a caller's huge integer whole, or failed
    to, as ``id: (call, the words its refusal starts with, the integer as shown)``."""
    from qprospect import (AmplitudeMatrix, DensityOperator, GameSpec, InterferenceDistribution,
                           MeasurerSpec, MultimodeState, Observable, Prospect, bell_state,
                           born_probability, broken_symmetry_probabilities,
                           entanglement_production, joint_probability, monte_carlo_cohort,
                           two_time_joint)
    state, obs, rho = bell_state(2), Observable.standard(2), DensityOperator.maximally_mixed(2)
    amp = AmplitudeMatrix(np.eye(2) / np.sqrt(2.0), (0.0, 1.0))
    spec, uniform = GameSpec(np.full((2, 2), 0.25)), InterferenceDistribution.uniform()
    b = MultimodeState.in_standard_basis([1.0, 1.0])

    def directive(name, key, x):
        doc = json.loads((DATA / f"{name}.json").read_text())
        doc["run"][key] = x
        return parse_scenario(json.dumps(doc))

    def magnitude(x):
        return broken_symmetry_probabilities((0.5, 0.5), x)

    return {
        "bell_state": (lambda: bell_state(-BIG), "need at least two modes", "-big"),
        "joint_probability": (lambda: joint_probability(state, BIG, 0), "event indices", "big"),
        "Observable.vector": (lambda: obs.vector(BIG), "outcome index", "big"),
        "born_probability": (lambda: born_probability(rho, obs, BIG), "outcome index", "big"),
        "two_time_joint": (lambda: two_time_joint(amp, BIG, 0), "mode indices", "big"),
        "Prospect": (lambda: Prospect(-BIG, b), "prospect index", "-big"),
        "maximally_mixed": (lambda: DensityOperator.maximally_mixed(-BIG), "dim", "-big"),
        "MeasurerSpec": (lambda: MeasurerSpec(-BIG, rho, np.eye(4)), "measurer dimension",
                         "-big"),
        "MeasurerSpec-positive": (lambda: MeasurerSpec(BIG, rho, np.eye(4)),
                                  "measurer ready state", "big"),
        "monte_carlo_cohort.n_pairs": (lambda: monte_carlo_cohort(spec, uniform, BIG),
                                       SHOWN["big"] + " pairs", "big"),
        "monte_carlo_cohort.seed": (lambda: monte_carlo_cohort(spec, uniform, 10, seed=-BIG),
                                    "seed", "-big"),
        "entanglement_production": (lambda: entanglement_production(state, BIG), "log base",
                                    "big"),
        "monte_carlo_cohort.symmetry": (lambda: monte_carlo_cohort(spec, uniform, 10,
                                                                   symmetry=BIG),
                                        "symmetry must be", "big"),
        "monte_carlo_cohort.fixed_q": (lambda: monte_carlo_cohort(spec, uniform, 10,
                                                                  fixed_q=-BIG),
                                       "fixed_q must be a bool", "-big"),
        "broken_symmetry_probabilities": (lambda: magnitude(BIG), "interference magnitude",
                                          "big"),
        "entanglement_production-1e400": (lambda: entanglement_production(state, 10 ** 400),
                                          "log base", "1e400"),
        "entanglement_production--1e400": (lambda: entanglement_production(state, -10 ** 400),
                                           "log base", "-1e400"),
        "broken_symmetry_probabilities-1e400": (lambda: magnitude(10 ** 400),
                                                "interference magnitude", "1e400"),
        "broken_symmetry_probabilities--1e400": (lambda: magnitude(-10 ** 400),
                                                 "interference magnitude", "-1e400"),
        "broken_symmetry_probabilities-1e300": (lambda: magnitude(10 ** 300),
                                                "interference magnitude", "1e300"),
        "run.log_base-1e400": (lambda: directive("bell_entanglement", "log_base", 10 ** 400),
                               "run.log_base: log base", "1e400"),
        "run.log_base--1e400": (lambda: directive("bell_entanglement", "log_base", -10 ** 400),
                                "run.log_base: log base", "-1e400"),
        "run.seed--1e400": (lambda: directive("game_cohort", "seed", -10 ** 400),
                            "run.seed: seed", "-1e400"),
    }


class TestHugeIntegers:
    """A caller's integer too long to show is refused with its sign and bit
    length, never echoed whole nor failing in ``str()``."""

    @pytest.mark.parametrize("case", sorted(_huge_integer_calls()))
    def test_refusal_is_short_and_typed(self, case):
        call, start, shown = _huge_integer_calls()[case]
        with pytest.raises(ValidationError) as info:
            call()
        text = str(info.value)
        assert text.startswith(start) and len(text) <= 200
        assert re.search(f"(^|[ (]){re.escape(SHOWN[shown])}", text)
        if case == "monte_carlo_cohort.n_pairs":
            assert type(info.value) is SizeLimitError

    @pytest.mark.parametrize("x", [2, -3, 2 ** 64 - 1, -(2 ** 64 - 1), np.int64(-5), 1.5, "a",
                                   True, None])
    def test_ordinary_values_show_as_they_are(self, x):
        assert qcore._shown(x) is x

    def test_bounded_form_shows_unquoted(self):
        for x, text in ((2 ** 64, "<65-bit integer>"), (-(2 ** 64), "-<65-bit integer>")):
            got = qcore._shown(x)
            assert str(got) == repr(got) == f"{got}" == f"{got!r}" == text

    def test_overflowing_integer_keeps_its_sign(self):
        for x in (10 ** 400, -10 ** 400):
            with pytest.raises(ValidationError) as info:
                qcore._require_real(x, "x", "{x} is not finite")
            assert str(info.value) == f"{'-' if x < 0 else ''}<1329-bit integer> is not finite"


class TestFlags:
    """Every library flag is read by ``qcore._require_bool``: a Python or numpy
    bool, never a truthy stand-in."""

    @pytest.mark.parametrize("case, flag, value", [
        ("prospect_lattice", "normalize", "no"),
        ("prospect_lattice", "normalize", np.array([0, 0])),
        ("prospect_probability", "normalize", []),
        ("monte_carlo_cohort", "fixed_q", "no"),
        ("ProspectProbability", "normalized", ""),
        ("ProspectProbability", "normalized", 1),
    ], ids=["lattice-str", "lattice-array", "probability-list", "cohort-str",
            "ProspectProbability-str", "ProspectProbability-int"])
    def test_non_bool_flag_is_refused_by_name(self, case, flag, value):
        from qprospect import (GameSpec, InterferenceDistribution, MultimodeState, Prospect,
                               ProspectProbability, bell_state, monte_carlo_cohort,
                               prospect_lattice, prospect_probability)
        state, b = bell_state(2), MultimodeState.in_standard_basis([1.0, 1.0])
        spec = GameSpec(np.array([[0.05, 0.05], [0.45, 0.45]]))
        call = {
            "prospect_lattice": lambda: prospect_lattice(state, b, normalize=value),
            "prospect_probability": lambda: prospect_probability(state, Prospect(0, b),
                                                                 normalize=value),
            "monte_carlo_cohort": lambda: monte_carlo_cohort(
                spec, InterferenceDistribution.uniform(), 10, fixed_q=value),
            "ProspectProbability": lambda: ProspectProbability(1.5, 1.5, 0.0, normalized=value),
        }[case]
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'{flag} must be a bool, got {value!r}')}$"):
            call()

    def test_numpy_bool_is_a_flag(self):
        from qprospect import MultimodeState, bell_state, prospect_lattice
        state, b = bell_state(2), MultimodeState.in_standard_basis([1.0, 2.0])
        for flag in (False, True):
            assert prospect_lattice(state, b, np.bool_(flag)) == prospect_lattice(state, b, flag)



def _choice_sites():
    """Each library site that reads a named choice, as ``site: (call, choices,
    refusal)``: ``call(value)`` passes ``value`` as the choice, and a refused
    value gets ``refusal`` followed by its repr."""
    from qprospect import (GameSpec, InterferenceDistribution, PipelineStage,
                           broken_symmetry_probabilities, monte_carlo_cohort)
    from qprospect.scenario import ResultTable
    spec, uniform = GameSpec(np.full((2, 2), 0.25)), InterferenceDistribution.uniform()
    favored = "favored must be 'cooperate' or 'defect', got "
    return {
        "PipelineStage.kind": (
            lambda v: PipelineStage(v).kind, ("compose", "evolve", "readout", "transform"),
            "stage kind must be 'compose', 'evolve', 'readout' or 'transform', got "),
        "InterferenceDistribution.kind": (
            lambda v: InterferenceDistribution(v).kind, ("uniform", "tabulated"),
            "interference kind must be 'uniform' or 'tabulated', got "),
        "broken_symmetry_probabilities.favored": (
            lambda v: broken_symmetry_probabilities((0.4, 0.6), 0.1, favored=v).p,
            ("cooperate", "defect"), favored),
        "monte_carlo_cohort.favored": (
            lambda v: monte_carlo_cohort(spec, uniform, 10, favored=v, seed=1),
            ("defect", "cooperate"), favored),
        "monte_carlo_cohort.symmetry": (
            lambda v: monte_carlo_cohort(spec, uniform, 10, symmetry=v, seed=1),
            ("intact", "broken"), "symmetry must be 'broken' or 'intact', got "),
        "ResultTable.render": (
            lambda v: ResultTable("t").render(v), ("csv", "table", "json"),
            "run.format: format must be 'table', 'csv' or 'json', got "),
    }


DATA = pathlib.Path(__file__).parent / "data"


def _parser_sites():
    """Each scenario field that the parser reads by a library rule, as ``path:
    (scenario, keys, rule)``: ``keys`` lead to the field in the ``tests/data``
    scenario, and ``rule(value)`` is the library's own reading of ``value``."""
    from qprospect import (GameSpec, InterferenceDistribution, PipelineStage, bell_state,
                           broken_symmetry_probabilities, entanglement_production,
                           monte_carlo_cohort)
    from qprospect.scenario import FORMATS
    spec, uniform = GameSpec(np.full((2, 2), 0.25)), InterferenceDistribution.uniform()
    return {
        "run.format": ("born_plus", ("run", "format"),
                       lambda v: qcore._require_choice(v, FORMATS, "format")),
        "run.log_base": ("bell_entanglement", ("run", "log_base"),
                         lambda v: entanglement_production(bell_state(2), v)),
        "game.favored": ("game_cohort", ("game", "favored"),
                         lambda v: broken_symmetry_probabilities((0.4, 0.6), 0.1, favored=v)),
        "game.cohort.n_pairs": ("game_cohort", ("game", "cohort", "n_pairs"),
                                lambda v: monte_carlo_cohort(spec, uniform, v)),
        "game.cohort.symmetry": ("game_cohort", ("game", "cohort", "symmetry"),
                                 lambda v: monte_carlo_cohort(spec, uniform, 10, symmetry=v)),
        "game.cohort.fixed_q": ("game_cohort", ("game", "cohort", "fixed_q"),
                                lambda v: monte_carlo_cohort(spec, uniform, 10, fixed_q=v)),
        "interference.kind": ("quarter_law_uniform", ("interference", "kind"),
                              InterferenceDistribution),
        "stages[0]": ("pipeline_pointer", ("stages", 0, "kind"), PipelineStage),
    }


class TestChoices:
    """Every named choice is read by ``qcore._require_choice``: a ``str`` among
    the choices, never an array or another stand-in that compares equal."""

    @pytest.mark.parametrize("value", [
        "sideways", None, 1, np.array(["a", "b"]), "one-element array of a choice",
    ], ids=["str", "None", "int", "array", "one-element-array"])
    @pytest.mark.parametrize("site", sorted(_choice_sites()))
    def test_non_choice_is_refused_by_name(self, site, value):
        call, choices, refusal = _choice_sites()[site]
        if isinstance(value, str) and value.startswith("one-element"):
            value = np.array([choices[0]])
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value) == refusal + repr(value)

    @pytest.mark.parametrize("site", sorted(_choice_sites()))
    def test_numpy_str_is_a_choice(self, site):
        call, choices, _ = _choice_sites()[site]
        assert call(np.str_(choices[0])) == call(choices[0])

    @pytest.mark.parametrize("value", ["sideways", None, 1, 1.5, True, ["a", "b"], 10 ** 8],
                             ids=["str", "null", "int", "float", "bool", "list", "large"])
    @pytest.mark.parametrize("path", sorted(_parser_sites()))
    def test_parser_refuses_in_the_library_words(self, path, value):
        name, keys, rule = _parser_sites()[path]
        doc = json.loads((DATA / f"{name}.json").read_text())
        field = doc
        for key in keys[:-1]:
            field = field[key]
        field[keys[-1]] = value
        try:
            rule(value)
        except ValidationError as exc:
            with pytest.raises(ScenarioError) as caught:
                parse_scenario(json.dumps(doc))
            assert str(caught.value) == f"{path}: {exc}"
        else:
            parse_scenario(json.dumps(doc))

class TestHermiticityDefect:
    def test_argument_is_read_as_a_matrix(self):
        assert hermiticity_defect([[1, 2j], [-2j, 3]]) == 0.0
        assert hermiticity_defect([[0, 1], [0, 0]]) == 1.0
        with pytest.raises(DimensionMismatchError, match=r"^matrix must be square"):
            hermiticity_defect(np.zeros((2, 3)))
        with pytest.raises(ValidationError, match=r"^matrix is empty$"):
            hermiticity_defect(np.zeros((0, 0)))
        with pytest.raises(ValidationError, match=r"^matrix has non-finite entries$"):
            hermiticity_defect([[np.nan, 0], [0, 1]])
