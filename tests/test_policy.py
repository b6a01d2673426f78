"""The operator-validation tolerance: process-wide value and scoped overrides."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from qprospect import ValidationError, policy, set_tolerance, tolerance, tolerance_scope
from qprospect.events import DensityOperator


class TestToleranceScope:
    def test_nested_scopes_restore_the_outer_value(self):
        base = tolerance()
        with tolerance_scope(1e-6):
            assert tolerance() == 1e-6
            with tolerance_scope(1e-3):
                assert tolerance() == 1e-3
            assert tolerance() == 1e-6
        assert tolerance() == base

    def test_an_exception_inside_a_scope_restores_the_value(self):
        base = tolerance()
        with pytest.raises(ValidationError):
            with tolerance_scope(1e-3):
                DensityOperator([[1.0, 0.0], [0.0, 0.5]])  # breaks unit trace
        assert tolerance() == base

    def test_a_scope_governs_validation(self):
        off_trace = [[1.0 + 1e-6, 0.0], [0.0, 0.0]]
        with pytest.raises(ValidationError, match="breaks unit trace"):
            DensityOperator(off_trace)
        with tolerance_scope(1e-5):
            DensityOperator(off_trace)

    def test_two_threads_in_different_scopes_see_their_own_value(self):
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def work(value):
            with tolerance_scope(value):
                barrier.wait()  # both scopes are open now
                seen[value] = tolerance()
                barrier.wait()

        threads = [threading.Thread(target=work, args=(v,)) for v in (1e-4, 1e-7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen == {1e-4: 1e-4, 1e-7: 1e-7}

    def test_set_tolerance_inside_a_scope_lasts_until_it_exits(self):
        base = tolerance()
        with tolerance_scope(1e-6):
            assert set_tolerance(1e-4) == 1e-6
            assert tolerance() == 1e-4
        assert tolerance() == base

    def test_set_tolerance_outside_a_scope_is_process_wide(self):
        previous = set_tolerance(1e-7)
        try:
            seen = []
            thread = threading.Thread(target=lambda: seen.append(tolerance()))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert seen == [1e-7]
        finally:
            set_tolerance(previous)
        assert tolerance() == previous

    @pytest.mark.parametrize("value", [0.0, 1.0, -1e-3, float("nan")])
    def test_out_of_range_values_are_refused(self, value):
        base = tolerance()
        with pytest.raises(ValueError, match="tolerance must be in"):
            with tolerance_scope(value):
                pass  # pragma: no cover
        with pytest.raises(ValueError, match="tolerance must be in"):
            policy.set_tolerance(value)
        assert tolerance() == base

    @pytest.mark.parametrize("value", ["0.5", "x", True, np.True_, None, 0.5j, [0.5]])
    def test_values_that_are_not_real_numbers_are_refused(self, value):
        base = tolerance()
        with pytest.raises(ValueError, match="tolerance must be a real number, got"):
            with tolerance_scope(value):
                pass  # pragma: no cover
        with pytest.raises(ValueError, match="tolerance must be a real number, got"):
            policy.set_tolerance(value)
        assert tolerance() == base

    @pytest.mark.parametrize("value", [1e-6, np.float64(1e-6), np.float32(1e-6),
                                       np.longdouble(1e-6)])
    def test_python_and_numpy_reals_are_accepted(self, value):
        with tolerance_scope(value):
            assert tolerance() == float(value)
        with tolerance_scope(1e-3):
            assert set_tolerance(value) == 1e-3
            assert type(tolerance()) is float

    def test_policy_imports_no_numpy(self):
        src = os.path.dirname(os.path.dirname(policy.__file__))
        code = "import sys; sys.path.insert(0, sys.argv[1]); import qprospect.policy; " \
               "print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
        assert result.stdout == "False\n", result.stderr
