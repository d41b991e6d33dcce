"""Direct checks of the scalar primitives in ``optimize``."""

import math

import pytest

from compensator_bounds.optimize import bisect_root, golden_max


def bump(x):
    return -(x - 0.3) ** 2


class TestGoldenMax:
    def test_concave_quadratic(self):
        value, arg = golden_max(bump, 0.0, 1.0)
        assert arg == pytest.approx(0.3, abs=1e-9)
        assert value == bump(arg)

    def test_increasing_returns_upper_end(self):
        assert golden_max(lambda x: x, 0.0, 2.0) == (2.0, 2.0)

    def test_constant_ties_to_lower_end(self):
        assert golden_max(lambda x: 1.0, 0.5, 2.0) == (1.0, 0.5)

    def test_early_collapse_matches_more_iterations(self):
        # The bracket reaches float resolution after about 70
        # contractions, so the loop stops there either way.
        calls = []

        def counted(x):
            calls.append(x)
            return bump(x)

        long_run = golden_max(counted, 0.0, 1.0, 1000)
        assert len(calls) < 100
        assert golden_max(bump, 0.0, 1.0, 100) == long_run

    def test_repeat_calls_are_bit_identical(self):
        first = golden_max(math.sin, 0.0, 3.0)
        second = golden_max(math.sin, 0.0, 3.0)
        assert [v.hex() for v in first] == [v.hex() for v in second]


class TestBisectRoot:
    def test_exact_zero_at_either_end(self):
        assert bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError, match="sign change"):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-12])
    def test_within_tolerance_of_the_root(self, tol):
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, tol)
        assert abs(root - math.sqrt(2.0)) <= tol
