"""Direct checks of the scalar primitives in ``optimize``."""

import math

import pytest

from compensator_bounds.optimize import golden_max


def bump(x):
    return -(x - 0.3) ** 2


class TestGoldenMax:
    def test_concave_quadratic(self):
        value, arg = golden_max(bump, 0.0, 1.0)
        assert arg == pytest.approx(0.3, abs=1e-9)
        assert value == bump(arg)

    def test_increasing_ends_within_stop_width_of_upper_end(self):
        # The bracket ends are never probed, so the argmax is the last
        # probe, inside the 2e-14 stop width of [0, 2] once enough
        # contractions are allowed to reach it.
        value, arg = golden_max(lambda x: x, 0.0, 2.0, 100)
        assert value == arg
        assert 2.0 - 2e-14 <= arg < 2.0

    def test_constant_ties_to_first_probe(self):
        c = 2.0 - (math.sqrt(5.0) - 1.0) / 2.0 * 1.5
        assert golden_max(lambda x: 1.0, 0.5, 2.0) == (1.0, c)

    @pytest.mark.parametrize("iters", [0, 1, 5, 20])
    def test_one_call_per_contraction_and_none_at_the_ends(self, iters):
        calls = []

        def counted(x):
            calls.append(x)
            return bump(x)

        golden_max(counted, 0.0, 1.0, iters)
        assert len(calls) == iters + 2
        assert 0.0 not in calls and 1.0 not in calls

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
