"""Recursion-solver checks.

Closed forms are the oracles wherever they exist: the exponential
family's one-step maximum has an explicit formula, every family's
fixed point is known, and the slope of the one-step objective can be
cross-checked by finite differences.  The light solver configurations
in the long-running tests are safe because the one-step objective is
unimodal in the increment for every built-in family (verified by the
fine-grid scan in ``test_objective_is_unimodal``).
"""

import math

import numpy as np
import pytest

from compensator_bounds import recursion
from compensator_bounds.functions import Family, FunctionSpec, step_argmax
from compensator_bounds.recursion import (
    RecursionStatus,
    SolverConfig,
    fixed_point_bound,
    iterate,
    mixture_objective,
    mixture_objective_deriv,
    optimal_step,
    recursion_sequence,
)

EXP_HALF = FunctionSpec(Family.EXPONENTIAL, 0.5)
EXP_ONE = FunctionSpec(Family.EXPONENTIAL, 1.0)
EXP_15 = FunctionSpec(Family.EXPONENTIAL, 1.5)
EXP_TWO = FunctionSpec(Family.EXPONENTIAL, 2.0)
POW_ONE = FunctionSpec(Family.POWER, 1.0)
POW_TWO = FunctionSpec(Family.POWER, 2.0)
POW_THREE = FunctionSpec(Family.POWER, 3.0)
QUAD = FunctionSpec(Family.QUAD)
REMARK2 = FunctionSpec(Family.REMARK2)

# Random (a, b) sampling ranges per family, kept inside smooth regions.
FD_RANGES = [
    (EXP_HALF, 1.0, 5.0),
    (EXP_ONE, 1.0, 5.0),
    (EXP_TWO, 1.0, 5.0),
    (POW_ONE, 0.05, 3.0),
    (POW_TWO, 0.05, 10.0),
    (POW_THREE, 0.05, 30.0),
    (QUAD, 0.05, 3.0),
    (REMARK2, 1.05, 3.0),
]


@pytest.fixture(scope="module")
def pow2_long_trace():
    cfg = SolverConfig(opt_grid_points=64, refine_iters=28,
                       max_iterations=60000)
    return iterate(POW_TWO, cfg)


@pytest.fixture(scope="module")
def pow3_long_trace():
    cfg = SolverConfig(opt_grid_points=64, refine_iters=28,
                       max_iterations=660000)
    return iterate(POW_THREE, cfg)


class TestMixtureObjective:
    def test_exponential_closed_form(self):
        # For f = exp(x):  objective(a, b) = e^a (a + (1-a) b).
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(1.0, 20.0))
            expect = math.exp(a) * (a + (1.0 - a) * b)
            assert mixture_objective(EXP_ONE, a, b) == pytest.approx(
                expect, rel=1e-14)

    def test_value_at_zero_increment_is_b(self):
        for spec, blo, bhi in FD_RANGES:
            for b in np.linspace(blo, bhi, 7):
                assert mixture_objective(spec, 0.0, float(b)) == pytest.approx(
                    float(b), abs=1e-12)

    def test_out_of_range_increment_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            mixture_objective(QUAD, 1.5, 1.0)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            mixture_objective_deriv(QUAD, -0.1, 1.0)

    def test_objective_is_unimodal(self):
        # At most one interior local maximum in a (beyond float noise),
        # which is what licenses coarse scan grids elsewhere.
        a = np.linspace(0.0, 1.0, 2001)
        for spec, blo, bhi in FD_RANGES:
            for b in np.linspace(blo, bhi, 25):
                v = mixture_objective(spec, a, float(b))
                scale = max(1.0, float(np.max(np.abs(v))))
                d = np.diff(v)
                sign = np.where(d > 1e-12 * scale, 1,
                                np.where(d < -1e-12 * scale, -1, 0))
                sign = sign[sign != 0]
                flips = (int(np.sum((sign[:-1] > 0) & (sign[1:] < 0)))
                         if sign.size > 1 else 0)
                assert flips <= 1, (spec, b)

    def test_deriv_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for spec, blo, bhi in FD_RANGES:
            for _ in range(250):
                a = float(rng.uniform(0.001, 0.999))
                b = float(rng.uniform(blo, bhi))
                h = 1e-6
                fd = (mixture_objective(spec, a + h, b)
                      - mixture_objective(spec, a - h, b)) / (2.0 * h)
                an = mixture_objective_deriv(spec, a, b)
                assert an == pytest.approx(fd, rel=1e-5, abs=1e-5), (spec, a, b)

    def test_deriv_regrouped_identity(self):
        # Splitting the slope into f(a) + a*(slope drop) + (slope-minus-
        # value at the shifted point) must reproduce it to 1e-12.
        rng = np.random.default_rng(19)
        for spec, blo, bhi in FD_RANGES:
            for _ in range(100):
                a = float(rng.uniform(0.0, 1.0))
                b = float(rng.uniform(blo, bhi))
                c = spec.inverse(b)
                h1 = spec.deriv(a) - spec.deriv(a + c)
                h2 = spec.deriv(a + c) - spec.value(a + c)
                regrouped = spec.value(a) + a * h1 + h2
                direct = mixture_objective_deriv(spec, a, b)
                assert regrouped == pytest.approx(direct, abs=1e-12)


class TestOptimalStep:
    def test_exponential_examples(self):
        value, a_star = optimal_step(EXP_ONE, 1.0)
        assert value == pytest.approx(math.e, abs=1e-12)
        assert a_star == 1.0

        value, a_star = optimal_step(EXP_ONE, 3.0)
        assert value == pytest.approx(2.0 * math.exp(0.5), abs=1e-10)
        assert a_star == pytest.approx(0.5, abs=1e-6)

    def test_power_example(self):
        value, a_star = optimal_step(POW_TWO, 0.0)
        assert value == 1.0
        assert a_star == 1.0

    def test_exponential_closed_form_beyond_two(self):
        # For f = exp(x) and b >= 2 the maximum sits at a = 1/(b-1) with
        # value (b-1) * exp(1/(b-1)).
        for b in (2.5, 3.0, 5.0, 10.0, 100.0):
            value, a_star = optimal_step(EXP_ONE, b)
            assert value == pytest.approx(
                (b - 1.0) * math.exp(1.0 / (b - 1.0)), rel=1e-10)
            assert a_star == pytest.approx(1.0 / (b - 1.0), abs=1e-6)

    def test_value_dominates_b(self):
        rng = np.random.default_rng(23)
        for spec, blo, bhi in FD_RANGES:
            for _ in range(25):
                b = float(rng.uniform(blo, bhi))
                value, _ = optimal_step(spec, b)
                assert value >= b

    def test_flat_objective_ties_to_smallest_increment(self):
        # For f(x) = x and b = 1 the objective is identically 1.
        value, a_star = optimal_step(POW_ONE, 1.0)
        assert value == 1.0
        assert a_star == 0.0

    @pytest.mark.parametrize("iters", [0, 1, 5, None])
    def test_refinement_makes_at_most_refine_iters_plus_one_evaluations(
            self, monkeypatch, iters):
        # Only the golden refinement calls the scalar f, twice per
        # objective evaluation; the coarse scan is vectorized.
        calls = []
        real = recursion.scalar_callable

        def counting(spec):
            f = real(spec)

            def counted(x):
                calls.append(x)
                return f(x)
            return counted

        monkeypatch.setattr(recursion, "scalar_callable", counting)
        cfg = SolverConfig() if iters is None else SolverConfig(
            refine_iters=iters)
        optimal_step(QUAD, 3.0, cfg)
        evals = len(calls) // 2
        if iters is None:
            # The default stops once the bracket reaches float resolution.
            assert 0 < evals <= cfg.refine_iters + 1
        else:
            assert evals == (iters + 1 if iters else 0)


class TestClosedFormStep:
    # The families whose one-step maximizer is in closed form; the grid
    # stepper, which the others use, is the oracle.
    SPECS = [EXP_HALF, EXP_ONE, EXP_TWO, POW_TWO, POW_THREE]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_agrees_with_grid_stepper_on_a_ladder(self, spec):
        bound = fixed_point_bound(spec).value
        top = 100.0 if math.isinf(bound) else 0.999 * bound
        closed = recursion._make_stepper(spec, recursion.DEFAULT_CONFIG)
        grid = recursion._grid_stepper(spec, recursion.DEFAULT_CONFIG)
        for b in np.linspace(spec.f_zero, top, 1000):
            value, a_star = closed(float(b))
            grid_value, grid_a = grid(float(b))
            assert value == pytest.approx(grid_value, rel=1e-12, abs=0.0), b
            assert a_star == pytest.approx(grid_a, abs=1e-6), b

    @pytest.mark.parametrize("spec", [POW_TWO, POW_THREE], ids=str)
    def test_convex_power_step_from_zero_takes_the_whole_unit(self, spec):
        # At b = 0 the objective a^{m+1} + (1 - a) a^m is increasing.
        assert optimal_step(spec, 0.0) == (1.0, 1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_exponential_step_from_one_takes_the_whole_unit(self, lam):
        spec = FunctionSpec(Family.EXPONENTIAL, lam)
        assert optimal_step(spec, 1.0) == (math.exp(lam), 1.0)

    def test_ignores_the_grid_settings(self):
        light = SolverConfig(opt_grid_points=2, refine_iters=0)
        for spec in self.SPECS:
            assert optimal_step(spec, 1.5, light) == optimal_step(spec, 1.5)

    def test_other_families_stay_on_the_grid(self):
        for spec in self.SPECS:
            assert step_argmax(spec) is not None
        for spec in (QUAD, REMARK2, POW_ONE,
                     FunctionSpec(Family.POWER, 2.5)):
            assert step_argmax(spec) is None


class TestOverflow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spec, step", [
        (FunctionSpec(Family.EXPONENTIAL, 710.0), 1),
        (FunctionSpec(Family.POWER, 1100.0), 2),
    ], ids=["closed-form", "grid"])
    def test_non_finite_step_is_rejected(self, spec, step):
        # The grid scan once picked a = 1/2047 past the NaN of 0 * inf
        # and reported a finite, wrong b_1 = 1.4146 for exp:lambda=710.
        with pytest.raises(ValueError, match=f"step {step} of {spec}"):
            iterate(spec)


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tol):
        # With tol = inf the critical recursion stopped after one step
        # and reported itself converged.
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(b_tolerance=tol)


class TestIterate:
    def test_exponential_converges(self):
        trace = iterate(EXP_HALF, SolverConfig(b_tolerance=1e-7,
                                               max_iterations=20000))
        assert trace.status is RecursionStatus.CONVERGED
        assert trace.limit == pytest.approx(2.0, abs=1e-3)
        b = np.array(trace.b)
        assert np.all(np.diff(b) >= 0.0)
        # The limit is a near-fixed point of the one-step map.
        value, _ = optimal_step(EXP_HALF, trace.limit)
        assert abs(value - trace.limit) <= 10.0 * 1e-7

    def test_supercritical_exponential_diverges(self):
        trace = iterate(EXP_15)
        assert trace.status is RecursionStatus.DIVERGED
        assert trace.final > 1e6
        assert trace.diverged_at == len(trace.b) - 1
        assert np.all(np.diff(trace.b) >= 0.0)

    def test_critical_exponential_first_step_is_e(self):
        # The critical case walks upward forever but only at a sqrt(n)
        # pace; check the exact first step and the monotone climb.
        trace = iterate(EXP_ONE, SolverConfig(max_iterations=2000))
        assert trace.b[1] == pytest.approx(math.e, abs=1e-9)
        assert trace.status is RecursionStatus.MAX_ITERATIONS
        assert np.all(np.diff(trace.b) >= 0.0)

    def test_linear_power_converges_immediately(self):
        trace = iterate(POW_ONE)
        assert trace.status is RecursionStatus.CONVERGED
        assert trace.limit == 1.0
        assert trace.b[1] == 1.0

    def test_limit_matches_fixed_point_exponential(self):
        trace = iterate(EXP_HALF, SolverConfig(b_tolerance=1e-7,
                                               max_iterations=20000))
        bound = fixed_point_bound(EXP_HALF)
        assert abs(trace.limit - bound.value) <= 1e-3
        assert trace.limit <= bound.value + 1e-6

    def test_limit_matches_fixed_point_pow1(self):
        trace = iterate(POW_ONE)
        assert abs(trace.limit - fixed_point_bound(POW_ONE).value) <= 1e-3

    def test_limit_matches_fixed_point_pow2(self, pow2_long_trace):
        bound = fixed_point_bound(POW_TWO)
        assert abs(pow2_long_trace.final - bound.value) <= 1e-3
        assert pow2_long_trace.final <= bound.value + 1e-6

    def test_limit_matches_fixed_point_pow3(self, pow3_long_trace):
        bound = fixed_point_bound(POW_THREE)
        assert abs(pow3_long_trace.final - bound.value) <= 1e-3
        assert pow3_long_trace.final <= bound.value + 1e-6

    def test_long_traces_are_nondecreasing(self, pow2_long_trace,
                                           pow3_long_trace):
        for trace in (pow2_long_trace, pow3_long_trace):
            assert np.all(np.diff(trace.b) >= 0.0)

    def test_fixed_horizon_sequence(self):
        b_seq, a_seq = recursion_sequence(EXP_HALF, 10)
        assert len(b_seq) == 11 and len(a_seq) == 10
        assert b_seq[0] == 1.0
        assert b_seq[1] == pytest.approx(math.exp(0.5), abs=1e-12)
        trace = iterate(EXP_HALF, SolverConfig(max_iterations=10,
                                               b_tolerance=1e-15))
        np.testing.assert_allclose(b_seq, trace.b, rtol=0, atol=0)


class TestFixedPointBound:
    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_subcritical_exponential(self, lam):
        res = fixed_point_bound(FunctionSpec(Family.EXPONENTIAL, lam))
        assert res.value == pytest.approx(1.0 / (1.0 - lam), abs=1e-8)
        assert res.cross_check_ok

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
    def test_critical_and_beyond_unbounded(self, lam):
        res = fixed_point_bound(FunctionSpec(Family.EXPONENTIAL, lam))
        assert res.unbounded

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    def test_powers(self, m):
        res = fixed_point_bound(FunctionSpec(Family.POWER, m))
        assert res.value == pytest.approx(m ** m, abs=1e-6)
        assert res.cross_check_ok

    @pytest.mark.parametrize("spec, root", [
        (FunctionSpec(Family.POWER, 7.0), 7.0 ** 7),
        (FunctionSpec(Family.EXPONENTIAL, 0.999999), 1.0 / (1.0 - 0.999999)),
    ], ids=["pow:m=7", "exp:lambda=0.999999"])
    def test_root_past_the_last_doubling_below_threshold(self, spec, root):
        # Both roots lie just below the 1e6 divergence threshold, and
        # both are still reported as finite, exact and checked.
        res = fixed_point_bound(spec)
        assert res.value == root
        assert res.cross_check_ok

    def test_quad(self):
        res = fixed_point_bound(QUAD)
        assert res.value == 1.0 + math.sqrt(2.0)
        assert res.cross_check_ok

    def test_remark2_root_fails_cross_check(self):
        # The fixed-point equation has the root 1, but the one-step slope
        # is positive there: outside the shift class the root does not
        # dominate the recursion, and the solver must say so.
        res = fixed_point_bound(REMARK2)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert not res.cross_check_ok
        assert res.cross_check_max == pytest.approx(1.0 / 6.0, abs=1e-3)


class TestCriticalExponentialHasNoFixedPoint:
    def test_step_map_stays_above_identity(self):
        # (b-1) e^{1/(b-1)} > b for every b >= 2: the critical case has
        # no finite fixed point, even though increments shrink.
        rng = np.random.default_rng(101)
        b = np.exp(rng.uniform(np.log(2.0), np.log(1e4), size=300))
        gap = (b - 1.0) * np.exp(1.0 / (b - 1.0)) - b
        assert np.all(gap > 0.0)

    def test_gap_shrinks_toward_zero(self):
        b = np.logspace(np.log10(2.0), 4.0, 200)
        gap = (b - 1.0) * np.exp(1.0 / (b - 1.0)) - b
        assert np.all(np.diff(gap) < 0.0)
        assert gap[-1] < 1e-3

    def test_numeric_step_matches_closed_form(self):
        for b in (2.0, 3.7, 25.0, 400.0):
            value, _ = optimal_step(EXP_ONE, b)
            expect = (b - 1.0) * math.exp(1.0 / (b - 1.0))
            assert value == pytest.approx(expect, rel=1e-9)
