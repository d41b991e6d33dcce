"""Shift-inequality module checks.

The expectation oracle is recomputed longhand (plain Python sums) so the
module's numpy path is validated against something independent, and the
inequality itself is exercised both in gap form and in the equivalent
monotone form ``f^{-1}(E f(a+Y)) <= a + f^{-1}(E f(Y))``.
"""


import numpy as np
import pytest

from compensator_bounds.functions import Family, FunctionSpec
from compensator_bounds.shift import (
    COUNTEREXAMPLE_RV,
    COUNTEREXAMPLE_SHIFT,
    VIOLATION_THRESHOLD,
    DiscreteRV,
    expect_f,
    property_scan,
    shift_gap,
)

EXP_HALF = FunctionSpec(Family.EXPONENTIAL, 0.5)
EXP_ONE = FunctionSpec(Family.EXPONENTIAL, 1.0)
EXP_TWO = FunctionSpec(Family.EXPONENTIAL, 2.0)
QUAD = FunctionSpec(Family.QUAD)
REMARK2 = FunctionSpec(Family.REMARK2)
CLASS_S_SPECS = [EXP_HALF, EXP_ONE, EXP_TWO,
                 FunctionSpec(Family.POWER, 1.0),
                 FunctionSpec(Family.POWER, 2.0),
                 FunctionSpec(Family.POWER, 3.0),
                 QUAD]


def longhand_expectation(spec, rv, shift=0.0):
    return sum(p * spec.value(shift + v) for v, p in rv.atoms)


def random_rv(rng, max_atoms=5, value_cap=4.0):
    k = int(rng.integers(2, max_atoms + 1))
    values = rng.uniform(0.0, value_cap, size=k)
    weights = rng.uniform(0.0, 1.0, size=k)
    probs = weights / weights.sum()
    probs[0] += 1.0 - probs.sum()
    return DiscreteRV(tuple((float(v), float(p))
                            for v, p in zip(values, probs)))


class TestDiscreteRV:
    def test_accepts_valid(self):
        rv = DiscreteRV(((0.0, 0.25), (1.5, 0.75)))
        np.testing.assert_allclose(rv.values, [0.0, 1.5])
        np.testing.assert_allclose(rv.probs, [0.25, 0.75])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="sum to"):
            DiscreteRV(((0.0, 0.5), (1.0, 0.4)))

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError, match=">= 0"):
            DiscreteRV(((-0.5, 0.5), (1.0, 0.5)))

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError, match="distinct"):
            DiscreteRV(((1.0, 0.5), (1.0, 0.5)))

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            DiscreteRV(((0.0, 0.0), (1.0, 1.0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one atom"):
            DiscreteRV(())


class TestExpectF:
    def test_known_value(self):
        rv = DiscreteRV(((0.0, 0.5), (2.0, 0.5)))
        assert expect_f(FunctionSpec(Family.POWER, 2.0), rv) == 2.0

    def test_matches_longhand(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            rv = random_rv(rng)
            shift = float(rng.uniform(0.0, 2.0))
            for spec in (EXP_HALF, QUAD, REMARK2):
                assert expect_f(spec, rv, shift) == pytest.approx(
                    longhand_expectation(spec, rv, shift), rel=1e-14)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            expect_f(QUAD, COUNTEREXAMPLE_RV, -0.5)


class TestShiftGap:
    def test_counterexample_gap_is_exact(self):
        gap = shift_gap(REMARK2, COUNTEREXAMPLE_SHIFT, COUNTEREXAMPLE_RV)
        assert gap == pytest.approx(-0.125, abs=1e-12)

    def test_zero_shift_is_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            rv = random_rv(rng)
            for spec in CLASS_S_SPECS + [REMARK2]:
                assert abs(shift_gap(spec, 0.0, rv)) <= 1e-9

    def test_exponential_gap_vanishes_for_any_shift(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rv = random_rv(rng)
            shift = float(rng.uniform(0.0, 2.0))
            for spec in (EXP_HALF, EXP_ONE, EXP_TWO):
                assert abs(shift_gap(spec, shift, rv)) <= 1e-9

    @pytest.mark.parametrize("spec", CLASS_S_SPECS, ids=str)
    def test_no_violations_for_class_s(self, spec):
        rng = np.random.default_rng(29)
        for _ in range(200):
            rv = random_rv(rng)
            shift = float(rng.uniform(0.0, 2.0))
            assert shift_gap(spec, shift, rv) >= VIOLATION_THRESHOLD

    def test_monotone_form_agrees_with_gap_sign(self):
        # f^{-1}(E f(a+Y)) - a - f^{-1}(E f(Y)) must be <= 0 exactly when
        # the gap form is >= 0 (both express the same inequality).
        rng = np.random.default_rng(71)
        for _ in range(100):
            rv = random_rv(rng)
            shift = float(rng.uniform(0.0, 2.0))
            for spec in (EXP_HALF, QUAD, REMARK2):
                gap = shift_gap(spec, shift, rv)
                lhs = spec.inverse(expect_f(spec, rv, shift))
                rhs = shift + spec.inverse(expect_f(spec, rv))
                if gap > 1e-9:
                    assert lhs <= rhs + 1e-9
                elif gap < -1e-9:
                    assert lhs > rhs - 1e-9


class TestPropertyScan:
    def test_deterministic_given_seed(self):
        a = property_scan(QUAD, 500, seed=13)
        b = property_scan(QUAD, 500, seed=13)
        assert a == b

    def test_seed_changes_instances(self):
        a = property_scan(QUAD, 500, seed=13)
        b = property_scan(QUAD, 500, seed=14)
        assert a.min_gap != b.min_gap

    def test_injected_counterexample_is_trial_zero(self):
        report = property_scan(REMARK2, 1000, seed=7)
        assert report.injected_gap == pytest.approx(-0.125, abs=1e-12)
        assert report.violations >= 1
        assert report.min_gap <= -0.125 + 1e-12

    @pytest.mark.parametrize("spec", [EXP_HALF, EXP_TWO, QUAD], ids=str)
    def test_class_s_scan_is_clean(self, spec):
        report = property_scan(spec, 2000, seed=42)
        assert report.violations == 0
        assert report.min_gap >= VIOLATION_THRESHOLD
        assert report.trials == 2000

    def test_argmin_is_reproducible_instance(self):
        report = property_scan(REMARK2, 1000, seed=7)
        regap = shift_gap(REMARK2, report.argmin_shift, report.argmin_rv)
        assert regap == report.min_gap

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="trials"):
            property_scan(QUAD, 0, seed=1)

    @pytest.mark.parametrize("lam", [4.0, 10.0, 100.0])
    def test_violations_scale_with_the_expectation(self, lam):
        # The exponential gap is identically 0; its round-off grows with
        # E f(s + Y), so an absolute threshold counted it as violations.
        report = property_scan(FunctionSpec(Family.EXPONENTIAL, lam), 500,
                               seed=1)
        assert report.violations == 0
        assert report.min_gap < VIOLATION_THRESHOLD

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_f_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            property_scan(FunctionSpec(Family.EXPONENTIAL, 300.0), 10, seed=1)
