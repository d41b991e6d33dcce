"""Checks for the function-family toolkit.

The derivative and inverse are validated against independent oracles
(central finite differences, round-trips through the forward map)
rather than against the implementation's own formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compensator_bounds.functions import (
    _FAMILIES,
    Family,
    FunctionSpec,
    class_s_condition,
    fixed_point_root,
    is_class_s_family,
    parse_function_spec,
    second_derivative,
)

EXP_HALF = FunctionSpec(Family.EXPONENTIAL, 0.5)
EXP_ONE = FunctionSpec(Family.EXPONENTIAL, 1.0)
EXP_TWO = FunctionSpec(Family.EXPONENTIAL, 2.0)
POW_ONE = FunctionSpec(Family.POWER, 1.0)
POW_TWO = FunctionSpec(Family.POWER, 2.0)
POW_THREE = FunctionSpec(Family.POWER, 3.0)
QUAD = FunctionSpec(Family.QUAD)
REMARK2 = FunctionSpec(Family.REMARK2)

ALL_SPECS = [EXP_HALF, EXP_ONE, EXP_TWO, POW_ONE, POW_TWO, POW_THREE,
             QUAD, REMARK2]


def central_difference(f, x, h=1e-6):
    """Independent derivative oracle."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sample_points(spec, count, seed):
    """Random evaluation points inside the family's smooth region."""
    rng = np.random.default_rng(seed)
    if spec.family is Family.REMARK2:
        pts = rng.uniform(0.01, 3.0, size=count)
        # Steer clear of the splice at x = 1; the slope is continuous
        # there but the curvature is not, which pollutes the stencil.
        return np.where(np.abs(pts - 1.0) < 0.02, pts + 0.05, pts)
    return rng.uniform(0.01, 8.0, size=count)


class TestEval:
    def test_known_values(self):
        assert QUAD.value(2.0) == pytest.approx(4.0, abs=1e-15)
        assert REMARK2.value(2.0) == pytest.approx(2.5, abs=1e-15)
        assert REMARK2.value(0.25) == pytest.approx(0.25, abs=1e-15)
        assert EXP_ONE.value(1.0) == pytest.approx(math.e, rel=1e-15)
        assert POW_THREE.value(2.0) == pytest.approx(8.0, abs=1e-15)

    def test_value_at_zero(self):
        for spec in ALL_SPECS:
            assert spec.value(0.0) == spec.f_zero

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 6.0, 301)
        for spec in ALL_SPECS:
            vals = spec.value(xs)
            assert np.all(np.diff(vals) > 0.0), spec

    def test_vector_matches_scalar(self):
        xs = np.linspace(0.0, 4.0, 17)
        for spec in ALL_SPECS:
            vec = spec.value(xs)
            scalars = [spec.value(float(x)) for x in xs]
            np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)

    def test_negative_argument_rejected(self):
        for spec in ALL_SPECS:
            with pytest.raises(ValueError, match=">= 0"):
                spec.value(-0.1)
            with pytest.raises(ValueError, match=">= 0"):
                spec.deriv(-1e-9)

    def test_scalar_in_scalar_out(self):
        assert isinstance(QUAD.value(1.5), float)
        assert isinstance(EXP_HALF.deriv(1.5), float)


class TestDeriv:
    def test_known_values(self):
        assert QUAD.deriv(2.0) == pytest.approx(3.0, abs=1e-15)
        assert REMARK2.deriv(0.5) == pytest.approx(1.0, abs=1e-15)
        assert REMARK2.deriv(2.0) == pytest.approx(2.0, abs=1e-15)
        # Left slope at the splice point.
        assert REMARK2.deriv(1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_matches_finite_differences(self, spec):
        pts = sample_points(spec, 1000, seed=101)
        for x in pts:
            fd = central_difference(spec.value, float(x))
            an = spec.deriv(float(x))
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-6), x

    def test_power_slope_at_origin(self):
        assert POW_ONE.deriv(0.0) == 1.0
        assert POW_TWO.deriv(0.0) == 0.0


class TestInverse:
    def test_known_values(self):
        assert QUAD.inverse(1.0 + math.sqrt(2.0)) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)
        assert EXP_HALF.inverse(1.0) == 0.0
        assert POW_TWO.inverse(9.0) == pytest.approx(3.0, rel=1e-15)
        assert REMARK2.inverse(0.5) == pytest.approx(0.5, abs=1e-13)
        assert REMARK2.inverse(2.5) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_round_trip(self, spec):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, 10.0, size=200):
            y = spec.value(float(x))
            assert spec.inverse(y) == pytest.approx(float(x), abs=1e-10)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError, match="below f\\(0\\)"):
            EXP_HALF.inverse(0.5)
        with pytest.raises(ValueError, match="below f\\(0\\)"):
            QUAD.inverse(-0.25)

    def test_tiny_float_undershoot_clamps_to_zero(self):
        assert EXP_HALF.inverse(1.0 - 1e-12) == 0.0

    @pytest.mark.parametrize("spec", [QUAD, REMARK2], ids=str)
    def test_tiny_target_keeps_relative_accuracy(self, spec):
        # An absolute-tolerance bisection returned 9.983e-13 here.
        assert spec.inverse(1e-12) == pytest.approx(1e-12, rel=1e-12, abs=0)

    @given(x=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200, derandomize=True)
    def test_quad_round_trip_property(self, x):
        assert QUAD.inverse(QUAD.value(x)) == pytest.approx(x, abs=1e-10)


class TestClassS:
    def test_exponential_holds(self):
        res = class_s_condition(EXP_HALF, [0.0, 1.0, 2.0, 3.0])
        assert res.holds and res.violation_at is None

    def test_quad_holds(self):
        res = class_s_condition(QUAD, [0.0, 0.5, 1.0, 2.0])
        assert res.holds

    @pytest.mark.parametrize("spec", [POW_ONE, POW_TWO, POW_THREE], ids=str)
    def test_powers_hold(self, spec):
        res = class_s_condition(spec, [0.0, 0.25, 1.0, 2.0, 4.0])
        assert res.holds

    def test_quad_holds_on_a_fine_grid(self):
        # Finite-difference curvature reported a false violation at
        # 29.0003 on this grid.
        res = class_s_condition(QUAD, np.linspace(29.0, 31.0, 20001))
        assert res.holds and res.violation_at is None

    def test_remark2_fails_across_the_splice(self):
        res = class_s_condition(REMARK2, [0.5, 2.0])
        assert not res.holds
        assert res.violation_at == 2.0

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            class_s_condition(QUAD, [1.0])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            class_s_condition(QUAD, [1.0, 0.5])

    def test_second_derivative_oracle(self):
        # Finite-difference curvature against closed forms.
        for spec, x, expect in [
            (EXP_ONE, 1.0, math.e),
            (POW_THREE, 2.0, 12.0),
            (QUAD, 1.7, 1.0),
            (REMARK2, 0.4, 0.0),
            (REMARK2, 2.0, 1.0),
        ]:
            assert second_derivative(spec, x) == pytest.approx(
                expect, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("m, expect", [(1.0, 0.0), (1.5, math.inf),
                                           (2.0, 2.0), (3.0, 0.0)])
    def test_power_curvature_at_zero(self, m, expect):
        # m (m-1) x^(m-2) as x -> 0+: +inf for 1 < m < 2, and no
        # division by zero from 0.0 ** negative.
        spec = parse_function_spec(f"pow:m={m}")
        assert second_derivative(spec, 0.0) == expect

    def test_family_membership_helper(self):
        assert is_class_s_family(EXP_TWO)
        assert is_class_s_family(QUAD)
        assert not is_class_s_family(REMARK2)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_every_family_has_a_complete_record(family):
    rec = _FAMILIES[family]
    text = family.value if rec.key is None else f"{family.value}:{rec.key}=2"
    spec = parse_function_spec(text)
    assert all(callable(form) for form in rec.forms(spec.param))
    assert spec.f_zero == spec.value(0.0)
    assert is_class_s_family(spec) is rec.class_s
    for x in (0.5, 1.5):
        assert spec.inverse(spec.value(x)) == pytest.approx(x, rel=1e-14)
        assert spec.deriv(x) > 0.0
        assert math.isfinite(second_derivative(spec, x))


class TestFixedPointRoot:
    @pytest.mark.parametrize("text", [
        "exp:lambda=0.1", "exp:lambda=0.5", "exp:lambda=0.9",
        "exp:lambda=0.999999", "pow:m=1", "pow:m=1.5", "pow:m=2",
        "pow:m=3", "pow:m=7", "quad", "remark2"])
    def test_root_solves_the_equation(self, text):
        # The equation B = f(0) + f'(f^{-1}(B)), evaluated through the
        # family's f, f' and f^{-1}, shares no code with the record's
        # closed-form root.
        spec = parse_function_spec(text)
        root = fixed_point_root(spec)
        residual = spec.value(0.0) + spec.deriv(spec.inverse(root)) - root
        assert abs(residual) <= 1e-9 * max(1.0, root)


class TestParse:
    def test_examples(self):
        assert parse_function_spec("exp:lambda=0.5") == EXP_HALF
        assert parse_function_spec("pow:m=2") == POW_TWO
        assert parse_function_spec("quad") == QUAD
        assert parse_function_spec("remark2") == REMARK2

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_round_trip(self, spec):
        assert parse_function_spec(spec.spec_string()) == spec

    def test_unknown_family_named(self):
        with pytest.raises(ValueError, match="'geom'"):
            parse_function_spec("geom:p=0.5")

    def test_missing_parameter_named(self):
        with pytest.raises(ValueError, match="lambda"):
            parse_function_spec("exp")

    def test_wrong_key_named(self):
        with pytest.raises(ValueError, match="'mu=3'"):
            parse_function_spec("exp:mu=3")

    def test_bad_number_named(self):
        with pytest.raises(ValueError, match="'0.5x'"):
            parse_function_spec("pow:m=0.5x")

    def test_out_of_range_parameters(self):
        with pytest.raises(ValueError, match="lambda must be > 0"):
            parse_function_spec("exp:lambda=-1")
        with pytest.raises(ValueError, match="m must be >= 1"):
            parse_function_spec("pow:m=0.5")

    @pytest.mark.parametrize("family, key", [
        (Family.EXPONENTIAL, "lambda"), (Family.POWER, "m")])
    @pytest.mark.parametrize("param", [math.inf, math.nan])
    def test_non_finite_parameters(self, family, key, param):
        # inf passed the range rules (inf > 0, inf >= 1) and gave NaN
        # gaps and infinite means downstream.
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            FunctionSpec(family, param)

    def test_parameter_on_bare_family(self):
        with pytest.raises(ValueError, match="no parameter"):
            parse_function_spec("quad:a=1")

    @given(lam=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=100, derandomize=True)
    def test_exponential_round_trip_property(self, lam):
        spec = FunctionSpec(Family.EXPONENTIAL, lam)
        assert parse_function_spec(spec.spec_string()) == spec
