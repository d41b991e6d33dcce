"""Checks for the function-family toolkit.

The derivative and inverse are validated against independent oracles
(central finite differences, round-trips through the forward map)
rather than against the implementation's own formulas.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compensator_bounds.functions import (
    _FAMILIES,
    Family,
    FunctionSpec,
    is_class_s_family,
    parse_function_spec,
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


def curvature_ratio(spec, x):
    """``f''(x) / f'(x)`` in closed form: the ratio whose monotonicity
    is the smooth sufficient condition for the shift inequality."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        if spec.family is Family.EXPONENTIAL:
            return np.full_like(x, spec.param)
        if spec.family is Family.POWER:
            # (m - 1) / x, with its limit +inf at the origin for m > 1.
            if spec.param == 1.0:
                return np.zeros_like(x)
            return (spec.param - 1.0) / x
        if spec.family is Family.QUAD:
            return 1.0 / (1.0 + x)
        # remark2: 0 up to the splice (its left value at x = 1), 1/x
        # beyond, so the ratio jumps up there.
        return np.where(x <= 1.0, 0.0, 1.0 / x)


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
            assert type(spec.f_zero) is float
        assert EXP_TWO.f_zero == 1.0 and POW_THREE.f_zero == 0.0

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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_nan_argument_rejected(self, spec):
        # nan < 0 is False, so value and deriv returned nan.
        for x in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                spec.value(x)
            with pytest.raises(ValueError, match="NaN"):
                spec.deriv(x)

    def test_infinite_argument_still_evaluates(self):
        # Only NaN is rejected; +inf is in the domain.
        assert EXP_HALF.value(math.inf) == math.inf
        assert QUAD.deriv(math.inf) == math.inf
        assert list(REMARK2.value(np.array([0.5, math.inf]))) == [0.5,
                                                                 math.inf]

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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_nan_target_rejected(self, spec):
        # nan < f(0) is False, so this returned nan.
        with pytest.raises(ValueError, match="NaN"):
            spec.inverse(math.nan)

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

    @pytest.mark.parametrize("spec", [
        EXP_HALF, EXP_ONE, EXP_TWO,
        *(FunctionSpec(Family.POWER, m) for m in (1.0, 1.5, 2.0, 2.5, 3.0)),
        QUAD, REMARK2], ids=str)
    def test_array_matches_scalar_bit_for_bit(self, spec):
        # A whole-array np.power for pow differs from the scalar's C pow
        # in the last bit on about 1 target in 1000 at m = 2.
        rng = np.random.default_rng(33)
        f0 = spec.f_zero
        targets = np.concatenate([
            [f0, np.nextafter(f0, math.inf), 0.5, 1.0, 2.5,
             np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
            f0 + rng.uniform(0.0, 60.0, 20000),
            f0 + np.exp(rng.uniform(-40.0, 40.0, 2000)),
            spec.value(rng.uniform(0.0, 6.0, 2000)),
        ])
        targets = targets[targets >= f0]
        # The family's unchecked scalar form, which every element of
        # every input, a 0-d one too, goes through.
        scalar = np.array([float(spec.forms.inverse(t))
                           for t in targets.tolist()])
        batch = spec.inverse(targets)
        assert batch.dtype == np.float64 and batch.shape == targets.shape
        np.testing.assert_array_equal(batch.view(np.uint64),
                                      scalar.view(np.uint64))
        grid = targets[:20].reshape(4, 5)
        np.testing.assert_array_equal(spec.inverse(grid),
                                      scalar[:20].reshape(4, 5))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_scalar_inputs_give_a_float(self, spec):
        f0 = spec.f_zero
        want = float(spec.forms.inverse(f0 + 1.5))
        hair = f0 - 1e-12 * max(1.0, f0)
        for make in (float, np.float64, np.array):
            got = spec.inverse(make(f0 + 1.5))
            assert type(got) is float and got == want
            clamped = spec.inverse(make(hair))
            assert type(clamped) is float and clamped == 0.0
            with pytest.raises(ValueError, match="below f\\(0\\)"):
                spec.inverse(make(f0 - 0.5))
            with pytest.raises(ValueError, match="NaN"):
                spec.inverse(make(math.nan))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_array_keeps_the_per_element_rules(self, spec):
        f0 = spec.f_zero
        hair = f0 - 1e-12 * max(1.0, f0)
        out = spec.inverse(np.array([f0 + 1.0, hair, f0]))
        assert out[1] == 0.0 and out[2] == 0.0
        assert out[0] == spec.inverse(f0 + 1.0)
        with pytest.raises(ValueError, match="below f\\(0\\)"):
            spec.inverse(np.array([f0 + 1.0, hair, f0 - 0.5]))
        with pytest.raises(ValueError, match="NaN"):
            spec.inverse(np.array([f0 + 1.0, math.nan, f0 - 0.5]))


class TestClassS:
    @pytest.mark.parametrize("spec, grid", [
        (EXP_HALF, [0.0, 1.0, 2.0, 3.0]),
        (EXP_TWO, np.linspace(0.0, 8.0, 81)),
        (POW_ONE, [0.0, 0.25, 1.0, 2.0, 4.0]),
        (FunctionSpec(Family.POWER, 1.5), [0.0, 0.25, 1.0, 2.0, 4.0]),
        (POW_TWO, [0.0, 0.25, 1.0, 2.0, 4.0]),
        (POW_THREE, [0.0, 0.25, 1.0, 2.0, 4.0]),
        (QUAD, [0.0, 0.5, 1.0, 2.0]),
        # Finite-difference curvature reported a false violation at
        # 29.0003 on this grid.
        (QUAD, np.linspace(29.0, 31.0, 20001)),
        (REMARK2, [0.5, 2.0]),
        (REMARK2, np.linspace(0.0, 3.0, 301)),
    ], ids=["exp:lambda=0.5", "exp:lambda=2.0", "pow:m=1.0", "pow:m=1.5",
            "pow:m=2.0", "pow:m=3.0", "quad", "quad-fine", "remark2-splice",
            "remark2-fine"])
    def test_ratio_nonincreasing_iff_class_s(self, spec, grid):
        ratio = curvature_ratio(spec, grid)
        assert bool(np.all(np.diff(ratio) <= 0.0)) is is_class_s_family(spec)

    def test_second_derivative_oracle(self):
        # The closed-form ratio against a finite difference of each
        # family's own f', away from remark2's splice.
        for spec in ALL_SPECS:
            xs = sample_points(spec, 50, seed=5)
            fd = central_difference(spec.deriv, xs, h=1e-5) / spec.deriv(xs)
            np.testing.assert_allclose(curvature_ratio(spec, xs), fd,
                                       rtol=1e-5, atol=1e-6, err_msg=str(spec))

    def test_family_membership_helper(self):
        assert is_class_s_family(EXP_TWO)
        assert is_class_s_family(QUAD)
        assert not is_class_s_family(REMARK2)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_every_family_has_a_complete_record(family):
    rec = _FAMILIES[family]
    text = family.value if rec.key is None else f"{family.value}:{rec.key}=2"
    spec = parse_function_spec(text)
    forms = rec.forms(spec.param)
    *funcs, root = forms
    assert all(callable(form) for form in funcs)
    assert type(root) is float and root >= spec.f_zero
    assert spec.forms.root == root
    assert spec.f_zero == spec.value(0.0)
    assert is_class_s_family(spec) is rec.class_s
    for x in (0.5, 1.5):
        assert spec.inverse(spec.value(x)) == pytest.approx(x, rel=1e-14)
        assert spec.deriv(x) > 0.0


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
        root = spec.forms.root
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

    def test_parameter_free_family_refuses_a_parameter(self):
        with pytest.raises(ValueError, match="quad takes no parameter"):
            FunctionSpec(Family.QUAD, 2.0)

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

    @pytest.mark.parametrize("family, key", [
        (Family.EXPONENTIAL, "lambda"), (Family.POWER, "m")])
    @pytest.mark.parametrize("param", [10**400, Fraction(10**400),
                                       -10**400],
                             ids=["int", "fraction", "negative-int"])
    def test_parameters_past_the_float_range(self, family, key, param):
        # float() raised OverflowError on these; the CLI's "1e400" parses
        # to inf and gets the same error.
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            FunctionSpec(family, param)

    @pytest.mark.parametrize("param", [np.float64(2.0), np.float32(2.0),
                                       np.int64(2), 2],
                             ids=["float64", "float32", "int64", "int"])
    def test_numpy_and_int_parameters_round_trip(self, param):
        # np.float64's repr is "np.float64(2.0)" under numpy 2, which the
        # parser rejected; the parameter is stored as a plain float.
        spec = FunctionSpec(Family.POWER, param)
        assert spec.spec_string() == "pow:m=2.0"
        assert type(spec.param) is float
        assert parse_function_spec(spec.spec_string()) == spec

    @pytest.mark.parametrize("param", [True, "2", 1j, [2.0]],
                             ids=["bool", "str", "complex", "list"])
    def test_non_real_parameters(self, param):
        with pytest.raises(ValueError, match="m must be a real number"):
            FunctionSpec(Family.POWER, param)

    def test_parameter_on_bare_family(self):
        with pytest.raises(ValueError, match="no parameter"):
            parse_function_spec("quad:a=1")

    @given(lam=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=100, derandomize=True)
    def test_exponential_round_trip_property(self, lam):
        spec = FunctionSpec(Family.EXPONENTIAL, lam)
        assert parse_function_spec(spec.spec_string()) == spec
