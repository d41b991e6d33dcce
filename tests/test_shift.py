"""Shift-inequality module checks.

The expectation oracle is recomputed longhand (plain Python sums) so the
module's numpy path is validated against something independent, and the
inequality itself is exercised both in gap form and in the equivalent
monotone form ``f^{-1}(E f(a+Y)) <= a + f^{-1}(E f(Y))``.
"""


import math

import numpy as np
import pytest

from compensator_bounds import shift
from compensator_bounds.functions import (
    Family,
    FunctionSpec,
    parse_function_spec,
)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_value(self, bad):
        # Both were accepted, and expect_f then returned nan or inf.
        with pytest.raises(ValueError, match="finite"):
            DiscreteRV(((bad, 1.0),))
        with pytest.raises(ValueError, match="finite"):
            DiscreteRV(((0.0, 0.5), (bad, 0.5)))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_shift_rejected(self, bad):
        # nan < 0 is False, so both returned nan.
        with pytest.raises(ValueError, match="finite"):
            expect_f(QUAD, COUNTEREXAMPLE_RV, bad)
        with pytest.raises(ValueError, match="finite"):
            shift_gap(QUAD, bad, COUNTEREXAMPLE_RV)


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


SCAN_SPECS = [EXP_HALF, FunctionSpec(Family.POWER, 2.0), QUAD, REMARK2]


def scan_instance(seed, trial):
    if trial == 0:
        return COUNTEREXAMPLE_SHIFT, COUNTEREXAMPLE_RV
    return shift._random_instance(seed, trial)


def scan_oracle(spec, trials, seed):
    """The scan as a plain loop of :func:`shift_gap`, one trial at a
    time, worst instance the first strict minimum."""
    violations, worst, injected = 0, None, None
    for trial in range(trials):
        a, rv = scan_instance(seed, trial)
        gap = shift_gap(spec, a, rv)
        lhs = expect_f(spec, rv, a)
        if trial == 0:
            injected = gap
        if gap < VIOLATION_THRESHOLD * max(1.0, abs(lhs)):
            violations += 1
        if worst is None or gap < worst[0]:
            worst = (gap, trial, a, rv)
    return violations, worst, injected


def assert_matches_oracle(report, spec, trials, seed):
    violations, (gap, trial, a, rv), injected = scan_oracle(spec, trials,
                                                            seed)
    assert report.violations == violations
    assert report.min_gap == gap
    assert report.argmin_trial == trial
    assert report.argmin_shift == a
    assert report.argmin_rv == rv
    assert report.injected_gap == injected


def philox_rows(seed, start, stop):
    """Rows ``start .. stop-1`` of ``Generator(Philox(seed)).random((n,
    12))``: sliced from one full draw where that fits in memory, and
    past it from a Philox built at the counter the full draw reaches
    after ``start`` rows (three blocks a row), not through ``advance``."""
    if stop <= 4096:
        full = np.random.Generator(np.random.Philox(seed))
        return full.random((stop, 12))[start:]
    key = np.random.Philox(seed).state["state"]["key"]
    bits = np.random.Philox(key=key, counter=3 * start)
    return np.random.Generator(bits).random((stop - start, 12))


def mapped_row(u):
    """One trial's shift, values and probabilities from its 12 uniforms,
    as 1-d arrays padded with zeros to five atoms."""
    n_atoms = 2 + int(4.0 * u[0])
    values = 4.0 * u[1:1 + n_atoms]
    weights = 1.0 - u[6:6 + n_atoms]
    probs = weights / weights.sum()
    probs[probs.argmax()] += 1.0 - probs.sum()
    pad = [0.0] * (5 - n_atoms)
    return 2.0 * u[11], values.tolist() + pad, probs.tolist() + pad


def edit_draws(monkeypatch, edit):
    """Make every Generator draw pass through ``edit(u)`` first."""
    generator = np.random.Generator

    class Edited:
        def __init__(self, bits):
            self.gen = generator(bits)

        def random(self, shape):
            u = self.gen.random(shape)
            edit(u)
            return u

    monkeypatch.setattr(np.random, "Generator", Edited)


class TestChunkDraws:
    @pytest.mark.parametrize("start", [0, 1, 1023, 1024, 2**32 - 3])
    @pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**64 + 1])
    def test_chunk_is_a_slice_of_one_stream(self, seed, start):
        stop = start + 40
        shifts, values, probs = shift._chunk_draws(seed, start, stop)
        for row, u in enumerate(philox_rows(seed, start, stop)):
            a, v, p = mapped_row(u)
            assert shifts[row] == a, start + row
            assert values[row].tolist() == v
            assert probs[row].tolist() == p

    def test_every_atom_weight_is_positive(self, monkeypatch):
        rows = philox_rows(5, 0, 4096)
        n_atoms = 2 + (4.0 * rows[:, 0]).astype(int)
        _, _, probs = shift._chunk_draws(5, 0, 4096)
        assert (probs > 0.0).sum(axis=1).tolist() == n_atoms.tolist()
        # The largest uniform below 1 gives the smallest weight, 2^-53.
        largest = np.nextafter(1.0, 0.0)

        def largest_weights(u):
            u[:, 6:11] = largest

        edit_draws(monkeypatch, largest_weights)
        _, _, probs = shift._chunk_draws(5, 0, 4096)
        assert (probs > 0.0).sum(axis=1).tolist() == n_atoms.tolist()
        _, rv = shift._random_instance(5, 3)
        assert len(rv.atoms) == n_atoms[3]

    def test_equal_values_merge_their_mass(self, monkeypatch):
        rows = philox_rows(9, 12, 16)

        def repeat_a_value(u):
            u[0, 0] = 0.99       # five atoms
            u[0, 4] = u[0, 2]    # atoms 1 and 3 share a value

        edit_draws(monkeypatch, repeat_a_value)
        shifts, values, probs = shift._chunk_draws(9, 12, 16)
        assert values[0, 1] == values[0, 3]
        a, rv = shift._random_instance(9, 12)
        assert a == shifts[0]
        assert [v for v, _ in rv.atoms] == values[0, [0, 1, 2, 4]].tolist()
        assert [p for _, p in rv.atoms] == [probs[0, 0],
                                            probs[0, 1] + probs[0, 3],
                                            probs[0, 2], probs[0, 4]]
        assert math.fsum(rv.probs) == pytest.approx(1.0, abs=1e-15)
        # The batch keeps both atoms, which gives the same expectation
        # up to rounding, far inside the violation threshold.
        for spec in (REMARK2, QUAD, EXP_TWO):
            gaps, lhs = shift._chunk_gaps(spec, 9, 12, 16)
            assert abs(gaps[0] - shift_gap(spec, a, rv)) <= \
                1e-12 * max(1.0, abs(lhs[0]))
        # The rows after it are drawn as before.
        for row, u in enumerate(rows[1:], start=1):
            a, v, p = mapped_row(u)
            assert (shifts[row], values[row].tolist(),
                    probs[row].tolist()) == (a, v, p)


class TestPropertyScan:
    @pytest.mark.parametrize("seed, trials", [
        pytest.param(1, 300, id="1"),
        pytest.param(8, 300, id="8"),
        pytest.param(2, 2100, id="2-2100trials"),
    ])
    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=str)
    def test_batched_scan_matches_scalar_oracle(self, spec, seed, trials):
        assert_matches_oracle(property_scan(spec, trials, seed), spec,
                              trials, seed)

    # The benchmark's test-shift oracle at its trial count: in-class
    # families show no violation and remark2 shows at least one, whatever
    # the seed (the benchmark draws its seeds below 2^31).
    ORACLE_SEEDS = [0, 1, 52734659, 2016822975, 2**64 + 1]

    @pytest.mark.parametrize("spec", ["exp:lambda=0.5", "pow:m=1.5",
                                      "pow:m=2", "pow:m=3", "quad"])
    def test_benchmark_oracle_in_class(self, spec):
        for seed in self.ORACLE_SEEDS:
            report = property_scan(parse_function_spec(spec), 10**4, seed)
            assert report.violations == 0, seed

    def test_benchmark_oracle_remark2(self):
        for seed in self.ORACLE_SEEDS:
            report = property_scan(REMARK2, 10**4, seed)
            assert report.violations >= 1, seed
            assert abs(report.injected_gap + 0.125) <= 1e-12, seed

    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=str)
    def test_chunk_size_does_not_change_the_report(self, spec, monkeypatch):
        whole = property_scan(spec, 300, seed=3)
        monkeypatch.setattr(shift, "_CHUNK_TRIALS", 7)
        assert property_scan(spec, 300, seed=3) == whole

    def test_one_inverse_call_per_chunk(self, monkeypatch):
        # The scan inverted each trial's E f(Y) in a checked call of its
        # own, about two thirds of a 10^4-trial scan's time.
        calls = []
        inverse = FunctionSpec.inverse

        def counted(spec, y):
            calls.append(np.size(y))
            return inverse(spec, y)

        monkeypatch.setattr(FunctionSpec, "inverse", counted)
        property_scan(QUAD, 5000, seed=1)
        assert sum(calls) == 5000
        assert len(calls) <= math.ceil(5000 / 2 ** 10)

    def test_deterministic_given_seed(self):
        a = property_scan(QUAD, 500, seed=13)
        b = property_scan(QUAD, 500, seed=13)
        assert a == b
        assert property_scan(QUAD, 500, seed=np.int64(13)) == a

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
        # numpy refused a negative seed only after the scan began.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            property_scan(QUAD, 10, seed=-1)

    @pytest.mark.parametrize("lam", [4.0, 10.0, 100.0])
    def test_violations_scale_with_the_expectation(self, lam):
        # The exponential gap is identically 0; its round-off grows with
        # E f(s + Y), so an absolute threshold counted it as violations.
        report = property_scan(FunctionSpec(Family.EXPONENTIAL, lam), 500,
                               seed=1)
        assert report.violations == 0
        assert report.min_gap < VIOLATION_THRESHOLD

    def test_overflowing_f_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            property_scan(FunctionSpec(Family.EXPONENTIAL, 300.0), 10, seed=1)
