"""Acceptance gate: one test per shipped claim, each printing a single
[PASS]/[FAIL] verdict line (visible with ``pytest -s``/``-rA``; the
test names themselves give one line per criterion under ``-v``).

Tolerances are fixed here and nowhere loosened; where a criterion names
a command line, the check runs through the command line.
"""

import json
import math

import numpy as np
import pytest

from compensator_bounds.bellman import (
    GridConfig,
    extremal_policy,
    grid_error_budget,
    value_iteration,
    verify_lemma1,
)
from compensator_bounds.chains import (
    exact_expectation,
    extremal_chain_law,
    intro_schedule,
    schedule_law,
    simulate_intro,
)
from compensator_bounds.cli import main
from compensator_bounds.functions import Family, FunctionSpec
from compensator_bounds.recursion import (
    RecursionStatus,
    SolverConfig,
    iterate,
    mixture_objective_deriv,
)


def _verdict(number: int, description: str, checks) -> None:
    try:
        checks()
    except AssertionError as exc:
        first_line = str(exc).splitlines()[0] if str(exc) else ""
        print(f"[FAIL] criterion {number:2d}: {description} -- {first_line}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def _cli_json(argv, capsys):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_criterion_01_exponential_fixed_points(capsys):
    def checks():
        for lam in (0.1, 0.25, 0.5, 0.75, 0.9):
            code, payload = _cli_json(
                ["bound", "--f", f"exp:lambda={lam}"], capsys)
            assert code == 0
            assert abs(payload["value"] - 1.0 / (1.0 - lam)) <= 1e-8, \
                f"exp lambda={lam}: {payload['value']}"
        for lam in (1.0, 1.5, 2.0):
            code, payload = _cli_json(
                ["bound", "--f", f"exp:lambda={lam}"], capsys)
            assert code == 0
            assert payload["value"] == "unbounded", \
                f"exp lambda={lam}: {payload['value']}"

    _verdict(1, "exponential bound is 1/(1-lambda), unbounded past 1",
             checks)


def test_criterion_02_power_fixed_points(capsys):
    def checks():
        for m in (1, 2, 3):
            code, payload = _cli_json(["bound", "--f", f"pow:m={m}"],
                                      capsys)
            assert code == 0
            assert abs(payload["value"] - m ** m) <= 1e-6, \
                f"pow m={m}: {payload['value']}"

    _verdict(2, "power bound is m^m", checks)


def test_criterion_03_quadratic_fixed_point(capsys):
    def checks():
        code, payload = _cli_json(["bound", "--f", "quad"], capsys)
        assert code == 0
        assert abs(payload["value"] - (1.0 + math.sqrt(2.0))) <= 1e-8, \
            f"quad: {payload['value']}"

    _verdict(3, "quadratic-family bound is 1+sqrt(2)", checks)


def test_criterion_04_recursion_dynamics():
    def checks():
        crit = iterate(FunctionSpec(Family.EXPONENTIAL, 1.0))
        assert abs(crit.b[1] - math.e) <= 1e-9, f"b_1 = {crit.b[1]}"

        sub = iterate(FunctionSpec(Family.EXPONENTIAL, 0.5),
                      SolverConfig(b_tolerance=1e-7))
        assert sub.status is RecursionStatus.CONVERGED
        assert abs(sub.limit - 2.0) <= 1e-3, f"limit = {sub.limit}"
        diffs = np.diff(sub.b)
        assert np.all(diffs >= -1e-12), "trace not nondecreasing"

        diverged_past_1e6 = (crit.status is RecursionStatus.DIVERGED
                             and crit.final > 1e6)
        assert diverged_past_1e6, (
                f"critical exponential trace reaches only "
                f"{crit.final:.1f} after {len(crit.b) - 1} steps; the "
                f"increments shrink like 1/(2 b), so b_n grows like "
                f"sqrt(n) and passing 1e6 needs ~1e12 iterations -- "
                f"no configurable budget reaches it")

    _verdict(4, "recursion: b_1 = e, critical trace diverges past 1e6, "
                "subcritical trace climbs to 2", checks)


def test_criterion_05_exact_values_vs_recursion(capsys):
    def checks():
        code, payload = _cli_json(
            ["compare", "--f", "exp:lambda=0.5", "--horizon", "30",
             "--step", "1/512"], capsys)
        assert code == 0
        gaps = [row[3] for row in payload["rows"]]
        assert max(gaps) <= 5e-3, f"max gap {max(gaps)}"
        assert max(abs(g) for g in gaps) <= 5e-3, \
            f"max |gap| {max(abs(g) for g in gaps)}"

        code, payload = _cli_json(
            ["compare", "--f", "pow:m=2", "--horizon", "30",
             "--step", "1/512"], capsys)
        assert code == 0
        gaps = [row[3] for row in payload["rows"]]
        assert max(gaps) <= 5e-3, f"max gap {max(gaps)}"

    _verdict(5, "exact control values stay within 5e-3 of the recursion",
             checks)


def test_criterion_06_shift_inequality_scan(capsys):
    def checks():
        clean = ["exp:lambda=0.5", "exp:lambda=1", "exp:lambda=2",
                 "pow:m=1", "pow:m=2", "pow:m=3", "quad"]
        for spec in clean:
            code, payload = _cli_json(
                ["test-shift", "--f", spec, "--trials", "10000",
                 "--seed", "20260823"], capsys)
            assert code == 0
            assert payload["violations"] == 0, \
                f"{spec}: {payload['violations']} violations, " \
                f"min gap {payload['min_gap']}"
        code, payload = _cli_json(
            ["test-shift", "--f", "remark2", "--trials", "10000",
             "--seed", "20260823"], capsys)
        assert code == 0
        assert payload["violations"] >= 1
        assert abs(payload["injected_gap"] - (-0.125)) <= 1e-12, \
            f"injected gap {payload['injected_gap']}"

    _verdict(6, "10^4-instance shift scans: clean for the shift class, "
                "-0.125 counterexample outside it", checks)


def test_criterion_07_doubling_chain_expectations():
    def checks():
        # Independent oracle: E e^{Y_n} = sum_{k=1}^n r^k + r^n with
        # r = e^{1/2}/2.
        r = math.exp(0.5) / 2.0
        oracle = math.fsum(r ** k for k in range(1, 61)) + r ** 60
        exp_one = FunctionSpec(Family.EXPONENTIAL, 1.0)
        exact = exact_expectation(exp_one, schedule_law(intro_schedule(60)))
        assert abs(exact - oracle) <= 1e-4, \
            f"exact {exact} vs oracle {oracle}"

        spec14 = FunctionSpec(Family.EXPONENTIAL, 1.4)
        values = [exact_expectation(spec14, schedule_law(intro_schedule(n)))
                  for n in range(20, 42)]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert min(ratios) >= 1.001, f"min growth ratio {min(ratios)}"

        sim = simulate_intro(exp_one, 60, 100_000, seed=20260823)
        assert abs(sim.mean_f - exact) <= 4.0 * sim.std_error, \
            f"MC mean {sim.mean_f} vs exact {exact}, " \
            f"SE {sim.std_error}"

    _verdict(7, "doubling chain: exact expectation matches the "
                "geometric oracle, supercritical growth, MC within 4 SE",
             checks)


def test_criterion_08_value_function_structure():
    def checks():
        grid = GridConfig(23.0, 1.0 / 128)
        for spec in (FunctionSpec(Family.EXPONENTIAL, 0.5),
                     FunctionSpec(Family.POWER, 2.0)):
            table = value_iteration(spec, 20, grid)
            report = verify_lemma1(table)
            assert report.total_violations == 0, \
                f"{spec.spec_string()}: {report}"

    _verdict(8, "value tables are monotone in y, nonincreasing and "
                "midpoint-convex in x", checks)


def test_criterion_09_critical_map_has_no_fixed_point():
    def checks():
        rng = np.random.default_rng(97)
        b = np.exp(rng.uniform(np.log(2.0), np.log(1e4), size=400))
        gap = (b - 1.0) * np.exp(1.0 / (b - 1.0)) - b
        assert np.all(gap > 0.0), f"min gap {gap.min()} at b={b[gap.argmin()]}"

    _verdict(9, "critical one-step map stays strictly above the "
                "diagonal on [2, 1e4]", checks)


def test_criterion_10_cross_module_consistency():
    def checks():
        spec = FunctionSpec(Family.EXPONENTIAL, 0.5)
        table = value_iteration(spec, 30, GridConfig(30.0, 1.0 / 512))
        law = extremal_chain_law(extremal_policy(table), 30)
        diff = abs(exact_expectation(spec, law) - table.value_at_zero(30))
        assert diff <= grid_error_budget(1.0 / 512), f"diff {diff}"

        ranges = [
            (FunctionSpec(Family.EXPONENTIAL, 0.7), 1.0, 6.0),
            (FunctionSpec(Family.POWER, 2.5), 0.2, 6.0),
            (FunctionSpec(Family.QUAD), 0.1, 6.0),
            (FunctionSpec(Family.REMARK2), 1.05, 3.0),
        ]
        h = 1e-6
        rng = np.random.default_rng(1234)

        def mixture_objective(fspec, a, b):
            return (a * fspec.value(a)
                    + (1.0 - a) * fspec.value(a + fspec.inverse(b)))

        for fspec, b_lo, b_hi in ranges:
            a = rng.uniform(h, 1.0 - h, size=1000)
            b = rng.uniform(b_lo, b_hi, size=1000)
            for ai, bi in zip(a, b):
                fd = (mixture_objective(fspec, ai + h, bi)
                      - mixture_objective(fspec, ai - h, bi)) / (2.0 * h)
                an = mixture_objective_deriv(fspec, ai, bi)
                scale = max(1.0, abs(fd))
                assert abs(an - fd) <= 1e-5 * scale, \
                    f"{fspec.spec_string()} at a={ai}, b={bi}: " \
                    f"analytic {an} vs FD {fd}"

    _verdict(10, "extremal chain reproduces the table value; analytic "
                 "slope matches finite differences", checks)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
