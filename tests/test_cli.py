"""End-to-end tests for the command-line interface: exit codes, JSON
schema conformance, CSV shape, and byte-identical reruns."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from compensator_bounds import cli
from compensator_bounds.bellman import (
    BoundComparison,
    GridConfig,
    extremal_policy,
    value_iteration,
)
from compensator_bounds.chains import (
    intro_schedule,
    policy_schedule,
    simulate_schedule,
)
from compensator_bounds.cli import main, parse_args
from compensator_bounds.functions import Family, parse_function_spec
from compensator_bounds.recursion import RecursionStatus, RecursionTrace
from compensator_bounds.shift import property_scan

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out


def check(name: str, payload: dict) -> None:
    jsonschema.validate(payload, load_schema(name))


class TestParseArgs:
    def test_bound_config(self):
        args = parse_args(["bound", "--f", "exp:lambda=0.5"])
        assert args.command == "bound"
        assert args.f.family is Family.EXPONENTIAL
        assert args.f.param == 0.5
        assert not hasattr(args, "seed")

    def test_recursion_with_csv_sink(self, tmp_path):
        out = tmp_path / "out.csv"
        args = parse_args(["solve-recursion", "--f", "pow:m=2",
                           "--csv", str(out)])
        assert args.command == "solve-recursion"
        assert args.f.family is Family.POWER
        assert args.csv == str(out)

    def test_negative_lambda_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["bound", "--f", "exp:lambda=-1"])
        assert exc.value.code == 2
        assert "lambda must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["exp:lambda=inf", "pow:m=inf",
                                      "pow:m=1e400"])
    def test_non_finite_parameter_is_usage_error(self, text, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["bound", "--f", text])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["bound", "--f", "quad", "--frobnicate"])
        assert exc.value.code == 2

    def test_step_accepts_fractions(self):
        args = parse_args(["compare", "--f", "quad", "--horizon", "5",
                           "--step", "1/128"])
        assert args.step == 1.0 / 128
        args = parse_args(["compare", "--f", "quad", "--horizon", "5",
                           "--step", "0.25"])
        assert args.step == 0.25

    def test_bad_step_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["compare", "--f", "quad", "--horizon", "5",
                        "--step", "zero"])
        assert exc.value.code == 2
        assert "grid step" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-1/2"])
    def test_non_positive_step_is_usage_error(self, step, capsys):
        with pytest.raises(SystemExit) as exc:
            # "--step=": argparse reads a bare "-1/2" as a flag.
            parse_args(["compare", "--f", "quad", "--horizon", "5",
                        f"--step={step}"])
        assert exc.value.code == 2
        assert "grid step must be > 0" in capsys.readouterr().err

    def test_csv_rejected_where_meaningless(self, capsys):
        for command in ("bound", "test-shift"):
            with pytest.raises(SystemExit) as exc:
                parse_args([command, "--f", "quad", "--csv", "x.csv"])
            assert exc.value.code == 2
            assert "--csv" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve-bellman", "--f", "quad", "--horizon", "2", "--opt-grid", "8"],
        ["test-shift", "--f", "quad", "--report", "scan.json"],
        ["bound", "--f", "quad", "--seed", "1"],
        ["solve-recursion", "--f", "quad", "--seed", "1"],
        ["solve-bellman", "--f", "quad", "--horizon", "2", "--seed", "1"],
        ["compare", "--f", "quad", "--horizon", "2", "--seed", "1"],
        ["solve-bellman", "--f", "quad", "--horizon", "2", "--y-max", "10"],
        ["solve-bellman", "--f", "exp:lambda=0.5", "--horizon", "2",
         "--y-max", "inf"],
        ["solve-bellman", "--f", "exp:lambda=0.5", "--horizon", "2",
         "--y-max", "nan"],
        ["solve-bellman", "--f", "quad", "--horizon", "2", "--refine", "30"],
        ["test-shift", "--f", "quad", "--max-atoms", "2"],
        ["test-shift", "--f", "quad", "--value-cap", "1.5"],
        ["test-shift", "--f", "quad", "--trials", "5", "--value-cap", "nan"],
        ["test-shift", "--f", "quad", "--trials", "5", "--value-cap", "inf"],
        ["simulate", "--chain", "intro", "--f", "quad", "--n", "2",
         "--dump-paths", "50"],
    ], ids=["opt-grid", "report", "bound-seed", "solve-recursion-seed",
            "solve-bellman-seed", "compare-seed", "y-max", "y-max-inf",
            "y-max-nan", "refine", "max-atoms", "value-cap",
            "value-cap-nan", "value-cap-inf", "dump-paths"])
    def test_removed_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["test-shift", "--f", "quad"],
        ["simulate", "--f", "quad", "--chain", "intro", "--n", "3"],
        ["report", "--f", "quad"],
    ], ids=["test-shift", "simulate", "report"])
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        # report used to build its whole Bellman table before numpy
        # refused the seed.
        with pytest.raises(SystemExit) as exc:
            parse_args(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert ("argument --seed: expected a non-negative seed, got -1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, expect", [
        ("--trials", "expected a positive count, got 'abc'"),
        ("--seed", "expected a non-negative seed, got 'abc'"),
    ], ids=["trials", "seed"])
    def test_non_numeric_count_is_a_usage_error(self, flag, expect, capsys):
        # argparse used to name the private type function instead.
        with pytest.raises(SystemExit) as exc:
            parse_args(["test-shift", "--f", "quad", flag, "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {expect}" in err
        assert " _" not in err

    @pytest.mark.parametrize("argv", [
        ["solve-recursion", "--f", "exp:lambda=1", "--tol", "inf"],
        ["solve-recursion", "--f", "exp:lambda=1", "--tol", "nan"],
    ], ids=["tol-inf", "tol-nan"])
    def test_non_finite_numbers_are_usage_errors(self, argv, capsys):
        # --tol inf used to stop after one step and report the divergent
        # critical recursion as converged.
        code = main(argv)
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "finite" in out.err

    def test_simulate_flag_dependencies(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--chain", "intro", "--f", "quad"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--chain", "extremal", "--f", "quad"])
        assert exc.value.code == 2
        assert "--policy" in capsys.readouterr().err
        # The other chain's flags used to be ignored without a word.
        for extra, flag in [
                (["--chain", "extremal", "--policy", "t.json", "--n", "5"],
                 "--n"),
                (["--chain", "intro", "--n", "5", "--horizon", "3"],
                 "--horizon"),
                (["--chain", "intro", "--n", "5", "--policy", "missing.json"],
                 "--policy")]:
            with pytest.raises(SystemExit) as exc:
                parse_args(["simulate", "--f", "quad", *extra])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_reused_parser_carries_nothing_over(self, capsys):
        # The parser is built once per process and reused by every call.
        intro = parse_args(["simulate", "--chain", "intro", "--f", "quad",
                            "--n", "5", "--seed", "4"])
        assert (intro.n, intro.seed, intro.policy) == (5, 4, None)
        extremal = parse_args(["simulate", "--chain", "extremal",
                               "--f", "quad", "--policy", "p"])
        assert extremal.n is None
        assert (extremal.policy, extremal.seed) == ("p", 0)
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                parse_args(["simulate", "--chain", "intro", "--f", "quad"])
            assert exc.value.code == 2
            assert "--n is required" in capsys.readouterr().err


class TestBound:
    def test_exponential_value(self, capsys):
        code, out = run_cli(["bound", "--f", "exp:lambda=0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        check("bound", payload)
        assert payload["value"] == pytest.approx(2.0, abs=1e-8)
        assert payload["unbounded"] is False
        assert parse_function_spec(payload["function"]).param == 0.5

    def test_supercritical_is_unbounded(self, capsys):
        code, out = run_cli(["bound", "--f", "exp:lambda=1.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        check("bound", payload)
        assert payload["value"] == "unbounded"
        assert payload["unbounded"] is True

    @pytest.mark.parametrize("text", [
        "exp:lambda=1", "pow:m=143", "pow:m=144", "pow:m=200", "pow:m=1e5"])
    def test_no_root_below_threshold_is_unbounded(self, text, capsys):
        # exp has no root at lambda = 1; 143^143 is a float but lies past
        # 1e6, as 8^8 does; m^m overflows float64 from m = 144 on.
        code, out = run_cli(["bound", "--f", text], capsys)
        assert code == 0
        payload = json.loads(out)
        check("bound", payload)
        assert payload["value"] == "unbounded"

    def test_json_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "bound.json"
        code, out = run_cli(["bound", "--f", "quad", "--json", str(target)],
                            capsys)
        assert code == 0
        assert target.read_text(encoding="utf-8") == out
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.0 + math.sqrt(2.0),
                                                 abs=1e-8)


class TestSolveRecursion:
    def test_quad_trace(self, tmp_path, capsys):
        trace_csv = tmp_path / "trace.csv"
        # The increments shrink quadratically in the distance to the
        # limit, so a loose stopping tolerance still lands close.
        code, out = run_cli(["solve-recursion", "--f", "quad",
                             "--tol", "1e-6", "--csv", str(trace_csv)],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        check("solve-recursion", payload)
        assert payload["status"] == "converged"
        assert payload["b"][0] == 0.0
        assert payload["limit"] == pytest.approx(1.0 + math.sqrt(2.0),
                                                 abs=5e-3)
        with open(trace_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "b_n", "a_star_n"]
        assert len(rows) == payload["iterations"] + 2
        assert rows[1] == ["0", "0.0", ""]
        assert float(rows[2][1]) == payload["b"][1]

    def test_zero_tolerance_is_usage_error(self, capsys):
        code = main(["solve-recursion", "--f", "quad", "--tol", "0"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "b_tolerance must be > 0" in out.err

    def test_function_string_round_trips(self, capsys):
        code, out = run_cli(["solve-recursion", "--f", "exp:lambda=0.25"],
                            capsys)
        payload = json.loads(out)
        assert parse_function_spec(payload["function"]).param == 0.25

    @pytest.mark.parametrize("text, step", [
        ("exp:lambda=710", 1), ("exp:lambda=800", 1), ("pow:m=1100", 2),
    ])
    def test_overflowing_step_is_usage_error(self, text, step, capsys):
        # Both exp specs step in closed form, pow:m=1100 on the grid;
        # the grid once printed a finite, wrong trace for all three.
        code = main(["solve-recursion", "--f", text])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert f"recursion step {step} of" in out.err


BELLMAN_SMALL = ["solve-bellman", "--f", "exp:lambda=0.5", "--horizon", "4",
                 "--step", "1/64"]


class TestSolveBellman:
    def test_artifact_and_table(self, tmp_path, capsys):
        table_csv = tmp_path / "table.csv"
        code, out = run_cli(BELLMAN_SMALL + ["--csv", str(table_csv)],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        check("solve-bellman", payload)
        assert "solver" not in payload
        assert payload["horizon"] == 4
        assert payload["values_at_zero"][0] == 1.0
        assert payload["values_at_zero"][1] == pytest.approx(
            math.exp(0.5), abs=1e-10)
        points = 4 * 64 + 1
        assert len(payload["actions"]) == 5
        assert all(len(row) == points for row in payload["actions"])
        with open(table_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "y", "value", "action"]
        assert len(rows) == 1 + 5 * points

    def test_deterministic_stdout(self, capsys):
        _, first = run_cli(BELLMAN_SMALL, capsys)
        _, second = run_cli(BELLMAN_SMALL, capsys)
        assert first == second

    @pytest.mark.parametrize("grid", [["--horizon", "2", "--step", "0.3"]])
    def test_step_not_dividing_y_max_is_usage_error(self, grid, capsys):
        code = main(["solve-bellman", "--f", "exp:lambda=0.5"] + grid)
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "does not divide" in out.err

    @pytest.mark.parametrize("command", ["solve-bellman", "compare"])
    def test_overflowing_table_is_usage_error(self, command, tmp_path,
                                              capsys):
        # exp(40 * 21) overflows; the table would hold inf and NaN.
        out_json = tmp_path / "out.json"
        code = main([command, "--f", "exp:lambda=40", "--horizon", "20",
                     "--step", "1/64", "--json", str(out_json)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "overflows" in out.err
        assert not out_json.exists()


class TestCompare:
    def test_step_not_dividing_horizon_is_usage_error(self, capsys):
        code = main(["compare", "--f", "quad", "--horizon", "2",
                     "--step", "0.3"])
        assert code == 2
        assert "does not divide" in capsys.readouterr().err

    def test_exponential_within_budget(self, tmp_path, capsys):
        out_csv = tmp_path / "cmp.csv"
        code, out = run_cli(["compare", "--f", "exp:lambda=0.5",
                             "--horizon", "6", "--step", "1/64",
                             "--csv", str(out_csv)], capsys)
        assert code == 0
        payload = json.loads(out)
        check("compare", payload)
        assert payload["enforced"] is True
        assert payload["within_budget"] is True
        assert len(payload["rows"]) == 7
        n0, c0, b0, gap0 = payload["rows"][0]
        assert (n0, c0, b0, gap0) == (0, 1.0, 1.0, 0.0)
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "c_n", "b_n", "gap"]
        assert len(rows) == 8

    def test_outside_class_not_enforced(self, capsys):
        code, out = run_cli(["compare", "--f", "remark2", "--horizon", "4",
                             "--step", "1/64"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["enforced"] is False


class TestTestShift:
    def test_clean_scan_for_exponential(self, capsys):
        code, out = run_cli(["test-shift", "--f", "exp:lambda=1",
                             "--trials", "300", "--seed", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        check("test-shift", payload)
        assert payload["violations"] == 0

    def test_counterexample_scan(self, tmp_path, capsys):
        report = tmp_path / "scan.json"
        code, out = run_cli(["test-shift", "--f", "remark2",
                             "--trials", "300", "--seed", "7",
                             "--json", str(report)], capsys)
        assert code == 0
        payload = json.loads(out)
        check("test-shift", payload)
        assert payload["violations"] >= 1
        assert payload["injected_gap"] == pytest.approx(-0.125, abs=1e-12)
        assert report.read_text(encoding="utf-8") == out

    def test_round_off_is_not_a_violation(self, capsys):
        # The exponential gap is identically 0, but its round-off grows
        # with E f(s + Y), up to e^24 here; 282 trials once counted.
        code, out = run_cli(["test-shift", "--f", "exp:lambda=4",
                             "--trials", "1000"], capsys)
        assert code == 0
        assert json.loads(out)["violations"] == 0

    @pytest.mark.parametrize("text", ["exp:lambda=300", "pow:m=500"])
    def test_overflowing_f_is_usage_error(self, text, capsys):
        code = main(["test-shift", "--f", text, "--trials", "10"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "overflows" in out.err

    def test_scan_flags_reach_the_scan(self, capsys):
        code, out = run_cli(["test-shift", "--f", "pow:m=2",
                             "--trials", "200", "--seed", "3"], capsys)
        assert code == 0
        # sha256 of the stdout of the one-Philox-stream scan; the payload
        # is checked against property_scan below.
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "445d6893e7b2b6b2f4bb70efb313dff46fb2caedb4bc2f746866a857e7d926dc")
        payload = json.loads(out)
        report = property_scan(parse_function_spec("pow:m=2"), 200, 3)
        assert payload["trials"] == report.trials
        assert payload["seed"] == report.seed
        assert payload["violations"] == report.violations
        assert payload["min_gap"] == report.min_gap
        assert payload["argmin"]["trial"] == report.argmin_trial
        assert payload["argmin"]["shift"] == report.argmin_shift
        assert payload["argmin"]["atoms"] == [
            [v, p] for v, p in report.argmin_rv.atoms]
        assert payload["injected_gap"] == report.injected_gap

    # sha256 of the stdout of the one-Philox-stream scan, matched by the
    # one-trial oracle in test_shift.py; exp:lambda=10 carries the large
    # unscaled min_gap that the relative violation threshold forgives.
    @pytest.mark.parametrize("f,trials,digest", [
        ("exp:lambda=0.5", "5000",
         "8b6a50389b8849553a61c832b07f4b6655357e2f6f482ecc468ab579e471b7ee"),
        ("pow:m=2", "5000",
         "2812c7940477c9f5be30d08aec71d644d4181c09f633152e34facdcb4cb0db42"),
        ("quad", "5000",
         "7118432e37e47df40eeecaea1645f45f54819aa42e0538a9d4373b017fefb513"),
        ("remark2", "5000",
         "7af01f00f933152bf03fe2e7ca394af52b3d48b40eded33442afc0275ab9de03"),
        ("exp:lambda=10", "2000",
         "4326af939949ea63932587c8c9ce681e023ef19a7d3e8a8b0f1ab9aa27bbc1b4"),
    ])
    def test_scan_outputs_are_pinned(self, f, trials, digest, capsys):
        code, out = run_cli(["test-shift", "--f", f, "--trials", trials,
                             "--seed", "1"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSimulate:
    def test_intro_chain(self, tmp_path, capsys):
        paths_csv = tmp_path / "paths.csv"
        argv = ["simulate", "--chain", "intro", "--f", "exp:lambda=1",
                "--n", "20", "--paths", "2000", "--seed", "3",
                "--csv", str(paths_csv)]
        code, out = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        check("simulate", payload)
        assert payload["within_4se"] is True
        assert payload["max_doob_residual"] == 0.0
        with open(paths_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "k", "X", "Y", "M"]
        assert len(rows) == 1 + 100 * 21
        assert rows[1][:2] == ["0", "0"]
        for row in rows[1:100]:
            x, y, m = float(row[2]), float(row[3]), float(row[4])
            assert m == x - y

    def test_intro_seed_determinism(self, capsys):
        argv = ["simulate", "--chain", "intro", "--f", "exp:lambda=1",
                "--n", "15", "--paths", "500", "--seed", "11"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second
        _, other = run_cli(argv[:-1] + ["12"], capsys)
        assert other != first

    def test_intro_output_is_pinned(self, tmp_path, capsys):
        # sha256 of the stdout and CSV bytes, frozen from the sampler
        # that draws each step for the live paths from one Philox stream.
        paths_csv = tmp_path / "paths.csv"
        code, out = run_cli(["simulate", "--chain", "intro",
                             "--f", "exp:lambda=1", "--n", "12",
                             "--paths", "4000", "--seed", "9",
                             "--csv", str(paths_csv)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "874b109311a26fe48cc2f2e534fd097d6498a7a4ec04b2dc4064d2cf0648fc48")
        assert hashlib.sha256(paths_csv.read_bytes()).hexdigest() == (
            "b2d26de37a51263cfd1203fdf0dcd556b28efd93841f4a13402e7dd36d7085fe")

    def test_overflowing_f_is_usage_error(self, tmp_path, capsys):
        # This printed exact_f: Infinity and exited 0.
        outputs = [tmp_path / "sim.json", tmp_path / "paths.csv"]
        code = main(["simulate", "--chain", "intro", "--f", "exp:lambda=3",
                     "--n", "600", "--paths", "10",
                     "--json", str(outputs[0]), "--csv", str(outputs[1])])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "overflows" in out.err
        assert not any(path.exists() for path in outputs)

    def test_extremal_chain_from_artifact(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        code, _ = run_cli(BELLMAN_SMALL + ["--json", str(policy)], capsys)
        assert code == 0
        code, out = run_cli(["simulate", "--chain", "extremal",
                             "--f", "exp:lambda=0.5",
                             "--policy", str(policy),
                             "--paths", "4000", "--seed", "9"], capsys)
        assert code == 0
        payload = json.loads(out)
        check("simulate", payload)
        assert payload["within_4se"] is True
        assert payload["max_doob_residual"] == 0.0
        assert payload["exact_f"] == pytest.approx(payload["table_value"],
                                                   abs=2.0 / 64)
        assert len(payload["increments"]) == 4

    def test_extremal_artifact_mismatch(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        run_cli(BELLMAN_SMALL + ["--json", str(policy)], capsys)
        code = main(["simulate", "--chain", "extremal", "--f", "pow:m=2",
                     "--policy", str(policy)])
        assert code == 2
        code = main(["simulate", "--chain", "extremal",
                     "--f", "exp:lambda=0.5",
                     "--policy", str(tmp_path / "missing.json")])
        assert code == 2


def path_rows_oracle(result, y_sched):
    """The ``simulate --csv`` rows, field by field from a compensator
    path the test builds on its own."""
    for i in range(min(len(result.t_hit), cli._DUMP_PATHS)):
        t = int(result.t_hit[i])
        for k in range(len(y_sched)):
            x = 1.0 if k >= t else 0.0
            y = float(y_sched[min(k, t)])
            yield str(i), str(k), repr(x), repr(y), repr(x - y)


class TestPathRows:
    @staticmethod
    def assert_rows_match(a_sched, y_sched):
        n = len(a_sched)
        result = simulate_schedule(parse_function_spec("quad"), a_sched,
                                   300, seed=n)
        # Absorbed at the first step, at the last, and never.
        result.t_hit[:3] = [1, n, n + 1]
        assert len(np.unique(result.t_hit[:cli._DUMP_PATHS])) >= min(n, 3)
        assert (list(cli._dump_path_rows(result))
                == list(path_rows_oracle(result, y_sched)))

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_intro_rows_match_the_oracle(self, n):
        self.assert_rows_match(intro_schedule(n), 0.5 * np.arange(n + 1))

    def test_extremal_rows_match_the_oracle_below_the_horizon(self):
        table = value_iteration(parse_function_spec("pow:m=2"), 6,
                                GridConfig(6.0, 1.0 / 64))
        a_sched = policy_schedule(extremal_policy(table), 4)
        assert len(set(a_sched.tolist())) > 1
        # The compensator summed step by step.
        y_sched = [0.0]
        for a in a_sched.tolist():
            y_sched.append(y_sched[-1] + a)
        self.assert_rows_match(a_sched, np.array(y_sched))


class TestPinnedRecursionOutputs:
    # sha256 of the stdout of the bound and recursion commands, frozen
    # from the golden search that also probed its bracket ends and swept
    # its last pair again; the quad bound from the closed-form root.
    # The remark2 and quad recursions are pinned from the maximizer in
    # their family records; the 2048-point scan they replaced stopped
    # remark2 at b_149 = 1.2812499824243049 (now b_155 =
    # 1.2812499915935995) and quad at b_3231 = 2.4109528257299075 (now
    # b_3231 = 2.4109528257295296).
    @pytest.mark.parametrize("argv,digest", [
        (["bound", "--f", "exp:lambda=0.5"],
         "2bb1bf3b7c1098b170dc7d8e6408c667c1a6d1d37a89404f7ae39ca14dfe4d22"),
        (["bound", "--f", "exp:lambda=1"],
         "37ba3f2707132c5d83fd5d7b9871d1ba4393ffa0503b520bcde5f99cb58a2976"),
        (["bound", "--f", "pow:m=2"],
         "30ea417a98ad87df24eb3ac0e28159a642880e3f9ca6250af74a4baeadb3e016"),
        (["bound", "--f", "pow:m=3"],
         "23490b1b486324ce7579c3043af9092966ed851545d9aafa96bcc02925443289"),
        (["bound", "--f", "quad"],
         "360d81a516835e1544b99b45d374c3de50fc8dd1e289ff2bb6d2446ea457e4f6"),
        (["bound", "--f", "remark2"],
         "513c18708f23e8cf3a89dfe5b0d331ed1ad027cf3acdb08abb0af0155620a0ac"),
        (["solve-recursion", "--f", "remark2"],
         "4fcb9c7cc3373d52e47341e11fba91a75b6b3b1f0fb63ccd7e4c991586f2e94c"),
        (["solve-recursion", "--f", "pow:m=1"],
         "1a08c214010e19d0defa00dfcfab52b68b9372fb626b0aea966cb29441847a28"),
        (["solve-recursion", "--f", "quad", "--tol", "1e-6"],
         "521b0165633a5b1f3dd28852c62f7942e1d92eb29783f8634278ec5405309d37"),
    ])
    def test_recursion_outputs_are_pinned(self, argv, digest, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestPinnedTableOutputs:
    # sha256 of the stdout, --json and --csv bytes, frozen from the
    # emitter that handed the payload, the action table as nested lists,
    # to json.dumps and built the whole --csv row list before writing.
    POW2 = ["--f", "pow:m=2", "--horizon", "6", "--step", "1/64"]

    def test_small_table_artifact_and_chain(self, tmp_path, capsys):
        table_json, table_csv = tmp_path / "t.json", tmp_path / "t.csv"
        paths_csv = tmp_path / "p.csv"
        code, out = run_cli(["solve-bellman", *self.POW2,
                             "--json", str(table_json),
                             "--csv", str(table_csv)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "ebaf08cc795db8935714512255eab29f6a08ea441b92f4ec062092da623de1bb")
        assert table_json.read_text(encoding="utf-8") == out
        assert hashlib.sha256(table_csv.read_bytes()).hexdigest() == (
            "364835bfe00166607e7db64e874ca51c465e9f900ac0e40fae93896f2e4bb982")
        # The simulate digests are frozen from the sampler that draws
        # each step for the live paths from one Philox stream.
        code, out = run_cli(["simulate", "--chain", "extremal",
                             "--f", "pow:m=2", "--policy", str(table_json),
                             "--paths", "4000", "--seed", "9",
                             "--csv", str(paths_csv)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "29a4f9dbcdaa33b669d884600df9ed6ab9e58c1eabebc8035082c0d379c06153")
        assert hashlib.sha256(paths_csv.read_bytes()).hexdigest() == (
            "41d616b642ac57f3874ed0ee72d895d140ab4df9ebba19f48838bb56191763c2")

    def test_compare(self, tmp_path, capsys):
        rows_csv = tmp_path / "c.csv"
        code, out = run_cli(["compare", "--f", "exp:lambda=0.5",
                             "--horizon", "6", "--step", "1/64",
                             "--csv", str(rows_csv)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "0d6d1287371fcf849a5c8c6b395e09b16461ef07f612deecab310e37f3c61d87")
        assert hashlib.sha256(rows_csv.read_bytes()).hexdigest() == (
            "27a2c64ce1c6017681e70cdc26d07a726e32e7a552a555fc0eb6fa005cc6505e")

    def test_report_with_off_grid_increment(self, capsys):
        # Step 0.3 does not divide 1, so the lattice appends a = 1, no
        # grid offset, and the chain check's last step takes it from an
        # interpolated policy read.  Frozen from the interpolation that
        # wrote into caller-supplied scratch arrays.
        code, out = run_cli(["report", "--f", "pow:m=2", "--horizon", "6",
                             "--step", "0.3"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "30d3482dade8fd1aa88cec206692a155b01c40e1149a6f7321d3450e8e715224")

    def test_chain_through_interpolated_policy_reads(self, tmp_path, capsys):
        # Step 1/75 puts the reachable y = 0.32, 0.64, ... off the grid,
        # so the extremal chain's increments come from interpolated
        # policy reads; swapping their two weights moves the fifth
        # increment from 0.50667 to 0.49333 and leaves the artifact as
        # it was.
        table_json = tmp_path / "t.json"
        code, _ = run_cli(["solve-bellman", "--f", "remark2", "--horizon", "6",
                           "--step", "1/75", "--json", str(table_json)],
                          capsys)
        assert code == 0
        code, out = run_cli(["simulate", "--chain", "extremal",
                             "--f", "remark2", "--policy", str(table_json),
                             "--paths", "1000"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "3d30f3df92cd4aee5f163ec49db731ee85286980111a43cc448243ddca99202b")

    def test_readme_scale_table(self, capsys):
        code, out = run_cli(["solve-bellman", "--f", "exp:lambda=0.5",
                             "--horizon", "30", "--step", "1/512"], capsys)
        assert code == 0
        assert len(out) == 8_288_620
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "01cc7e53beef38db1f461ee6532a5cecc6a0c071fc991205afd23a96c6bb587f")


def as_lists(value):
    """The payload with every array replaced by its nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(v) for v in value]
    return value


class TestJsonEncoder:
    ODD = [np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, -0.0, 0.0]

    @pytest.mark.parametrize("payload", [
        {"signed_zero": np.array([[0.0, -0.0, 1.0], [-0.0, 0.5, 0.0]])},
        {"array": np.array(ODD), "list": list(ODD), "tuple": tuple(ODD),
         "nan": math.nan, "inf": math.inf, "tiny": 5e-324},
        {"mixed": [True, 1, np.float64(0.1), None, False, 0, -0.0,
                   np.float64(-0.0), np.float64("nan")],
         "scalar": np.float64(1e-5), "flag": True, "none": None},
        {"ключ": "значение ü", "plain": "a\"b\\c\n", "ü": ["é", "\u2603"]},
        {"list": [], "dict": {}, "array": np.array([]),
         "nested": [[], {}, [[]]], "rows": np.zeros((2, 0))},
        {"table": np.arange(24.0).reshape(2, 3, 4) / 7,
         "pair": (1, (2.5, "x")), "grid": {"b": {"a": [1.5]}, "a": 2}},
        {"draws": np.random.default_rng(5).integers(-3, 4, (6, 11)) / 8},
        {"rows": [{"b": [np.nan, -0.0], "a": 1.5}, [[math.inf, 2.5], ()]]},
    ], ids=["signed-zero", "non-finite-and-extremes", "scalars",
            "non-ascii", "empty", "nested", "repeated-draws",
            "dict-in-list"])
    def test_matches_the_stdlib(self, payload):
        assert "".join(cli._pieces(payload, "")) + "\n" == json.dumps(
            as_lists(payload), sort_keys=True, indent=2,
            separators=(",", ": ")) + "\n"

    @pytest.mark.parametrize("argv", [
        ["bound", "--f", "exp:lambda=1.5"],
        ["solve-recursion", "--f", "exp:lambda=1"],
        BELLMAN_SMALL,
        ["compare", "--f", "pow:m=2", "--horizon", "4", "--step", "1/64"],
        ["test-shift", "--f", "remark2", "--trials", "200"],
        ["simulate", "--chain", "intro", "--f", "quad", "--n", "8",
         "--paths", "300"],
        ["report", "--f", "remark2", "--horizon", "3", "--step", "1/64",
         "--trials", "100"],
    ])
    def test_stdout_round_trips_through_the_stdlib(self, argv, capsys):
        # An oracle that shares no code with the encoder.
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n"


def table_payload(horizon: int, y_max: float, step: float) -> dict:
    """What ``solve-bellman`` emits for a pow:m=2 table."""
    spec = parse_function_spec("pow:m=2")
    table = value_iteration(spec, horizon, GridConfig(y_max, step))
    return {"command": "solve-bellman", "format": cli.ARTIFACT_FORMAT,
            "function": spec.spec_string(), "horizon": horizon,
            "grid": {"y_max": y_max, "step": step},
            "values_at_zero": table.V[:, 0].tolist(),
            "actions": extremal_policy(table).A}


class TestStreamedEmit:
    """``_emit`` writes the text piece by piece: the framing of each
    dict, then one row of a table at a time."""

    PAYLOADS = {
        "table": lambda: table_payload(3, 3.0, 0.25),
        "horizon-0": lambda: table_payload(0, 1.0, 0.5),
        "sparse": lambda: {"empty": [], "none": None, "outer": {
            "inner": {"deep": {}, "rows": np.array([[0.5, -0.0]])},
            "list": [{}, [], None]}, "zero_rows": np.zeros((0, 4))},
    }

    @pytest.mark.parametrize("name", PAYLOADS)
    def test_matches_the_stdlib(self, name, tmp_path, capsys):
        payload = self.PAYLOADS[name]()
        target = tmp_path / "out.json"
        cli._emit(payload, Namespace(json=str(target)))
        out = capsys.readouterr().out
        assert out == json.dumps(as_lists(payload), sort_keys=True,
                                 indent=2) + "\n"
        assert target.read_text(encoding="utf-8") == out

    def test_one_row_per_piece(self):
        actions = table_payload(3, 3.0, 0.25)["actions"]
        pieces = list(cli._pieces({"actions": actions}, ""))
        # The key, one piece per row, and the two closing brackets.
        assert len(pieces) == 1 + len(actions) + 2
        for piece in pieces[1:-2]:
            assert piece.count("\n") == actions.shape[1] + 2

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unopenable_json_path_prints_nothing(self, where, tmp_path,
                                                 capsys):
        # The file opens before the first piece is written, so a bad
        # path is a usage error with empty stdout.
        target = tmp_path / "no" / "t.json" if where == "missing-dir" \
            else tmp_path
        code = main([*BELLMAN_SMALL, "--json", str(target)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: could not write --json file")
        assert not (tmp_path / "no").exists()

    # Every subcommand that takes --csv.
    CSV_ARGVS = [
        ["solve-recursion", "--f", "exp:lambda=0.5"],
        ["compare", "--f", "exp:lambda=0.5", "--horizon", "4",
         "--step", "1/64"],
        BELLMAN_SMALL,
        ["report", "--f", "quad", "--horizon", "3", "--step", "1/64",
         "--trials", "100"],
        ["simulate", "--f", "quad", "--chain", "intro", "--n", "3",
         "--paths", "100"],
    ]

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    @pytest.mark.parametrize("argv", CSV_ARGVS, ids=lambda argv: argv[0])
    def test_unopenable_csv_path_prints_nothing(self, argv, where, tmp_path,
                                                capsys):
        # --csv opens with --json, before the first piece is written; it
        # once failed with a traceback after the whole JSON was printed.
        target = tmp_path / "no" / "t.csv" if where == "missing-dir" \
            else tmp_path
        code = main([*argv, "--csv", str(target)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: could not write --csv file")

    @pytest.mark.parametrize("spelling", ["literal", "dotdot"])
    @pytest.mark.parametrize("argv", CSV_ARGVS, ids=lambda argv: argv[0])
    def test_one_file_for_json_and_csv_prints_nothing(self, argv, spelling,
                                                      tmp_path, capsys):
        # Two handles on one file once interleaved the CSV and the JSON
        # into a file that was neither, and exited 0.
        (tmp_path / "d").mkdir()
        target = tmp_path / "x"
        json_path = target if spelling == "literal" \
            else tmp_path / "d" / ".." / "x"
        code = main([*argv, "--json", str(json_path), "--csv", str(target)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: --json")
        assert "name the same file" in out.err

    @pytest.mark.parametrize("case", ["same-file", "unopenable-csv"])
    def test_refusal_leaves_an_existing_file_as_it_was(self, case, tmp_path,
                                                       capsys):
        # Nothing is truncated before both files have opened and passed
        # the same-file check; a refusal once left the file empty.
        (tmp_path / "d").mkdir()
        target = tmp_path / "x"
        target.write_bytes(b"12345678")
        csv_path = target if case == "same-file" else tmp_path / "no" / "y"
        code = main(["solve-recursion", "--f", "quad", "--json",
                     str(tmp_path / "d" / ".." / "x"), "--csv",
                     str(csv_path)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert target.read_bytes() == b"12345678"

    @staticmethod
    def run_child(argv, stdout):
        """Run the CLI in a child process with ``stdout`` as its stdout."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "compensator_bounds.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, env=env)

    @classmethod
    def run_to_file(cls, argv, out_path, mode="wb"):
        """Run the CLI in a child whose stdout is the file ``out_path``,
        opened in ``mode``."""
        with open(out_path, mode) as out:
            return cls.run_child(argv, out).returncode

    @pytest.mark.parametrize("spelling", ["dev-stdout", "path"])
    def test_csv_on_stdout_prints_nothing(self, spelling, tmp_path):
        # The CSV once overwrote the start of the JSON text, with exit 0.
        out = tmp_path / "out"
        csv_path = "/dev/stdout" if spelling == "dev-stdout" else str(out)
        code = self.run_to_file(["solve-recursion", "--f", "quad", "--json",
                                 os.devnull, "--csv", csv_path], out)
        assert code == 2
        assert out.read_bytes() == b""

    @pytest.mark.parametrize("case", ["unopenable-csv", "same-file",
                                      "csv-on-stdout"])
    def test_refusal_leaves_a_new_path_absent(self, case, tmp_path):
        # A refused run once left an empty --json file that had not
        # existed before it.
        (tmp_path / "d").mkdir()
        new, out = tmp_path / "new.json", tmp_path / "out"
        csv_path = {"unopenable-csv": tmp_path / "no" / "y.csv",
                    "same-file": tmp_path / "d" / ".." / "new.json",
                    "csv-on-stdout": out}[case]
        code = self.run_to_file(["solve-recursion", "--f", "quad", "--json",
                                 str(new), "--csv", str(csv_path)], out)
        assert code == 2
        assert not new.exists()
        assert out.read_bytes() == b""

    def test_json_on_stdout_writes_the_same_bytes(self, tmp_path):
        plain, doubled = tmp_path / "plain", tmp_path / "doubled"
        assert self.run_to_file(["bound", "--f", "quad"], plain) == 0
        assert self.run_to_file(["bound", "--f", "quad", "--json",
                                 str(doubled)], doubled) == 0
        assert doubled.read_bytes() == plain.read_bytes()

    BOUND_ON_STDOUT = ["bound", "--f", "quad", "--json", "/dev/stdout"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                        reason="no /dev/stdout")
    def test_json_on_a_stdout_pipe_writes_once(self):
        # Both handles once wrote the document into the pipe, and the
        # reader got it twice.
        plain = self.run_child(["bound", "--f", "quad"], subprocess.PIPE)
        proc = self.run_child(self.BOUND_ON_STDOUT, subprocess.PIPE)
        assert proc.returncode == 0
        assert proc.stdout == plain.stdout
        assert json.loads(proc.stdout)["command"] == "bound"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                        reason="no /dev/stdout")
    def test_json_on_an_appended_stdout_keeps_the_earlier_bytes(self,
                                                                tmp_path):
        # The --json handle's truncate() once cut the file back to the
        # document alone, dropping what was there before ">>".
        plain, appended = tmp_path / "plain", tmp_path / "appended"
        assert self.run_to_file(["bound", "--f", "quad"], plain) == 0
        appended.write_bytes(b"hello\n")
        assert self.run_to_file(self.BOUND_ON_STDOUT, appended, "ab") == 0
        assert appended.read_bytes() == b"hello\n" + plain.read_bytes()

    def test_csv_beside_a_stdout_without_descriptor(self, tmp_path):
        # A StringIO has no fileno(); the benchmark's worker runs the CLI
        # under one.
        csv_path = tmp_path / "paths.csv"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["simulate", "--f", "quad", "--chain", "intro",
                         "--n", "3", "--paths", "100", "--csv",
                         str(csv_path)])
        assert code == 0
        assert json.loads(buffer.getvalue())["command"] == "simulate"
        assert csv_path.read_text(encoding="utf-8").startswith("path_id,")

    def test_accepted_files_replace_longer_contents(self, tmp_path, capsys):
        json_path, csv_path = tmp_path / "x.json", tmp_path / "x.csv"
        for path in (json_path, csv_path):
            path.write_bytes(b"#" * 100_000)
        code, stdout = run_cli(["solve-recursion", "--f", "quad", "--json",
                                str(json_path), "--csv", str(csv_path)],
                               capsys)
        assert code == 0
        assert json_path.read_text(encoding="utf-8") == stdout
        assert "#" not in csv_path.read_text(encoding="utf-8")


    def test_unrequested_trace_is_never_rendered(self, capsys):
        def rows():
            raise AssertionError("a CSV row was rendered")
            yield
        cli._emit({"a": 1}, Namespace(json=None, csv=None), ("a",), rows())
        assert capsys.readouterr().out == '{\n  "a": 1\n}\n'

    def test_closed_stdout_pipe_exits_quietly(self):
        # The reader leaves after the first of about a million bytes; a
        # BrokenPipeError traceback once went to stderr.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "compensator_bounds.cli",
             "solve-recursion", "--f", "quad"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert stderr == b""


def read_csv(path: Path) -> list[list[str]]:
    """The rows of a CSV file, after checking that every line ends in
    CRLF, as the csv module writes them."""
    data = path.read_bytes()
    assert data.endswith(b"\r\n")
    assert data.count(b"\n") == data.count(b"\r\n") == data.count(b"\r")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCsvOracle:
    """Every ``--csv`` file, read back with the stdlib ``csv`` module,
    holds the numbers of its JSON payload field by field."""

    def run(self, argv, tmp_path, capsys):
        out_csv = tmp_path / f"{argv[0]}.csv"
        code, out = run_cli([*argv, "--csv", str(out_csv)], capsys)
        assert code == 0
        return json.loads(out), read_csv(out_csv)

    def test_solve_recursion(self, tmp_path, capsys):
        payload, rows = self.run(["solve-recursion", "--f", "exp:lambda=0.5"],
                                 tmp_path, capsys)
        assert rows[0] == ["n", "b_n", "a_star_n"]
        assert len(rows) == len(payload["b"]) + 1
        assert rows[1][2] == ""
        for n, (col_n, b, a) in enumerate(rows[1:]):
            assert int(col_n) == n
            assert float(b) == payload["b"][n]
            if n:
                assert float(a) == payload["a_star"][n - 1]

    @pytest.mark.parametrize("argv, rows_of", [
        (["compare", "--f", "exp:lambda=0.5", "--horizon", "4",
          "--step", "1/64"], lambda p: p["rows"]),
        (["report", "--f", "quad", "--horizon", "3", "--step", "1/64",
          "--trials", "100"], lambda p: p["comparison"]["rows"]),
    ], ids=["compare", "report"])
    def test_comparison_rows(self, argv, rows_of, tmp_path, capsys):
        payload, rows = self.run(argv, tmp_path, capsys)
        assert rows[0] == ["n", "c_n", "b_n", "gap"]
        expected = rows_of(payload)
        assert len(rows) == len(expected) + 1
        for row, want in zip(rows[1:], expected):
            assert int(row[0]) == want[0]
            assert [float(v) for v in row[1:]] == want[1:]

    def test_solve_bellman(self, tmp_path, capsys):
        payload, rows = self.run(BELLMAN_SMALL, tmp_path, capsys)
        assert rows[0] == ["n", "y", "value", "action"]
        actions = np.array(payload["actions"])
        assert len(rows) == actions.size + 1
        body = np.array([[float(v) for v in row] for row in rows[1:]])
        n, y, value, action = np.moveaxis(
            body.reshape(*actions.shape, 4), 2, 0)
        assert np.array_equal(action, actions)
        assert np.array_equal(value[:, 0], payload["values_at_zero"])
        assert np.array_equal(y[:, 0], np.zeros(len(actions)))
        assert (y == y[0]).all()
        assert (n == np.arange(len(actions))[:, None]).all()

    @pytest.mark.parametrize("chain", ["intro", "extremal"])
    def test_simulate(self, chain, tmp_path, capsys):
        if chain == "intro":
            argv = ["simulate", "--f", "exp:lambda=0.5", "--chain", "intro",
                    "--n", "6", "--paths", "300", "--seed", "2"]
            steps = 6
        else:
            table = tmp_path / "table.json"
            run_cli([*BELLMAN_SMALL, "--json", str(table)], capsys)
            argv = ["simulate", "--f", "exp:lambda=0.5", "--chain",
                    "extremal", "--policy", str(table), "--paths", "300",
                    "--seed", "2"]
            steps = 4
        _, rows = self.run(argv, tmp_path, capsys)
        assert rows[0] == ["path_id", "k", "X", "Y", "M"]
        assert len(rows) == 1 + 100 * (steps + 1)
        for j, row in enumerate(rows[1:]):
            assert (int(row[0]), int(row[1])) == divmod(j, steps + 1)
            x, y, m = map(float, row[2:])
            assert x in (0.0, 1.0)
            assert m == x - y


def hand_artifact(path: Path, **overrides) -> Path:
    """A small valid value-table artifact (H=2, 5 grid points), with
    keys replaced or, when set to ``None``, removed.  It also carries
    ``solver`` and ``clamp_used``, which older artifacts wrote and the
    loader ignores."""
    artifact = {
        "command": "solve-bellman",
        "format": "compensator-bounds/value-table-v1",
        "function": "exp:lambda=0.5",
        "horizon": 2,
        "grid": {"y_max": 2.0, "step": 0.5},
        "solver": {"refine_iters": 60},
        "clamp_used": True,
        "values_at_zero": [1.0, 1.5, 2.0],
        "actions": [[0.0] * 5, [1.0] * 5, [0.5] * 5],
    }
    artifact.update(overrides)
    artifact = {k: v for k, v in artifact.items() if v is not None}
    path.write_text(json.dumps(artifact), encoding="utf-8")
    return path


class TestPolicyArtifact:
    """Malformed ``--policy`` artifacts exit 2 before any path is drawn."""

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling ran on a malformed artifact")

        monkeypatch.setattr(cli, "simulate_schedule", refuse)

    def simulate(self, path, capsys):
        code = main(["simulate", "--chain", "extremal",
                     "--f", "exp:lambda=0.5", "--policy", str(path),
                     "--paths", "100"])
        out = capsys.readouterr()
        assert out.out == ""
        return code, out.err

    def test_hand_artifact_is_accepted(self, tmp_path, capsys):
        code, out = run_cli(["simulate", "--chain", "extremal",
                             "--f", "exp:lambda=0.5", "--policy",
                             str(hand_artifact(tmp_path / "a.json")),
                             "--paths", "100"], capsys)
        assert code == 0
        assert json.loads(out)["increments"] == [0.5, 1.0]

    @pytest.mark.parametrize("tag", ["compensator-bounds/value-table-v0",
                                     None])
    def test_wrong_or_missing_format_tag(self, tag, tmp_path, capsys,
                                         no_sampling):
        path = hand_artifact(tmp_path / "a.json", format=tag)
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "is not a value-table artifact" in err

    def test_horizon_past_the_artifact(self, tmp_path, capsys, no_sampling):
        path = hand_artifact(tmp_path / "a.json")
        code = main(["simulate", "--chain", "extremal",
                     "--f", "exp:lambda=0.5", "--policy", str(path),
                     "--horizon", "3"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "--horizon 3 exceeds the artifact horizon 2" in out.err

    @pytest.mark.parametrize("key", ["grid", "horizon", "actions",
                                     "function", "values_at_zero"])
    def test_missing_key(self, key, tmp_path, capsys, no_sampling):
        path = hand_artifact(tmp_path / "a.json", **{key: None})
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "malformed" in err

    def test_grid_below_horizon(self, tmp_path, capsys, no_sampling):
        # value_iteration refuses such a grid; the loaded policy used to
        # read layer-n nodes above y_max - n, which no table trusts.
        path = hand_artifact(tmp_path / "a.json", horizon=4,
                             values_at_zero=[1.0, 1.5, 2.0, 2.5, 3.0],
                             actions=[[0.5] * 5] * 5)
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "do not match" in err

    def test_boolean_horizon(self, tmp_path, capsys, no_sampling):
        # bool is an int subclass, so "horizon": true used to run as
        # horizon 1 and exit 0.
        path = hand_artifact(tmp_path / "a.json", horizon=True,
                             values_at_zero=[1.0, 1.5],
                             actions=[[0.0] * 5, [1.0] * 5])
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "do not match" in err

    @pytest.mark.parametrize("values", [[1.0, 1.5], []])
    def test_short_values_at_zero(self, values, tmp_path, capsys,
                                  no_sampling):
        path = hand_artifact(tmp_path / "a.json", values_at_zero=values)
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "values_at_zero" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, -0.25])
    def test_action_outside_unit_interval(self, bad, tmp_path, capsys,
                                          no_sampling):
        actions = [[0.0] * 5, [1.0] * 5, [0.5] * 5]
        actions[2][0] = bad
        path = hand_artifact(tmp_path / "a.json", actions=actions)
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "[0, 1]" in err

    @pytest.mark.parametrize("overrides", [
        {"function": 5},
        {"values_at_zero": [1.0, 1.5, float("nan")]},
        {"values_at_zero": [1.0, float("inf"), 2.0]},
        {"grid": {"y_max": "2", "step": 0.5}},
        {"grid": {"y_max": 2.0, "step": True}},
        {"grid": {"y_max": None, "step": 0.5}},
        {"values_at_zero": [1.0, True, 2.0]},
        {"values_at_zero": [1.0, "1.5", 2.0]},
        {"actions": [[0.0] * 5, [1.0] * 5, ["0.5"] * 5]},
        {"actions": [[0.0] * 5, [True] * 5, [0.5] * 5]},
        {"actions": [[0.0] * 5, [1.0] * 5, [None] * 5]}])
    def test_malformed_entries(self, overrides, tmp_path, capsys,
                               no_sampling):
        # A numeric function tag used to die with an AttributeError
        # (exit 1), and a NaN table value was printed as table_value.
        # float() takes "2" and true, so a string y_max, a true table
        # value (printed as table_value 1.0) and a string action all
        # used to exit 0.
        path = hand_artifact(tmp_path / "a.json", **overrides)
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "malformed" in err


    @pytest.mark.parametrize("overrides", [
        {"values_at_zero": [1.0, 10 ** 400, 2.0]},
        {"grid": {"y_max": 10 ** 400, "step": 0.5}},
        {"actions": [[0.0] * 5, [1.0] * 5, [0.5] * 4 + [10 ** 400]]}])
    def test_integer_past_the_float_range(self, overrides, tmp_path, capsys,
                                          no_sampling):
        # json reads 1e400 written as digits as an int, which float()
        # and np.array refuse with an OverflowError: exit 1 and a
        # traceback.
        path = hand_artifact(tmp_path / "a.json", **overrides)
        code, err = self.simulate(path, capsys)
        assert code == 2
        assert "malformed" in err


class TestReport:
    def test_exponential_all_pass(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(["report", "--f", "exp:lambda=0.5",
                             "--horizon", "6", "--step", "1/64",
                             "--trials", "200", "--json", str(target)],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        check("report", payload)
        assert payload["status"] == "all-pass"
        assert payload["failures"] == []
        assert payload["bound"]["value"] == pytest.approx(2.0, abs=1e-8)
        assert payload["shift_scan"]["violations"] == 0
        assert payload["chain_check"]["within_budget"] is True
        assert target.read_text(encoding="utf-8") == out

    def test_supercritical_consistent(self, capsys):
        code, out = run_cli(["report", "--f", "exp:lambda=1.5",
                             "--horizon", "5", "--step", "1/64",
                             "--trials", "100"], capsys)
        assert code == 0
        payload = json.loads(out)
        check("report", payload)
        assert payload["bound"]["value"] == "unbounded"
        assert payload["recursion"]["status"] == "diverged"
        assert payload["status"] == "all-pass"

    def test_counterexample_is_expected_finding(self, capsys):
        code, out = run_cli(["report", "--f", "remark2", "--horizon", "4",
                             "--step", "1/64", "--trials", "200"], capsys)
        assert code == 0
        payload = json.loads(out)
        check("report", payload)
        assert payload["class_s"] is False
        assert payload["shift_scan"]["violations"] >= 1
        assert payload["shift_scan"]["violations_expected"] is True
        assert payload["status"] == "all-pass"

    def test_bad_grid_fails_before_the_recursion(self, monkeypatch, capsys):
        def no_recursion(*args, **kwargs):
            raise AssertionError("the recursion ran before the grid check")

        monkeypatch.setattr(cli, "iterate", no_recursion)
        code = main(["report", "--f", "exp:lambda=0.5", "--horizon", "3",
                     "--step", "0.7"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "does not divide" in out.err

    def test_comparison_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code, _ = run_cli(["report", "--f", "pow:m=2", "--horizon", "5",
                           "--step", "1/64", "--trials", "100",
                           "--csv", str(out_csv)], capsys)
        assert code == 0
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "c_n", "b_n", "gap"]
        assert len(rows) == 7

    REPORT_POW7 = ["report", "--f", "pow:m=7", "--horizon", "6",
                   "--step", "1/64", "--trials", "50"]

    def test_chain_check_scales_with_the_values(self, capsys):
        # The table value near 239 is the exact expectation of its own
        # chain, so the miss is round-off on the value's scale.
        code, out = run_cli(self.REPORT_POW7, capsys)
        assert code == 0
        chain = json.loads(out)["chain_check"]
        assert chain["table_value"] > 200.0
        assert chain["abs_diff"] <= 1e-12 * chain["table_value"]
        assert chain["within_budget"] is True

    def test_chain_miss_beyond_scaled_budget_breaches(self, monkeypatch,
                                                      capsys):
        exact = cli.exact_expectation
        # Three scaled budgets off: 3 * (2 * step) relative to the value.
        monkeypatch.setattr(cli, "exact_expectation",
                            lambda spec, law: exact(spec, law) * (1 + 6 / 64))
        code, out = run_cli(self.REPORT_POW7, capsys)
        assert code == 3
        payload = json.loads(out)
        check("report", payload)
        assert payload["chain_check"]["within_budget"] is False
        assert payload["failures"] == [
            "extremal chain expectation does not reproduce the table value"]
        assert payload["status"] == "breach"

    REPORT_EXP = ["report", "--f", "exp:lambda=0.5", "--horizon", "4",
                  "--step", "1/64", "--trials", "50"]

    def breach(self, argv, capsys):
        """Run a report that must breach; return its one failure."""
        code, out = run_cli(argv, capsys)
        assert code == 3
        payload = json.loads(out)
        check("report", payload)
        assert payload["status"] == "breach"
        assert len(payload["failures"]) == 1
        return payload["failures"][0]

    def test_converged_trace_against_unbounded_bound_breaches(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "iterate", lambda spec: RecursionTrace(
            (1.0, 1.5), (1.0,), RecursionStatus.CONVERGED, limit=1.5))
        assert self.breach(["report", "--f", "exp:lambda=1", "--horizon",
                            "4", "--step", "1/64", "--trials", "50"],
                           capsys) == ("recursion converged although the "
                                       "fixed-point bound is unbounded")

    def test_diverged_trace_against_finite_bound_breaches(self, monkeypatch,
                                                           capsys):
        monkeypatch.setattr(cli, "iterate", lambda spec: RecursionTrace(
            (1.0, 2e6), (1.0,), RecursionStatus.DIVERGED, diverged_at=1))
        assert self.breach(self.REPORT_EXP, capsys) == (
            "recursion diverged although the fixed-point bound is finite")

    @pytest.mark.parametrize("miss, code", [(1.5e-3, 0), (2.5e-3, 3)])
    def test_limit_away_from_the_bound_breaches(self, miss, code,
                                                monkeypatch, capsys):
        # B = 2, so a limit may miss it by 1e-3 * B = 2e-3.
        limit = 2.0 + miss
        monkeypatch.setattr(cli, "iterate", lambda spec: RecursionTrace(
            (1.0, limit), (1.0,), RecursionStatus.CONVERGED, limit=limit))
        if code == 0:
            assert run_cli(self.REPORT_EXP, capsys)[0] == 0
            return
        assert self.breach(self.REPORT_EXP, capsys) == (
            "recursion limit does not match the fixed-point bound")

    def test_comparison_beyond_its_budget_breaches(self, monkeypatch,
                                                   capsys):
        compare = cli.compare_bounds

        def low_recursion(table):
            # A recursion one unit lower: every gap one unit wider.
            cmp = compare(table)
            return BoundComparison(
                tuple((n, c, b - 1.0, g + 1.0) for n, c, b, g in cmp.rows),
                cmp.budget, cmp.enforced)

        monkeypatch.setattr(cli, "compare_bounds", low_recursion)
        assert self.breach(self.REPORT_EXP, capsys) == (
            "exact values exceed the recursion bound beyond the grid budget")

    def test_shift_class_violation_breaches(self, monkeypatch, capsys):
        scan = cli.property_scan
        monkeypatch.setattr(cli, "property_scan", lambda *args: replace(
            scan(*args), violations=1))
        assert self.breach(self.REPORT_EXP, capsys) == (
            "shift-inequality violations found for a shift-class function")
