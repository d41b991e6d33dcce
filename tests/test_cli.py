"""End-to-end tests for the command-line interface: exit codes, JSON
schema conformance, CSV shape, and byte-identical reruns."""

import csv
import hashlib
import json
import math
from pathlib import Path

import jsonschema
import pytest

from compensator_bounds import cli
from compensator_bounds.cli import main, parse_args
from compensator_bounds.functions import Family, parse_function_spec
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

    def test_function_string_round_trips(self, capsys):
        code, out = run_cli(["solve-recursion", "--f", "exp:lambda=0.25"],
                            capsys)
        payload = json.loads(out)
        assert parse_function_spec(payload["function"]).param == 0.25

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        # sha256 of the stdout from when the atom count and value cap were
        # the flags --max-atoms (default 5) and --value-cap (default 4.0).
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "4381addf9f799e3cafbaf1af8b1d039d29ea3bba698b65c20ef16f52d9781bd5")
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
        # that drew one (paths, steps) block in a single call.
        paths_csv = tmp_path / "paths.csv"
        code, out = run_cli(["simulate", "--chain", "intro",
                             "--f", "exp:lambda=1", "--n", "12",
                             "--paths", "4000", "--seed", "9",
                             "--csv", str(paths_csv)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "87ebeacd3972c8b4b82c31b8b796aa591ed871a8e28b0b45ab7e47abd29ac7e0")
        assert hashlib.sha256(paths_csv.read_bytes()).hexdigest() == (
            "a1ac922cf7987f132667ae0ea1fc3f0e9295c869e39799e57caf6c51d78bc33e")

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


class TestPinnedRecursionOutputs:
    # sha256 of the stdout of the bound and recursion commands, frozen
    # from the golden search that also probed its bracket ends and swept
    # its last pair again; the quad bound from the closed-form root.
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
         "5af298f78ff823c4efff04f95f57f54e8ec36fe4ee7a9ac43d6a49212b8af66c"),
        (["solve-recursion", "--f", "pow:m=1"],
         "1a08c214010e19d0defa00dfcfab52b68b9372fb626b0aea966cb29441847a28"),
        (["solve-recursion", "--f", "quad", "--tol", "1e-6"],
         "bc1b5b5877e1942ba297f7ae98d799d90fa9c4e6f171e5c9a153a0d4f8046921"),
    ])
    def test_recursion_outputs_are_pinned(self, argv, digest, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def hand_artifact(path: Path, **overrides) -> Path:
    """A small valid value-table artifact (H=2, 5 grid points), with
    keys replaced or, when set to ``None``, removed."""
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
        {"values_at_zero": [1.0, float("inf"), 2.0]}])
    def test_malformed_entries(self, overrides, tmp_path, capsys,
                               no_sampling):
        # A numeric function tag used to die with an AttributeError
        # (exit 1), and a NaN table value was printed as table_value.
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
        # A miss of 0.11 on a table value near 239 is 4.8e-4 relative,
        # well inside the grid budget 2 * step = 0.031 scaled by the value.
        code, out = run_cli(self.REPORT_POW7, capsys)
        assert code == 0
        chain = json.loads(out)["chain_check"]
        assert chain["table_value"] > 200.0
        assert chain["abs_diff"] > 2.0 / 64
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
