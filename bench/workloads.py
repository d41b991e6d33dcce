"""The benchmark's workloads: fixed operation lists and their oracles.

Each workload is a list of operations.  A CLI operation is an argv for
``compensator_bounds.cli.main``; a library operation is a function in
this module that calls public library functions.  Seeds for
the seeded operations derive from the benchmark seed, and the program
receives nothing but the generated argv.

Every oracle works from closed forms or from invariants of the payload,
never from the code path being timed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("bellman", "recursion", "scan-simulate")

# Every size the workloads and probes use.  "tiny" exists only so the
# harness can be smoke-tested in seconds; it is never what gets reported.
SIZES = {
    "full": {
        "horizon": 30, "step": "1/512", "extremal_paths": 50000,
        "lemma_horizon": 20, "lemma_y_max": 23.0, "lemma_step": 1 / 128,
        "lemma_solver": (256, 40), "rec_max_iter": None, "trials": 10000,
        "intro_n": 60, "intro_paths": 1_000_000,
        # probes
        "probe_calls": 200, "probe_steps": 400, "probe_layers": 2,
        "probe_golden": 2000, "probe_value_reps": 200,
        "probe_trials": 200, "probe_audit_paths": 20000,
    },
    "tiny": {
        "horizon": 2, "step": "1/64", "extremal_paths": 2000,
        "lemma_horizon": 2, "lemma_y_max": 5.0, "lemma_step": 1 / 32,
        "lemma_solver": (32, 10), "rec_max_iter": 50, "trials": 50,
        "intro_n": 20, "intro_paths": 5000,
        "probe_calls": 10, "probe_steps": 10, "probe_layers": 1,
        "probe_golden": 20, "probe_value_reps": 5,
        "probe_trials": 10, "probe_audit_paths": 500,
    },
}

# Horizon-free fixed points in closed form: 1/(1-lambda) (unbounded for
# lambda >= 1), m^m, 1 + sqrt(2).  remark2 sits outside the shift class,
# so its B-equation root (1) does not bound its recursion; the recursion's
# own fixed point is 41/32 (maximizer 1/4, f^{-1}(b) = 5/4).
BOUND_CLOSED_FORM = {
    "exp:lambda=0.5": 2.0,
    "exp:lambda=1": math.inf,
    "pow:m=2": 4.0,
    "pow:m=3": 27.0,
    "quad": 1.0 + math.sqrt(2.0),
    "remark2": 1.0,
}
RECURSION_CAP = {**BOUND_CLOSED_FORM, "remark2": 41.0 / 32.0}

SHIFT_FAMILIES = ("exp:lambda=0.5", "pow:m=2", "quad", "remark2")
INJECTED_GAP = -0.125


@dataclass
class Op:
    """One operation: ``argv`` for the CLI, or ``call(cb, size)`` for the
    library (``cb`` is the imported package)."""

    id: str
    group: str
    argv: list[str] = field(default_factory=list)
    call: Callable | None = None
    files: dict[str, str] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _op_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield str(rng.randrange(2**31))


def build_ops(workload: str, seed: int, tmp: Path,
              size: str = "full") -> list[Op]:
    """The operation list of ``workload`` for benchmark seed ``seed``;
    files the operations write go under ``tmp``."""
    s = SIZES[size]
    seeds = _op_seeds(workload, seed)
    if workload == "bellman":
        table = str(tmp / "table.json")
        grid = ["--horizon", str(s["horizon"]), "--step", s["step"]]
        return [
            Op("compare:exp:lambda=0.5", "compare",
               ["compare", "--f", "exp:lambda=0.5", *grid]),
            Op("solve-bellman:pow:m=2", "solve_bellman",
               ["solve-bellman", "--f", "pow:m=2", *grid, "--json", table],
               files={"json": table}),
            Op("simulate:extremal:pow:m=2", "simulate",
               ["simulate", "--chain", "extremal", "--f", "pow:m=2",
                "--policy", table, "--paths", str(s["extremal_paths"]),
                "--seed", next(seeds)],
               expect={"step": parse_step(s["step"])}),
            Op("lemma1:exp:lambda=0.5", "lemma1", call=lemma1),
        ]
    if workload == "recursion":
        ops = [Op(f"bound:{f}", "bound", ["bound", "--f", f])
               for f in BOUND_CLOSED_FORM]
        extra = ([] if s["rec_max_iter"] is None
                 else ["--max-iter", str(s["rec_max_iter"])])
        for f in ("exp:lambda=1", "exp:lambda=0.5", "pow:m=2", "remark2"):
            ops.append(Op(f"solve-recursion:{f}", "solve_recursion",
                          ["solve-recursion", "--f", f, *extra]))
        ops.append(Op("solve-recursion:quad", "solve_recursion",
                      ["solve-recursion", "--f", "quad", "--tol", "1e-6",
                       *extra]))
        return ops
    if workload == "scan-simulate":
        ops = [Op(f"test-shift:{f}", "test_shift",
                  ["test-shift", "--f", f, "--trials", str(s["trials"]),
                   "--seed", next(seeds)])
               for f in SHIFT_FAMILIES]
        paths = str(tmp / "paths.csv")
        ops.append(Op("simulate:intro:exp:lambda=1", "simulate",
                      ["simulate", "--chain", "intro", "--f", "exp:lambda=1",
                       "--n", str(s["intro_n"]),
                       "--paths", str(s["intro_paths"]),
                       "--seed", next(seeds), "--csv", paths],
                      files={"csv": paths}))
        return ops
    raise ValueError(f"unknown workload '{workload}'")


def lemma1(cb, size: str = "full"):
    """``verify_lemma1`` on a freshly built exp:lambda=0.5 table."""
    s = SIZES[size]
    spec = cb.functions.parse_function_spec("exp:lambda=0.5")
    table = cb.bellman.value_iteration(
        spec, s["lemma_horizon"],
        cb.bellman.GridConfig(s["lemma_y_max"], s["lemma_step"]),
        cb.recursion.SolverConfig(*s["lemma_solver"]))
    return cb.bellman.verify_lemma1(table)


# ----------------------------------------------------------------------
# oracles: each returns a list of failure messages, empty when correct


def _flag(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def _nondecreasing(seq, slack: float = 1e-12) -> bool:
    return all(b >= a - slack * max(1.0, abs(a)) for a, b in zip(seq, seq[1:]))


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def parse_step(text: str) -> float:
    """A grid step as the CLI takes it: a float or a fraction."""
    num, _, den = text.partition("/")
    return float(num) / float(den) if den else float(num)


def check_cli(op: Op, code: int, stdout: str) -> list[str]:
    """Oracle for one CLI operation, given its exit code and stdout."""
    errors: list[str] = []
    _flag(errors, code == 0, f"exit code {code}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return errors + [f"stdout is not JSON: {exc}"]
    if not isinstance(payload, dict):
        return errors + ["stdout is not a JSON object"]
    command = op.argv[0]
    try:
        checker = _CHECKS[command]
        checker(op, payload, errors)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        errors.append(f"malformed payload: {exc!r}")
    return errors


def _check_bound(op: Op, p: dict, errors: list[str]) -> None:
    expected = BOUND_CLOSED_FORM[_arg(op.argv, "--f")]
    if math.isinf(expected):
        _flag(errors, p["value"] == "unbounded" and p["unbounded"] is True,
              f"expected unbounded, got {p['value']!r}")
    else:
        _flag(errors, p["unbounded"] is False
              and _close(float(p["value"]), expected),
              f"bound {p['value']!r} != closed form {expected!r}")


def _check_solve_recursion(op: Op, p: dict, errors: list[str]) -> None:
    f = _arg(op.argv, "--f")
    b = [float(v) for v in p["b"]]
    _flag(errors, len(b) == p["iterations"] + 1 == len(p["a_star"]) + 1,
          "trace length does not match iterations")
    _flag(errors, _nondecreasing(b), "b_n is not nondecreasing")
    cap = RECURSION_CAP[f]
    _flag(errors, max(b) <= cap * (1.0 + 1e-9),
          f"b_n = {max(b)!r} exceeds the fixed point {cap!r}")
    _flag(errors, all(0.0 <= a <= 1.0 for a in p["a_star"]),
          "a maximizer lies outside [0, 1]")
    if f == "exp:lambda=1" and len(b) > 1:
        _flag(errors, _close(b[1], math.e, 1e-12),
              f"b_1 = {b[1]!r}, expected e")
    if f == "remark2" and p["status"] == "converged":
        _flag(errors, _close(float(p["limit"]), cap, 1e-6),
              f"remark2 limit {p['limit']!r} != 41/32")


def _check_compare(op: Op, p: dict, errors: list[str]) -> None:
    _flag(errors, p["within_budget"] is True, "comparison not within budget")
    _flag(errors, float(p["max_gap"]) <= 5e-3,
          f"max gap {p['max_gap']!r} > 5e-3")
    rows = p["rows"]
    _flag(errors, len(rows) == int(_arg(op.argv, "--horizon")) + 1,
          "wrong number of rows")
    _flag(errors, rows[0][1] == rows[0][2] == 1.0,
          "c_0 or b_0 is not f(0) = 1")
    _flag(errors, all(g == c - b for _, c, b, g in rows),
          "a gap is not c_n - b_n")
    b_seq = [b for _, _, b, _ in rows]
    _flag(errors, _nondecreasing(b_seq) and max(b_seq) <= 2.0 * (1 + 1e-9),
          "b_n not nondecreasing below the fixed point 2")


def _check_solve_bellman(op: Op, p: dict, errors: list[str]) -> None:
    horizon = int(_arg(op.argv, "--horizon"))
    step = parse_step(_arg(op.argv, "--step"))
    values = [float(v) for v in p["values_at_zero"]]
    _flag(errors, len(values) == horizon + 1 and values[0] == 0.0,
          "values_at_zero has the wrong length or V_0(0) != 0")
    # c_n <= b_n + budget <= m^m + budget, with the README's 2*step budget.
    _flag(errors, _nondecreasing(values) and max(values) <= 4.0 + 2.0 * step,
          "V_n(0) not nondecreasing below 4 + grid budget")
    n_points = int(round(horizon / step)) + 1
    actions = p["actions"]
    _flag(errors, len(actions) == horizon + 1
          and all(len(row) == n_points for row in actions),
          "action table has the wrong shape")
    _flag(errors, all(0.0 <= a <= 1.0 for row in actions for a in row),
          "an action lies outside [0, 1]")


def _check_simulate(op: Op, p: dict, errors: list[str]) -> None:
    _flag(errors, float(p["max_doob_residual"]) <= 1e-12,
          f"Doob residual {p['max_doob_residual']!r} > 1e-12")
    if p["chain"] == "extremal":
        _flag(errors, p["within_4se"] is True, "MC mean not within 4 s.e.")
        # README: grid_error_budget(step) = 2 * step, at the step the
        # artifact was built with.
        step = op.expect["step"]
        gap = abs(float(p["exact_f"]) - float(p["table_value"]))
        _flag(errors, gap <= 2.0 * step,
              f"|exact_f - table_value| = {gap!r} > {2.0 * step!r}")
    else:
        # Absorbed at step k with probability 2^-k at y = k/2, else
        # y = n/2 with probability 2^-n; f = e^y gives a geometric series.
        # No 4-s.e. check: E f(Y)^2 grows like (e/2)^n, so the sample
        # standard error is far too small for many seeds.
        n = int(_arg(op.argv, "--n"))
        r = math.exp(0.5) / 2.0
        exact = r * (1.0 - r**n) / (1.0 - r) + r**n
        _flag(errors, _close(float(p["exact_f"]), exact, 1e-12),
              f"exact_f {p['exact_f']!r} != geometric series {exact!r}")


def _check_test_shift(op: Op, p: dict, errors: list[str]) -> None:
    f = _arg(op.argv, "--f")
    _flag(errors, p["trials"] == int(_arg(op.argv, "--trials")),
          "wrong trial count")
    if f == "remark2":
        _flag(errors, p["violations"] >= 1, "remark2 shows no violation")
        _flag(errors, abs(float(p["injected_gap"]) - INJECTED_GAP) <= 1e-12,
              f"injected gap {p['injected_gap']!r} != -0.125")
    else:
        _flag(errors, p["violations"] == 0,
              f"{p['violations']} violations in-class")


_CHECKS = {
    "bound": _check_bound,
    "solve-recursion": _check_solve_recursion,
    "compare": _check_compare,
    "solve-bellman": _check_solve_bellman,
    "simulate": _check_simulate,
    "test-shift": _check_test_shift,
}


def check_files(op: Op, stdout: str) -> list[str]:
    """Side files the operation must have written."""
    errors: list[str] = []
    try:
        if "json" in op.files:
            text = Path(op.files["json"]).read_text(encoding="utf-8")
            _flag(errors, text == stdout, "--json file differs from stdout")
        if "csv" in op.files:
            lines = Path(op.files["csv"]).read_text(
                encoding="utf-8").splitlines()
            n = int(_arg(op.argv, "--n"))
            _flag(errors, lines[:1] == ["path_id,k,X,Y,M"]
                  and len(lines) == 1 + 100 * (n + 1),
                  "--csv path dump has the wrong header or row count")
    except OSError as exc:
        errors.append(f"side file unreadable: {exc}")
    return errors


def check_lemma1(report) -> list[str]:
    return ([] if report.total_violations == 0
            else [f"{report.total_violations} Lemma 1 violations"])


def recursion_steps(op: Op, stdout: str) -> int:
    """Recursion steps an operation ran, read from its argv and payload."""
    if op.argv[:1] == ["solve-recursion"]:
        return int(json.loads(stdout)["iterations"])
    if op.argv[:1] == ["compare"]:
        return int(_arg(op.argv, "--horizon"))
    return 0
