"""Command-line entry point.

Subcommands map one-to-one onto the library modules: ``bound`` and
``solve-recursion`` for the scalar bound, ``solve-bellman`` and
``compare`` for the exact control values, ``test-shift`` for the
inequality scan, ``simulate`` for the chains, and ``report`` for a
combined battery with CI-friendly exit codes.

Each subcommand returns its exit code, its payload and, where a tabular
trace exists, a CSV header with a lazy iterable of text rows.  ``main``
adds the ``command`` and ``function`` keys to every payload, and
``_emit`` alone writes it: one JSON document to stdout (and to ``--json
PATH`` when given, unless that is stdout's own file), then the trace, as
``csv.writer`` would, to ``--csv PATH``.  Identical argv and seed give
byte-identical outputs: keys are sorted, and nothing is stamped with
times or hostnames.  The JSON text is what ``json.dumps(payload,
sort_keys=True, indent=2)`` gives, written by one walker, ``_pieces``,
one table row at a time: each float is its ``repr``, taken once per
distinct value of an array row (an action row holds a few hundred), and
``NaN`` and ``Infinity`` appear as ``json`` writes them.

Exit codes: 0 = ran and all internal consistency checks passed, 1 =
stdout's reader closed it early, 2 = usage error, 3 = a consistency
check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import stat
import sys

import numpy as np

from .bellman import (
    ExtremalPolicy,
    GridConfig,
    compare_bounds,
    extremal_policy,
    value_iteration,
)
from .chains import (
    exact_expectation,
    extremal_chain_law,
    intro_schedule,
    policy_schedule,
    schedule_law,
    simulate_schedule,
)
from .functions import FunctionSpec, is_class_s_family, parse_function_spec
from .recursion import (
    DEFAULT_CONFIG,
    RecursionStatus,
    SolverConfig,
    fixed_point_bound,
    iterate,
)
from .shift import property_scan
# No command calls optimize; the import keeps every layer of the package
# loaded once the CLI is.
from . import optimize  # noqa: F401

__all__ = ["main", "parse_args"]

ARTIFACT_FORMAT = "compensator-bounds/value-table-v1"
# Paths written to ``simulate --csv``.
_DUMP_PATHS = 100


# ----------------------------------------------------------------------
# argument plumbing


def _function_arg(text: str) -> FunctionSpec:
    try:
        return parse_function_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _step_arg(text: str) -> float:
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"could not parse grid step '{text}'") from exc
    if value <= 0.0:
        raise argparse.ArgumentTypeError("grid step must be > 0")
    return value


def _int_arg(floor: int, noun: str):
    """An argparse type for integers ``>= floor``, called ``noun`` in
    its errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a {noun}, got {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"expected a {noun}, got {value}")
        return value
    return parse


_positive_int = _int_arg(1, "positive count")
_seed_arg = _int_arg(0, "non-negative seed")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse starts
    from a fresh namespace, so a reused parser carries nothing over."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH",
                        help="also write the JSON document to this file")
    common.add_argument("--f", type=_function_arg, required=True,
                        metavar="SPEC", help="function spec, e.g. "
                        "exp:lambda=0.5, pow:m=2, quad, remark2")
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--csv", metavar="PATH",
                         help="write the tabular trace to this file")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed_arg, default=0,
                        help="seed for every random draw (default 0)")

    parser = argparse.ArgumentParser(
        prog="compensator-bounds",
        description="Bounds on compensator growth for [0,1]-bounded "
                    "submartingales: recursive and fixed-point bounds, "
                    "exact control values, inequality scans, and chain "
                    "simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "bound", parents=[common],
        help="fixed-point bound on the limiting growth, with cross-check")

    p_rec = sub.add_parser(
        "solve-recursion", parents=[common, tabular],
        help="iterate the one-step recursion from f(0)")
    p_rec.add_argument("--tol", type=float, default=DEFAULT_CONFIG.b_tolerance,
                       help="convergence tolerance on successive values")
    p_rec.add_argument("--max-iter", type=_positive_int,
                       default=DEFAULT_CONFIG.max_iterations)

    p_bell = sub.add_parser(
        "solve-bellman", parents=[common, tabular],
        help="value iteration on the y-grid; the JSON artifact carries "
             "the maximizing increments and can drive 'simulate'")
    p_bell.add_argument("--horizon", type=_positive_int, required=True)
    p_bell.add_argument("--step", type=_step_arg, default="1/512",
                        help="grid spacing, a float or fraction like 1/512")

    p_cmp = sub.add_parser(
        "compare", parents=[common, tabular],
        help="exact values against the recursion, step by step")
    p_cmp.add_argument("--horizon", type=_positive_int, required=True)
    p_cmp.add_argument("--step", type=_step_arg, default="1/512")

    p_shift = sub.add_parser(
        "test-shift", parents=[common, seeded],
        help="randomized scan for shift-inequality violations")
    p_shift.add_argument("--trials", type=_positive_int, default=1000)

    p_sim = sub.add_parser(
        "simulate", parents=[common, seeded, tabular],
        help="Monte-Carlo chains; --csv dumps paths as "
             "path_id,k,X,Y,M rows")
    p_sim.add_argument("--chain", choices=("intro", "extremal"),
                       required=True)
    p_sim.add_argument("--n", type=_positive_int, default=None,
                       help="steps of the doubling chain (intro only)")
    p_sim.add_argument("--paths", type=_positive_int, default=10_000)
    p_sim.add_argument("--policy", metavar="PATH",
                       help="value-table artifact from solve-bellman "
                            "(extremal only)")
    p_sim.add_argument("--horizon", type=_positive_int, default=None,
                       help="steps of the table-driven chain; defaults to "
                            "the artifact horizon (extremal only)")

    p_rep = sub.add_parser(
        "report", parents=[common, seeded, tabular],
        help="combined battery: bound, recursion, comparison, shift "
             "scan, chain cross-check")
    p_rep.add_argument("--horizon", type=_positive_int, default=20)
    p_rep.add_argument("--step", type=_step_arg, default="1/512")
    p_rep.add_argument("--trials", type=_positive_int, default=1000)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "simulate":
        if args.chain == "intro":
            if args.n is None:
                parser.error("--n is required for --chain intro")
            if args.policy is not None or args.horizon is not None:
                parser.error("--policy and --horizon apply to "
                             "--chain extremal only")
        else:
            if args.policy is None:
                parser.error("--policy is required for --chain extremal")
            if args.n is not None:
                parser.error("--n applies to --chain intro only")
    return args


# ----------------------------------------------------------------------
# output plumbing


def _pieces(value, indent: str):
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``,
    byte for byte, for values with string keys, where a float64
    ``ndarray`` may stand for the nested list of its floats.  It comes
    in pieces: the framing of each dict, and one row at a time of an
    array of two or more dimensions, so that no piece holds a table.
    A list, tuple or 1-D array is one piece: a finite float is its
    ``repr``, an array row is rendered once per distinct value, and any
    other item is this text again."""
    inner = indent + "  "
    array = isinstance(value, np.ndarray) and value.dtype == np.float64
    if isinstance(value, dict) and value:
        opening = "{"
        for key in sorted(value):
            yield f"{opening}\n{inner}{json.dumps(key)}: "
            yield from _pieces(value[key], inner)
            opening = ","
        yield f"\n{indent}}}"
    elif array and value.ndim > 1 and len(value):
        opening = "["
        for row in value:
            yield f"{opening}\n{inner}" + "".join(_pieces(row, inner))
            opening = ","
        yield f"\n{indent}]"
    elif array or isinstance(value, (list, tuple)):
        def text(item):
            if type(item) is float and item - item == 0.0:
                return float.__repr__(item)
            return "".join(_pieces(item, inner))
        # The inline test spares a call per float of the 20000-long
        # lists of solve-recursion, about 10% of their encoding.
        texts = (_distinct_texts(value, text).tolist() if array else
                 [float.__repr__(v) if type(v) is float and v - v == 0.0
                  else text(v) for v in value])
        yield (f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{indent}]"
               if texts else "[]")
    else:
        yield json.dumps(value)


def _distinct_texts(values: np.ndarray, render) -> np.ndarray:
    """``render`` of every float in ``values``, as an object array of
    the same shape, calling ``render`` once per distinct bit pattern
    (so 0.0 and -0.0 stay apart)."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = [render(v) for v in bits.view(np.float64).tolist()]
    return np.array(distinct, dtype=object)[inverse.reshape(values.shape)]


def _emit(payload: dict, args, header=(), rows=()) -> None:
    """Write the payload's JSON text to stdout and ``args.json`` piece
    by piece, then the ``header`` and ``rows`` of the tabular trace to
    ``args.csv``; without ``args.csv``, ``rows`` is never iterated.
    Both files open first, so a path that cannot be opened, one file
    named by both flags, or a ``--csv`` on stdout's file, is an error
    before anything is printed, any existing file is truncated, or a new
    file is left behind.  A ``--json`` on stdout's file is closed
    unwritten, so the text goes out once, through stdout."""
    files = dict.fromkeys(("json", "csv"))
    # Once ``stack`` has closed the files, ``undo`` unlinks the new ones.
    with contextlib.ExitStack() as undo, contextlib.ExitStack() as stack:
        def opener(path, flags):
            # "w" but no O_TRUNC until checked; O_EXCL finds a new path.
            try:
                fd = os.open(path, flags & ~os.O_TRUNC | os.O_EXCL, 0o666)
            except FileExistsError:
                return os.open(path, flags & ~os.O_TRUNC, 0o666)
            undo.callback(os.unlink, path)
            return fd

        for flag in files:
            path = getattr(args, flag, None)
            try:
                if path is not None:
                    files[flag] = stack.enter_context(open(
                        path, "w", encoding="utf-8", newline="",
                        opener=opener))
            except OSError as exc:
                raise ValueError(f"could not write --{flag} file "
                                 f"'{path}': {exc}") from exc
        stats = {f: os.fstat(f.fileno())
                 for f in files.values() if f is not None}
        # Two handles on one file would interleave the two texts.
        if len(stats) == 2 and os.path.samestat(*stats.values()):
            raise ValueError(f"--json '{args.json}' and --csv "
                             f"'{args.csv}' name the same file")
        # A CSV on stdout's file would overwrite the JSON text.  A --json
        # there closes unwritten, since stdout writes the same bytes: a
        # second write would double them in a pipe, and its truncate()
        # would drop what a ">>" redirection kept.  A StringIO has no
        # descriptor.
        with contextlib.suppress(AttributeError, OSError):
            out = os.fstat(sys.stdout.fileno())
            if files["csv"] and os.path.samestat(stats[files["csv"]], out):
                raise ValueError(f"--csv '{args.csv}' names the file "
                                 f"that stdout writes to")
            if files["json"] and os.path.samestat(stats[files["json"]], out):
                files["json"].close()
                del stats[files["json"]]
                files["json"] = None
        undo.pop_all()  # checked: the files made stay
        for f, st in stats.items():  # "w" truncates regular files only
            if stat.S_ISREG(st.st_mode):
                f.truncate()
        sinks = [f for f in (sys.stdout, files["json"]) if f is not None]
        for piece in itertools.chain(_pieces(payload, ""), ["\n"]):
            for sink in sinks:
                sink.write(piece)
        # A reader that closed stdout early shows here, not at exit.
        sys.stdout.flush()
        if files["csv"] is None:
            return
        # Every field is an int or a float repr, which the csv module
        # would write unquoted, so the lines go out in joined blocks.
        lines = map(",".join, itertools.chain([header], rows))
        while block := list(itertools.islice(lines, 2048)):
            files["csv"].write("\r\n".join(block) + "\r\n")


def _bound_value(value: float) -> float | str:
    return "unbounded" if np.isinf(value) else float(value)


def _grid(args) -> GridConfig:
    """The grid of ``solve-bellman``, ``compare`` and ``report``: from 0
    to ``--horizon`` in steps of ``--step``."""
    return GridConfig(float(args.horizon), args.step)


def _recursion_fields(trace) -> dict:
    """The verdict of a recursion trace, shared by ``solve-recursion``
    and ``report``."""
    return {
        "status": trace.status.value,
        "iterations": len(trace.b) - 1,
        "final": float(trace.final),
        "limit": None if trace.limit is None else float(trace.limit),
    }


def _scan_fields(scan) -> dict:
    """The counts of a shift scan, shared by ``test-shift`` and
    ``report``."""
    return {
        "trials": scan.trials,
        "seed": scan.seed,
        "violations": scan.violations,
        "min_gap": float(scan.min_gap),
    }


def _comparison_fields(comparison, horizon: int, step: float) -> dict:
    """The per-horizon ``[n, c_n, b_n, gap]`` rows and their verdict,
    shared by ``compare`` and ``report``."""
    return {
        "horizon": horizon,
        "step": float(step),
        "budget": float(comparison.budget),
        "enforced": comparison.enforced,
        "within_budget": comparison.within_budget,
        "max_gap": float(comparison.max_gap),
        "rows": [[n, c, b, g] for n, c, b, g in comparison.rows],
    }


def _comparison_trace(rows) -> tuple:
    """The CSV header and rows of ``compare`` and ``report``."""
    return ("n", "c_n", "b_n", "gap"), (
        (str(n), repr(c), repr(b), repr(g)) for n, c, b, g in rows)


# ----------------------------------------------------------------------
# subcommands


def _cmd_bound(args):
    result = fixed_point_bound(args.f)
    payload = {
        "value": _bound_value(result.value),
        "unbounded": bool(result.unbounded),
        "cross_check_max": (None if result.cross_check_max is None
                            else float(result.cross_check_max)),
        "cross_check_ok": result.cross_check_ok,
    }
    breach = (result.cross_check_ok is False
              and is_class_s_family(args.f))
    return (3 if breach else 0), payload


def _cmd_solve_recursion(args):
    cfg = SolverConfig(b_tolerance=args.tol, max_iterations=args.max_iter)
    trace = iterate(args.f, cfg)
    payload = {
        **_recursion_fields(trace),
        "diverged_at": trace.diverged_at,
        "b": [float(v) for v in trace.b],
        "a_star": [float(v) for v in trace.a_star],
    }
    rows = zip(map(str, itertools.count()), map(repr, payload["b"]),
               itertools.chain([""], map(repr, payload["a_star"])))
    return 0, payload, ("n", "b_n", "a_star_n"), rows


def _table_layers(table, actions):
    """The ``n,y,value,action`` rows of each layer.  A layer's values
    are all distinct; its actions take a few hundred values, so each of
    those is rendered once."""
    y_texts = [repr(y) for y in table.grid.points().tolist()]
    for n in range(table.horizon + 1):
        yield zip(itertools.repeat(str(n)), y_texts,
                  map(repr, table.V[n].tolist()),
                  _distinct_texts(actions[n], repr).tolist())


def _cmd_solve_bellman(args):
    table = value_iteration(args.f, args.horizon, _grid(args))
    actions = extremal_policy(table).A
    payload = {
        "format": ARTIFACT_FORMAT,
        "horizon": table.horizon,
        "grid": {"y_max": float(table.grid.y_max),
                 "step": float(table.grid.step)},
        "values_at_zero": table.V[:, 0].tolist(),
        "actions": actions,
    }
    return (0, payload, ("n", "y", "value", "action"),
            itertools.chain.from_iterable(_table_layers(table, actions)))


def _cmd_compare(args):
    comparison = compare_bounds(value_iteration(
        args.f, args.horizon, _grid(args), trusted_only=True))
    payload = {
        "max_abs_gap": float(comparison.max_abs_gap),
        **_comparison_fields(comparison, args.horizon, args.step),
    }
    code = 3 if comparison.enforced and not comparison.within_budget else 0
    return code, payload, *_comparison_trace(comparison.rows)


def _cmd_test_shift(args):
    report = property_scan(args.f, args.trials, args.seed)
    payload = {
        **_scan_fields(report),
        "argmin": {
            "trial": report.argmin_trial,
            "shift": float(report.argmin_shift),
            "atoms": [[float(v), float(p)]
                      for v, p in report.argmin_rv.atoms],
        },
        "injected_gap": float(report.injected_gap),
    }
    expected_clean = is_class_s_family(args.f)
    return (3 if expected_clean and report.violations > 0 else 0), payload


def _load_policy(path: str, expected: FunctionSpec):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"could not read policy artifact '{path}': {exc}")
    if not isinstance(data, dict) or data.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"'{path}' is not a value-table artifact "
                         f"(format tag {ARTIFACT_FORMAT!r} expected)")
    try:
        function = data["function"]
        if not isinstance(function, str):
            raise TypeError(f"function {function!r} is not a spec string")
        rows = ([data["grid"]["y_max"], data["grid"]["step"]],
                data["values_at_zero"], *data["actions"])
        # float() would take "30" and true; type(True) is bool, not int.
        if not all(set(map(type, row)) <= {float, int} for row in rows):
            raise TypeError("grid, values_at_zero or actions has a non-number")
        y_max = float(data["grid"]["y_max"])
        step = float(data["grid"]["step"])
        horizon = data["horizon"]
        actions = np.array(data["actions"], dtype=float)
        values_at_zero = [float(v) for v in data["values_at_zero"]]
        if not np.all(np.isfinite(values_at_zero)):
            raise ValueError("values_at_zero has non-finite entries")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed value-table artifact '{path}': "
                         f"{type(exc).__name__}: {exc}") from exc
    artifact_spec = parse_function_spec(function)
    if artifact_spec != expected:
        raise ValueError(
            f"policy artifact was built for {function}, "
            f"got --f {expected.spec_string()}")
    grid = GridConfig(y_max, step)
    # Layer n is trusted for y <= y_max - n only, as in value_iteration.
    # bool is an int subclass: "horizon": true would run as horizon 1.
    if (not isinstance(horizon, int) or isinstance(horizon, bool)
            or not 1 <= horizon <= y_max
            or actions.shape != (horizon + 1, grid.n_points)
            or len(values_at_zero) != horizon + 1):
        raise ValueError(f"horizon, action table and values_at_zero in "
                         f"'{path}' do not match each other and the grid")
    if not np.all((actions >= 0.0) & (actions <= 1.0)):
        raise ValueError(f"action table in '{path}' has entries that are "
                         f"not finite numbers in [0, 1]")
    return ExtremalPolicy(actions, grid), values_at_zero


def _dump_path_rows(result):
    """The ``path_id,k,X,Y,M`` rows of the first paths.  Before its
    absorption step ``t`` a path reads ``X = 0`` and ``Y = y_k``, and
    from ``t`` on ``X = 1`` and ``Y = y_t``, so the texts of each
    schedule step are rendered once for either state."""
    ys = result.y_path.tolist()
    steps = [str(k) for k in range(len(ys))]
    live = [("0.0", repr(y), repr(0.0 - y)) for y in ys]
    hit = [("1.0", repr(y), repr(1.0 - y)) for y in ys]
    for i, t in enumerate(result.t_hit[:_DUMP_PATHS].tolist()):
        path = str(i)
        for k, step in enumerate(steps):
            yield (path, step, *(live[k] if k < t else hit[t]))


def _cmd_simulate(args):
    if args.chain == "intro":
        a_sched = intro_schedule(args.n)
        fields = {"chain": "intro", "n_steps": args.n}
    else:
        policy, values_at_zero = _load_policy(args.policy, args.f)
        horizon = args.horizon or policy.horizon
        if horizon > policy.horizon:
            raise ValueError(f"--horizon {horizon} exceeds the artifact "
                             f"horizon {policy.horizon}")
        a_sched = policy_schedule(policy, horizon)
        # Increments along the only reachable trajectory, so their
        # time-only dependence can be inspected rather than assumed.
        fields = {"chain": "extremal", "horizon": horizon,
                  "table_value": values_at_zero[horizon],
                  "increments": [float(a) for a in a_sched]}
    sim = simulate_schedule(args.f, a_sched, args.paths, args.seed)
    exact = exact_expectation(args.f, schedule_law(a_sched))
    payload = {
        **fields,
        "paths": sim.n_paths,
        "seed": sim.seed,
        "mean_f": sim.mean_f,
        "std_error": sim.std_error,
        "exact_f": exact,
        "abs_error": abs(sim.mean_f - exact),
        "within_4se": bool(abs(sim.mean_f - exact) <= 4.0 * sim.std_error),
        "max_doob_residual": sim.max_doob_residual,
    }
    return (0, payload, ("path_id", "k", "X", "Y", "M"),
            _dump_path_rows(sim))


# ----------------------------------------------------------------------
# combined report


def _cmd_report(args):
    """Run the whole battery for one function and collect the verdicts.
    The exit code is 0 when every consistency check passed or the
    finding was expected, 3 otherwise."""
    spec, horizon = args.f, args.horizon
    # Checked before any work, so a bad grid fails at once.
    grid = _grid(args)
    failures: list[str] = []
    class_s = is_class_s_family(spec)

    fp = fixed_point_bound(spec)
    trace = iterate(spec)
    # Domination of the recursion by the fixed point is a shift-class
    # statement; outside the class the pair is reported, not judged.
    if class_s:
        if fp.unbounded:
            if trace.status == RecursionStatus.CONVERGED:
                failures.append("recursion converged although the "
                                "fixed-point bound is unbounded")
        else:
            if trace.status == RecursionStatus.DIVERGED:
                failures.append("recursion diverged although the "
                                "fixed-point bound is finite")
            elif trace.status == RecursionStatus.CONVERGED:
                scale = max(1.0, abs(fp.value))
                if abs(trace.limit - fp.value) > 1e-3 * scale:
                    failures.append("recursion limit does not match the "
                                    "fixed-point bound")

    # The comparison and the chain read only V[n, 0] and the policy
    # along the path from the origin: the trusted triangle.
    table = value_iteration(spec, horizon, grid, trusted_only=True)
    comparison = compare_bounds(table)
    if comparison.enforced and not comparison.within_budget:
        failures.append("exact values exceed the recursion bound beyond "
                        "the grid budget")

    scan = property_scan(spec, args.trials, args.seed)
    if class_s and scan.violations > 0:
        failures.append("shift-inequality violations found for a "
                        "shift-class function")

    law = extremal_chain_law(extremal_policy(table), horizon)
    chain_exact = exact_expectation(spec, law)
    table_value = table.value_at_zero(horizon)
    chain_diff = abs(chain_exact - table_value)
    # The grid error of a table value grows with the value itself.
    chain_ok = chain_diff <= comparison.budget * max(1.0, abs(table_value))
    if not chain_ok:
        failures.append("extremal chain expectation does not reproduce "
                        "the table value")

    payload = {
        "class_s": class_s,
        "bound": {
            "value": _bound_value(fp.value),
            "cross_check_ok": fp.cross_check_ok,
        },
        "recursion": _recursion_fields(trace),
        "comparison": _comparison_fields(comparison, horizon, args.step),
        "shift_scan": {**_scan_fields(scan),
                       "violations_expected": not class_s},
        "chain_check": {
            "exact_expectation": float(chain_exact),
            "table_value": table_value,
            "abs_diff": float(chain_diff),
            "within_budget": chain_ok,
        },
        "failures": failures,
        "status": "all-pass" if not failures else "breach",
    }
    return (3 if failures else 0), payload, *_comparison_trace(comparison.rows)


_HANDLERS = {
    "bound": _cmd_bound,
    "solve-recursion": _cmd_solve_recursion,
    "solve-bellman": _cmd_solve_bellman,
    "compare": _cmd_compare,
    "test-shift": _cmd_test_shift,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        code, payload, *trace = _HANDLERS[args.command](args)
        _emit({"command": args.command, "function": args.f.spec_string(),
               **payload}, args, *trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout left early.  Pointing stdout at the null
        # device keeps the interpreter's exit flush from raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
