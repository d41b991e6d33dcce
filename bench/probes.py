"""Per-layer probes: timed calls into one layer's public functions.

Every traced run executes all probes, so each workload reports the whole
per-layer list; each probe uses the inputs of the workload whose
end-to-end metric it should move (see README.md).  A metric is
``(value, unit, kind, samples)``; ``kind`` is "measured" or "computed".
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time

from workloads import SHIFT_FAMILIES, SIZES, parse_step

RECURSION_FAMILIES = {"exp": "exp:lambda=1", "pow": "pow:m=2",
                      "quad": "quad", "remark2": "remark2"}
SHIFT_BY_FAMILY = {f.partition(":")[0]: f for f in SHIFT_FAMILIES}
BELLMAN_FAMILIES = {"exp": "exp:lambda=0.5", "pow": "pow:m=2"}


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _median_time(fn, repeats: int = 3) -> float:
    return statistics.median(_timed(fn) for _ in range(repeats))


def run_probes(cb, seed: int, tmp, size: str = "full") -> dict:
    s = SIZES[size]
    rng = random.Random(f"probes:{seed}")
    spec = cb.functions.parse_function_spec
    out: dict[str, tuple] = {}

    def put(name, value, unit, kind="measured", samples=1):
        out[name] = (value, unit, kind, samples)

    # functions: f^{-1} on shift-scan targets E f(Y), Y in [0, 4].
    n = s["probe_calls"]
    for fam, text in SHIFT_BY_FAMILY.items():
        f = spec(text)
        targets = [f.value(rng.uniform(0.0, 4.0)) for _ in range(n)]
        dt = _median_time(lambda: [f.inverse(t) for t in targets])
        put(f"functions.inverse_us.{fam}", 1e6 * dt / n, "us", samples=n)
    grid = cb.bellman.GridConfig(float(s["horizon"]), parse_step(s["step"]))
    y = grid.points()
    f = spec("exp:lambda=0.5")
    reps = s["probe_value_reps"]
    dt = _median_time(lambda: [f.value(y) for _ in range(reps)])
    put("functions.value_ns_per_elem", 1e9 * dt / (reps * len(y)), "ns",
        samples=reps)

    # optimize: one golden refinement of the exp:lambda=1 step objective,
    # bracketed by two coarse-grid cells as in the recursion stepper.
    cfg = cb.recursion.SolverConfig()
    width = 2.0 / (cfg.opt_grid_points - 1)
    calls = s["probe_golden"]
    cases = [(rng.uniform(0.5, 3.0), rng.uniform(0.0, 1.0 - width))
             for _ in range(calls)]

    def golden_batch():
        for off, lo in cases:
            cb.optimize.golden_max(
                lambda a: a * math.exp(a) + (1.0 - a) * math.exp(a + off),
                lo, lo + width, cfg.refine_iters)
    put("optimize.golden_max_us", 1e6 * _median_time(golden_batch) / calls,
        "us", samples=calls)

    # recursion: fixed-length sequences, with and without refinement.
    steps = s["probe_steps"]
    for fam, text in RECURSION_FAMILIES.items():
        f = spec(text)
        dt = _median_time(lambda: cb.recursion.recursion_sequence(f, steps))
        put(f"recursion.step_us.{fam}", 1e6 * dt / steps, "us", samples=steps)
    f = spec(RECURSION_FAMILIES["exp"])
    coarse = cb.recursion.SolverConfig(refine_iters=0)
    t_full = _median_time(lambda: cb.recursion.recursion_sequence(f, steps))
    t_scan = _median_time(
        lambda: cb.recursion.recursion_sequence(f, steps, coarse))
    put("recursion.refine_share", 1.0 - t_scan / t_full, "ratio",
        samples=steps)

    # bellman: whole-grid layers on the compare/solve-bellman grid.
    layers = s["probe_layers"]
    layer_s = {}
    for fam, text in BELLMAN_FAMILIES.items():
        f = spec(text)
        layer_s[fam] = _timed(cb.bellman.value_iteration, f, layers,
                              grid) / layers
        put(f"bellman.layer_ms.{fam}", 1e3 * layer_s[fam], "ms",
            samples=layers)
    f = spec(BELLMAN_FAMILIES["exp"])
    scan_s = _timed(cb.bellman.value_iteration, f, layers, grid,
                    coarse) / layers
    put("bellman.scan_ms", 1e3 * scan_s, "ms", samples=layers)
    put("bellman.refine_ms", 1e3 * (layer_s["exp"] - scan_s), "ms",
        samples=layers)
    k_opt, refine = cfg.opt_grid_points, cfg.refine_iters
    put("bellman.grid_points", grid.n_points, "count", "computed")
    put("bellman.objective_evals",
        s["horizon"] * grid.n_points * (k_opt + 2 + 2 * refine), "count",
        "computed")
    # single-state backups on the Lemma 1 table
    table = cb.bellman.value_iteration(
        f, 2, cb.bellman.GridConfig(s["lemma_y_max"], s["lemma_step"]),
        cb.recursion.SolverConfig(*s["lemma_solver"]))
    states = [(x / 8.0, y0) for x in range(8)
              for y0 in (0.0, 0.35, 0.8, 1.6, 2.5)]
    dt = _median_time(
        lambda: [cb.bellman.full_value(table, 2, x, y0) for x, y0 in states])
    put("bellman.full_value_us", 1e6 * dt / len(states), "us",
        samples=len(states))

    # chains: the intro draw at the workload's size, then the audit.
    f = spec("exp:lambda=1")
    n_steps, paths = s["intro_n"], s["intro_paths"]
    draw_seed = rng.randrange(2**31)
    put("chains.draw_s", _timed(cb.chains.simulate_intro, f, n_steps, paths,
                                draw_seed, audit_paths=0), "s")
    put("chains.draw_bytes", paths * n_steps * 9, "B", "computed")
    small = s["probe_audit_paths"]
    with_audit = _median_time(
        lambda: cb.chains.simulate_intro(f, n_steps, small, draw_seed))
    without = _median_time(
        lambda: cb.chains.simulate_intro(f, n_steps, small, draw_seed,
                                         audit_paths=0))
    put("chains.audit_us_per_path", 1e6 * (with_audit - without) / 200, "us",
        samples=200)
    f = spec("pow:m=2")
    coarse_table = cb.bellman.value_iteration(
        f, s["horizon"], cb.bellman.GridConfig(float(s["horizon"]), 1 / 16),
        cb.recursion.SolverConfig(64, 20))
    policy = cb.bellman.extremal_policy(coarse_table)
    put("chains.law_ms", 1e3 * _median_time(
        lambda: cb.chains.exact_expectation(
            f, cb.chains.extremal_chain_law(policy, s["horizon"]))), "ms")

    # shift: whole trials through the scan, and the gap alone on
    # instances generated here.
    trials = s["probe_trials"]
    instances = []
    for _ in range(trials):
        k = rng.randint(2, 5)
        weights = [rng.uniform(0.01, 1.0) for _ in range(k)]
        total = sum(weights)
        probs = [w / total for w in weights[:-1]]
        probs.append(1.0 - sum(probs))
        values = rng.sample(range(1, 4001), k)
        instances.append((rng.uniform(0.0, 2.0), cb.shift.DiscreteRV(
            tuple((v / 1000.0, p) for v, p in zip(values, probs)))))
    for fam, text in SHIFT_BY_FAMILY.items():
        f = spec(text)
        scan_seed = rng.randrange(2**31)
        t0 = time.perf_counter()
        report = cb.shift.property_scan(f, trials, scan_seed)
        dt = time.perf_counter() - t0
        put(f"shift.trial_us.{fam}", 1e6 * dt / trials, "us", samples=trials)
        put(f"shift.violations.{fam}", report.violations, "count",
            samples=trials)
        dt = _median_time(
            lambda: [cb.shift.shift_gap(f, sh, rv) for sh, rv in instances])
        put(f"shift.gap_us.{fam}", 1e6 * dt / trials, "us", samples=trials)

    # cli: reading a value-table artifact of the bellman workload's shape.
    put("cli.artifact_load_s", _artifact_load(cb, tmp, grid, s, rng), "s")
    return out


def _artifact_load(cb, tmp, grid, s, rng) -> float:
    """Time ``simulate --chain extremal`` on a synthetic artifact with the
    shape of the bellman workload's table and 2 paths: nearly all of it is
    reading the artifact."""
    horizon = s["horizon"]
    payload = {
        "command": "solve-bellman",
        "format": "compensator-bounds/value-table-v1",
        "function": "pow:m=2.0", "horizon": horizon,
        "grid": {"y_max": float(horizon), "step": grid.step},
        "solver": {"opt_grid_points": 2048, "refine_iters": 60},
        "clamp_used": True,
        "values_at_zero": [float(n) for n in range(horizon + 1)],
        "actions": [[rng.random() for _ in range(grid.n_points)]
                    for _ in range(horizon + 1)],
    }
    path = tmp / "synthetic-table.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               separators=(",", ": ")) + "\n",
                    encoding="utf-8")
    argv = ["simulate", "--chain", "extremal", "--f", "pow:m=2",
            "--policy", str(path), "--paths", "2", "--seed", "0"]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cb.cli.main(argv)
        dt = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"artifact-load probe exited with {code}")
    return dt
