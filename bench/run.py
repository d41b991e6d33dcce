"""Benchmark of the compensator-bounds CLI and library.

    python3 bench/run.py --workload bellman --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each pass over a workload's operation list runs in a fresh interpreter
(``worker.py``), one after another, with numeric libraries held to one
thread.  Untraced passes repeat while ``--seconds`` allows; they give
the end-to-end metrics.  With ``--trace 1`` one traced pass and the
per-layer probes follow, and the per-layer metrics are reported instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
table of every metric with its unit, sample count and kind.  The metric
names printed in that JSON are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, build_ops

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
# A run must end within 180 s; leave room for reporting.
RUN_DEADLINE_S = 170.0
SETUP_CODE = ("import sys, compensator_bounds.cli as cli; "
              "cli.parse_args(sys.argv[1:])")


class BenchError(RuntimeError):
    """The harness itself could not complete a run."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, seed: int, seconds: float, size: str, tmp: Path,
                 deadline: float) -> None:
        self.seed, self.seconds, self.size = seed, seconds, size
        self.tmp, self.deadline = tmp, deadline
        self.env = _child_env()

    def _run(self, cmd: list[str]) -> None:
        """Run ``cmd`` to completion.  Waiting on a pidfd returns as soon
        as the child exits; ``subprocess``'s own timeout polls with
        sleeps of up to 50 ms, which would quantize ``setup_s``."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a process")
        with subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                              stdout=subprocess.DEVNULL) as proc:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = select.select([pidfd], [], [], remaining)[0]
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
                proc.wait()
                raise BenchError(f"timed out: {' '.join(cmd[:4])}")
            code = proc.wait()
        if code != 0:
            raise BenchError(f"exit code {code}: {' '.join(cmd[:6])}")

    def setup_time(self, argv: list[str]) -> float:
        """Fresh interpreter until the CLI is imported and argv parsed."""
        t0 = time.perf_counter()
        self._run([sys.executable, "-c", SETUP_CODE, *argv])
        return time.perf_counter() - t0

    def worker(self, workload: str, mode: str) -> dict:
        out = self.tmp / f"{workload}-{mode}.json"
        self._run([sys.executable, str(HERE / "worker.py"),
                   "--workload", workload, "--seed", str(self.seed),
                   "--mode", mode, "--size", self.size,
                   "--tmp", str(self.tmp), "--out", str(out)])
        return json.loads(out.read_text(encoding="utf-8"))

    def workload(self, name: str, trace: bool) -> dict:
        first = build_ops(name, self.seed, self.tmp, self.size)[0].argv
        self.setup_time(first)  # fills the bytecode and file caches
        setup = [self.setup_time(first) for _ in range(SETUP_SAMPLES)]
        passes = []
        t_begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.worker(name, "pass"))
            now = time.perf_counter()
            if now - t_begin + (now - t0) > self.seconds:
                break
        traced = probes = None
        if trace:
            traced = self.worker(name, "traced")
            probes = self.worker(name, "probes")
        return summarize(name, setup, passes, traced, probes)


def summarize(name: str, setup: list[float], passes: list[dict],
              traced: dict | None, probes: dict | None) -> dict:
    """Fold passes into metrics ``{name: (value, unit, kind, samples)}``
    and count the operations attempted and failed."""
    all_passes = passes + ([traced] if traced else [])
    attempted = failed = 0
    messages: list[str] = []
    digests: dict[str, set] = defaultdict(set)
    for p in all_passes:
        for op in p["ops"]:
            attempted += 1
            digests[op["id"]].add(op["sha256"])
            if op["errors"]:
                failed += 1
                messages.append(f"{op['id']}: {'; '.join(op['errors'])}")
    for op_id, seen in digests.items():
        if len(seen) > 1:
            failed += 1
            messages.append(f"{op_id}: stdout differs between passes")

    n = len(passes)
    median = statistics.median
    e2e = {
        "wall_ref": (median(p["wall_ref"] for p in passes), "ref",
                     "measured", n),
        "wall_s": (median(p["wall_s"] for p in passes), "s", "measured", n),
        "ref_chunk_s": (median(p["ref_chunk_s"] for p in passes), "s",
                        "measured", n),
        "setup_s": (median(setup), "s", "measured", len(setup)),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB",
                        "measured", n),
        "error_rate": (failed / attempted, "ratio", "measured", attempted),
    }
    for group in dict.fromkeys(op["group"] for op in passes[0]["ops"]):
        e2e[f"{group}_s"] = (
            median(sum(op["seconds"] for op in p["ops"]
                       if op["group"] == group) for p in passes),
            "s", "measured", n)

    layers: dict[str, tuple] = {}
    if traced:
        layers.update({k: tuple(v) for k, v in probes["metrics"].items()})
        self_s = traced["self_s"]
        layers["cli.emit_s"] = (self_s.get("cli", 0.0), "s", "measured", 1)
        layers["cli.stdout_bytes"] = (
            sum(op["stdout_bytes"] for op in traced["ops"]), "B",
            "measured", 1)
        layers["recursion.steps"] = (
            sum(op["recursion_steps"] for op in traced["ops"]), "count",
            "computed", 1)
        layers["proc.cpu_s"] = (median(p["cpu_s"] for p in passes), "s",
                                "measured", n)
        layers["trace.overhead_s"] = (traced["wall_s"] - e2e["wall_s"][0],
                                      "s", "measured", 1)
        layers["trace.spans"] = (traced["spans"], "count", "measured", 1)
        for layer, seconds in sorted(self_s.items()):
            layers[f"self_s.{layer}"] = (seconds, "s", "measured", 1)
    return {"workload": name, "attempted": attempted, "failed": failed,
            "messages": messages, "end_to_end": e2e, "per_layer": layers,
            "provenance": passes[0]["provenance"]}


def provenance() -> dict:
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": "unknown",
            "python": sys.version.split()[0],
            "git_commit": None, "git_dirty": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    git = shutil.which("git")
    if git:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

        def query(*args):
            proc = subprocess.run([git, "-C", str(ROOT), *args], env=env,
                                  capture_output=True, text=True, timeout=30)
            return proc.stdout.strip() if proc.returncode == 0 else None

        if query("rev-parse", "--show-toplevel") == str(ROOT):
            info["git_commit"] = query("rev-parse", "HEAD")
            status = query("status", "--porcelain", "--untracked-files=no")
            info["git_dirty"] = None if status is None else bool(status)
    return info


def _print_table(result: dict, trace: bool) -> None:
    print(f"== {result['workload']}: {result['attempted']} operations, "
          f"{result['failed']} failed ==")
    for line in result["messages"]:
        print(f"   FAILED {line}")
    rows = dict(result["end_to_end"])
    if trace:
        rows.update(result["per_layer"])
    for name, (value, unit, kind, samples) in rows.items():
        print(f"   {name:32s} {value:14.6g} {unit:6s} n={samples:<7d} {kind}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the compensator-bounds benchmark.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time given to untraced passes, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test the harness at toy sizes; the "
                             "numbers mean nothing")
    args = parser.parse_args(argv)

    if not (SRC / "compensator_bounds" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    names = ([args.workload] if args.workload != "all" else list(WORKLOADS))

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    results = []
    try:
        for name in names:
            runner = Runner(args.seed, args.seconds,
                            "tiny" if args.tiny else "full", tmp,
                            time.monotonic() + RUN_DEADLINE_S)
            results.append(runner.workload(name, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("provenance: " + json.dumps({**provenance(),
                                        **results[0]["provenance"]}))
    metrics = {}
    for result in results:
        _print_table(result, bool(args.trace))
        produced = result["per_layer" if args.trace else "end_to_end"]
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for entry in declared[section]:
            if entry["name"] not in produced:
                print(f"error: {entry['name']} was not measured",
                      file=sys.stderr)
                return 1
            value, unit, _, _ = produced[entry["name"]]
            if unit != entry["unit"]:
                print(f"error: {entry['name']} measured in {unit}, declared "
                      f"in {entry['unit']}", file=sys.stderr)
                return 1
            metrics[prefix + entry["name"]] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
