"""Tests of the benchmark harness itself: ``python3 -m pytest bench``.

The smoke runs use toy sizes and check only that the harness works end
to end; the reported benchmark always runs at full size.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
import types

import pytest

import run
import tracing
import worker
import workloads
from workloads import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def cb():
    return worker.import_package()


def _fake_cli(stdout: str, code: int = 0):
    def main(argv):
        sys.stdout.write(stdout)
        return code
    return types.SimpleNamespace(cli=types.SimpleNamespace(main=main))


def test_corrupted_payload_counts_as_failed(cb, tmp_path):
    op = workloads.build_ops("scan-simulate", 5, tmp_path, "tiny")[3]
    good = worker.run_op(cb, op, "tiny")
    assert good["errors"] == []

    cli_out = _capture(cb, op.argv)
    payload = json.loads(cli_out)
    corruptions = [
        cli_out[: len(cli_out) // 2],                        # truncated
        json.dumps({**payload, "injected_gap": -0.12}),      # wrong value
        json.dumps({**payload, "violations": 0}),            # missed finding
        json.dumps({k: v for k, v in payload.items() if k != "trials"}),
    ]
    for text in corruptions:
        bad = worker.run_op(_fake_cli(text), op, "tiny")
        assert bad["errors"], text
    assert worker.run_op(_fake_cli(cli_out, code=3), op, "tiny")["errors"]

    def one_pass(op_result):
        return {"ops": [op_result], "wall_s": 1.0, "wall_ref": 1.0,
                "ref_chunk_s": 1.0, "peak_rss_mb": 1.0, "cpu_s": 1.0,
                "provenance": {}}

    summary = run.summarize("scan-simulate", [0.1],
                            [one_pass(good), one_pass(bad)], None, None)
    assert (summary["attempted"], summary["failed"]) == (2, 2)
    assert summary["end_to_end"]["error_rate"][0] == 1.0


def test_stdout_mismatch_between_passes_fails_the_op():
    def one_pass(sha):
        return {"ops": [{"id": "x", "group": "g", "seconds": 1.0,
                         "sha256": sha, "errors": []}],
                "wall_s": 1.0, "wall_ref": 1.0, "ref_chunk_s": 1.0,
                "peak_rss_mb": 1.0, "provenance": {}}

    same = run.summarize("w", [0.1], [one_pass("a"), one_pass("a")],
                         None, None)
    differ = run.summarize("w", [0.1], [one_pass("a"), one_pass("b")],
                           None, None)
    assert same["failed"] == 0 and differ["failed"] == 1


def test_reference_runs_during_an_op_and_is_not_counted():
    def main(argv):
        time.sleep(0.35)
        return 0

    fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    op = workloads.Op("sleep", "g", ["bound"])
    with worker.Reference() as ref:
        result = worker.run_op(fake, op, "tiny", ref=ref)
    assert ref.chunks >= 4  # one on entry, then one per 0.1 s
    # The sleep resumes after each chunk, so the chunks fall inside its
    # 0.35 s; taking them out leaves a little less.
    assert 0.3 < result["seconds"] < 0.35 + 0.01


def _capture(cb, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cb.cli.main(argv) == 0
    return out.getvalue()


def test_self_time_on_hand_built_tree():
    #  bench [0, 10]
    #    cli [1, 9]
    #      bellman [2, 5]
    #        optimize [3, 4]
    #      functions [6, 8]
    spans = [
        [0, "op", "bench", 0.0, 10.0, None, "op"],
        [1, "cli.main", "cli", 1.0, 9.0, 0, "op"],
        [2, "bellman.value_iteration", "bellman", 2.0, 5.0, 1, "op"],
        [3, "optimize.golden_max", "optimize", 3.0, 4.0, 2, "op"],
        [4, "functions.FunctionSpec.inverse", "functions", 6.0, 8.0, 1,
         "op"],
    ]
    assert tracing.self_times(spans) == {
        "bench": 2.0, "cli": 3.0, "bellman": 2.0, "optimize": 1.0,
        "functions": 2.0}
    # Overlapping children are counted once and clipped to the parent.
    spans = [[0, "p", "a", 0.0, 4.0, None, None],
             [1, "c1", "b", 1.0, 3.0, 0, None],
             [2, "c2", "b", 2.0, 5.0, 0, None]]
    assert tracing.self_times(spans)["a"] == 1.0


def test_tracer_records_nested_layer_calls_and_restores(cb):
    original = cb.recursion.fixed_point_bound
    tracer = tracing.Tracer()
    with tracer.installed(cb):
        assert cb.recursion.fixed_point_bound is not original
        spec = cb.functions.parse_function_spec("quad")
        cb.recursion.fixed_point_bound(spec)
    assert cb.recursion.fixed_point_bound is original
    assert cb.functions.FunctionSpec.inverse.__qualname__ == (
        "FunctionSpec.inverse")
    by_id = {rec[tracing.ID]: rec for rec in tracer.spans}
    root = next(r for r in tracer.spans
                if r[tracing.NAME] == "recursion.fixed_point_bound")
    child_layers = {r[tracing.LAYER] for r in tracer.spans
                    if r[tracing.PARENT] == root[tracing.ID]}
    assert {"functions", "optimize"} <= child_layers
    assert all(by_id[r[tracing.PARENT]][tracing.START] <= r[tracing.START]
               for r in tracer.spans if r[tracing.PARENT] is not None)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("bellman", 0), ("bellman", 1), ("recursion", 1), ("scan-simulate", 1)])
def test_tiny_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in DECLARED[section]]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bellman", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
