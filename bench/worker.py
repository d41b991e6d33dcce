"""One pass over a workload, or the probe set, in a fresh process.

``run.py`` starts one of these per pass so that each pass has its own
peak resident set; the result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from workloads import ROOT, SRC, WORKLOADS, SIZES

# ``wall_ref`` counts a pass's time in chunks of fixed reference work:
# a pure-Python loop and a numpy loop over a Bellman-sized grid.  A timer
# runs one chunk every REF_PERIOD_S seconds in the middle of the
# operations, so a change in the machine's speed during a run slows the
# chunks and the program alike; the chunks' time is taken out of the
# operations' time.
REF_PERIOD_S = 0.1
REF_PY_ITERS = 10_000
REF_NP_STEPS = 24
_REF_Y = np.linspace(0.0, 30.0, 15361)


def import_package():
    """Import ``compensator_bounds`` and insist it is the checkout's."""
    sys.path.insert(0, str(SRC))
    import compensator_bounds as cb
    import compensator_bounds.cli  # noqa: F401  (a layer, not re-exported)

    where = Path(cb.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"compensator_bounds was imported from {where}, "
                         f"not from {SRC}")
    return cb


def run_op(cb, op: workloads.Op, size: str, tracer=None, ref=None) -> dict:
    """Time one operation, then check its output against its oracle.
    Reference chunks run during it (``ref``) are not counted."""
    out, err = io.StringIO(), io.StringIO()
    span = (tracer.span(op.id, "bench", op=op.id) if tracer
            else contextlib.nullcontext())
    errors: list[str] = []
    ref_s = ref.seconds if ref else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with span:
                if op.call:
                    result = op.call(cb, size)
                else:
                    code = cb.cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # any crash is a failed op
        errors.append(f"raised {exc!r}; stderr: {err.getvalue()[-500:]}")
    seconds = time.perf_counter() - t0
    if ref:
        seconds -= ref.seconds - ref_s
    steps = 0
    if op.call:
        stdout = "" if errors else repr(result)
        errors = errors or workloads.check_lemma1(result)
    else:
        stdout = out.getvalue()
        if not errors:
            errors = (workloads.check_cli(op, code, stdout)
                      or workloads.check_files(op, stdout))
        if not errors:
            steps = workloads.recursion_steps(op, stdout)
    return {"id": op.id, "group": op.group, "seconds": seconds,
            "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            "stdout_bytes": len(stdout), "recursion_steps": steps,
            "errors": errors}


class Reference:
    """Times reference chunks from a SIGALRM handler while it is entered."""

    def __init__(self) -> None:
        self.chunks, self.seconds = 0, 0.0

    def chunk(self, *_) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_PY_ITERS):
            acc = (acc + i * i) % 1_000_003
        best = np.full(_REF_Y.shape, -np.inf)
        for a in np.linspace(0.0, 1.0, REF_NP_STEPS):
            q = _REF_Y + a
            obj = a * np.exp(-q) + (1.0 - a) * q
            np.copyto(best, obj, where=obj > best)
        self.chunks += 1
        self.seconds += time.perf_counter() - t0

    def __enter__(self) -> "Reference":
        self.chunk()
        signal.signal(signal.SIGALRM, self.chunk)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(cb, workload: str, seed: int, tmp: Path, size: str,
             traced: bool) -> dict:
    ops = workloads.build_ops(workload, seed, tmp, size)
    result: dict = {}
    if traced:
        from tracing import Tracer, self_times

        tracer = Tracer()
        origin = time.perf_counter()
        with tracer.installed(cb):
            result["ops"] = [run_op(cb, op, size, tracer) for op in ops]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"{workload}.spans.jsonl", origin)
        result["self_s"] = self_times(tracer.spans)
        result["spans"] = len(tracer.spans)
    else:
        with Reference() as ref:
            result["ops"] = [run_op(cb, op, size, ref=ref) for op in ops]
        result["ref_chunk_s"] = ref.seconds / ref.chunks
    result["wall_s"] = sum(op["seconds"] for op in result["ops"])
    if "ref_chunk_s" in result:
        result["wall_ref"] = result["wall_s"] / result["ref_chunk_s"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "traced", "probes"),
                        required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    cb = import_package()
    if args.mode == "probes":
        from probes import run_probes

        result = {"metrics": run_probes(cb, args.seed, args.tmp, args.size)}
    else:
        result = run_pass(cb, args.workload, args.seed, args.tmp, args.size,
                          args.mode == "traced")
    import numpy

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        provenance={"python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "package_file": cb.__file__})
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
