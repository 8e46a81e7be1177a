"""Benchmark of the Fourier layer stack, from the C kernels to the pool.

Run from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 \
        --seconds 50 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer census with ``--trace 1``).  Diagnostics, the
environment fingerprint and the model check go to standard error.
``--tiny`` shrinks every size for smoke tests.  An untraced run measures
in ``PROCESSES`` child processes of this script (``--process``), one
after the other.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

from workloads import WORKLOAD_NAMES  # noqa: E402

BUILD_DIR = ".bench_build"
#: An untraced run measures in this many fresh processes, one after the
#: other, each for an equal share of the window, and reports the median
#: of their figures.  A process can be slow for its whole life: once in
#: about twenty runs the library ran 2.4x slower against the NumPy layer
#: from start to end, and a re-run of the same seed was normal.  The
#: median of three processes outvotes one such process.
PROCESSES = 3
#: Every process must be done this long after the run starts.
DEADLINE_S = 170.0


def _metric_specs() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class Context:
    """What a workload needs from the command line and the harness."""

    def __init__(self, args, scale, tracer, null_tracer) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = scale
        self.tracer = tracer
        self.null_tracer = null_tracer
        self.notes: dict = {}
        self.small_infer_p50 = None

    def note(self, **kv) -> None:
        self.notes.update(kv)


def _prepare_environment(root: str, run_dir: str) -> None:
    """Pin everything host state could move: the kernel build cache and
    the tune store live in the checkout, autotune stays off (sessions
    default to it), and no fault plan or worker count leaks in."""
    os.environ["REPRO_CKERNEL_DIR"] = os.path.join(root, BUILD_DIR,
                                                   "ckernels")
    os.environ["REPRO_TUNE_CACHE"] = os.path.join(run_dir, "tune.json")
    for var in ("REPRO_NO_CKERNELS", "REPRO_CKERNELS_SANITIZE",
                "REPRO_FAULTS", "REPRO_WORKERS"):
        os.environ.pop(var, None)
    sys.path.insert(0, os.path.join(root, "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (not comparable to full runs)")
    ap.add_argument("--process", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(root, BUILD_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    _prepare_environment(root, run_dir)
    try:
        if args.trace or args.process is not None:
            return _run(args, root)
        return _run_processes(args, start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Shared memory makes ``multiprocessing`` start a resource-tracker
    process; stop it and wait for it, so a run leaves no process behind.
    On shutdown the tracker unlinks any segment still registered."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run(args, root: str) -> int:
    from harness import BenchFailure, Tracer, build_kernels, fingerprint
    from workloads import run, scale_for

    try:
        build_s = build_kernels()
        env = fingerprint()
        env["kernel_build_s"] = build_s
        print(f"perfbench: environment {json.dumps(env)}", file=sys.stderr)
        tracer = Tracer(enabled=bool(args.trace))
        ctx = Context(args, scale_for(args.tiny, args.workload), tracer,
                      Tracer(enabled=False))
        t0 = time.perf_counter()
        result = run(args.workload, ctx)
        wall = time.perf_counter() - t0
        result["checker"].finish()
    except BenchFailure as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench: notes {json.dumps(ctx.notes, default=str)}",
          file=sys.stderr)
    print(f"perfbench: workload wall {wall:.1f}s", file=sys.stderr)
    if args.trace:
        trace_dir = os.path.join(root, BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "environment": env, "notes": ctx.notes})
        print(f"perfbench: {len(tracer.spans)} spans written to {path}",
              file=sys.stderr)
    checker = result["checker"]
    return _emit(args.trace, result["metrics"], checker.attempted,
                 checker.failed)


def _emit(trace: int, metrics: dict, attempted: int, failed: int) -> int:
    """Print the result line, or refuse if the metric names are not the
    ones ``BENCHMARK.json`` declares."""
    units = _metric_specs()[trace]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        print(f"perfbench: metric names disagree with BENCHMARK.json: "
              f"missing={missing} extra={extra}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


def _run_processes(args, start: float) -> int:
    """Build the kernels once, then measure in ``PROCESSES`` fresh
    processes in turn; each metric is the median over them."""
    from harness import BenchFailure, build_kernels, median

    try:
        print(f"perfbench: kernel build {build_kernels():.3f}s",
              file=sys.stderr)
    except BenchFailure as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    results = []
    for i in range(PROCESSES):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PROCESSES), "--trace", "0",
               "--process", str(i)] + (["--tiny"] if args.tiny else [])
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
        except subprocess.TimeoutExpired:
            print(f"perfbench: process {i} timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: process {i} failed ({proc.returncode})",
                  file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    values = {name: [r["metrics"][name]["value"] for r in results]
              for name in results[0]["metrics"]}
    print(f"perfbench: per process {json.dumps(values)}", file=sys.stderr)
    return _emit(0, {name: median(v) for name, v in values.items()},
                 sum(r["attempted"] for r in results),
                 sum(r["failed"] for r in results))


if __name__ == "__main__":
    sys.exit(main())
