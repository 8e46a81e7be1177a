"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They check the seeded inputs, the NumPy yardstick against the oracle,
that the printed metric names are the ones
``BENCHMARK.json`` declares, the open-loop bookkeeping, and a tiny-size
smoke run of every workload in both modes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    close_to,
    make_mix,
    numpy_layer,
    oracle,
    tail_count,
)
from workloads import (  # noqa: E402
    LARGE_GEOS,
    SMALL_GEOS,
    TINY_LARGE_GEOS,
    WORKLOAD_NAMES,
    Step,
    summarize,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("geos", [SMALL_GEOS, LARGE_GEOS[:1]])
def test_same_seed_same_bytes_other_seed_other_bytes(geos):
    def digest(mix):
        h = hashlib.sha256()
        for w, xs in zip(mix.weights, mix.inputs):
            h.update(w.tobytes())
            for x in xs:
                h.update(x.tobytes())
        return h.hexdigest()

    a = digest(make_mix(5, geos, 2))
    assert digest(make_mix(5, geos, 2)) == a
    assert digest(make_mix(6, geos, 2)) != a
    assert digest(make_mix(5, geos, 2, stream=1)) != a
    fresh = make_mix(5, geos, 2).fresh()
    assert digest(fresh) == a


def test_numpy_layer_is_the_same_layer():
    """The NumPy yardstick the timings are divided by computes what the
    library computes, within the oracle tolerance."""
    mix = make_mix(4, SMALL_GEOS + TINY_LARGE_GEOS, 1)
    for geo, w, xs in zip(mix.geos, mix.weights, mix.inputs):
        out = numpy_layer(geo, xs[0], w)
        assert out.dtype == (np.float32 if geo.symmetric else np.complex64)
        assert close_to(out, oracle(geo, xs[0], w)), geo.name


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def _step(service_s: float) -> Step:
    """100 arrivals every 10 ms served one at a time in ``service_s``."""
    dues = np.arange(100) * 0.01
    step = Step(100.0, dues)
    free = 0.0
    for due in dues:
        free = max(free, due) + service_s
        step.done.append(free)
        step.lat.append(free - due)
    return step


def test_tail_count_and_backlog_growth():
    assert tail_count(1000, 0.99) == 10
    assert tail_count(100, 0.90) == 10
    assert not _step(0.005).growing()
    assert _step(0.015).growing()
    # Backlog counts requests due but not completed.
    assert _step(0.015).backlog()[-1] > 30
    # One growing segment out of three does not fail the rate.
    assert not summarize([_step(0.005), _step(0.005), _step(0.015)])[
        "growing"]
    assert summarize([_step(0.015), _step(0.005), _step(0.015)])["growing"]


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_smoke_prints_declared_metrics(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "serve-small", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=str(tmp_path), timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
