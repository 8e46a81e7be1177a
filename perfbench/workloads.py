"""The two workloads and the loops that drive them.

* ``serve-small``: closed loop, one client, in-process ``Session.infer``
  on batch-1 requests rotating over small geometries; every N-th call is
  an exact ``Session.rollout`` stream of a symmetric model.
* ``layer-large``: closed loop, one client, in-process ``Session.infer``
  on paper-scale C2C layers; every N-th call is a short exact rollout.

Both report the same end-to-end metrics (see ``README.md``).  The
open-loop ``ServePool`` probe at the end of this file serves the traced
run's layer census.

Each process's share of a run is split into segments, and every segment
starts from fresh copies of the inputs and weights and a new session.
Per-call speed depends on where arrays land in memory, so one layout per
process would make the spread a lottery over layouts; a process averages
over several, and each segment's set-up is one ``setup_s`` sample.
"""

from __future__ import annotations

import collections
import functools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from harness import (
    BenchFailure,
    Checker,
    Geo,
    geomean,
    make_mix,
    median,
    numpy_layer,
    oracle,
    pct,
    peak_rss_mb,
    require_kernels,
    tail_count,
)

WORKLOAD_NAMES = ("serve-small", "layer-large")

SMALL_GEOS = [
    Geo("c2c1d-x128-m16", (1, 32, 128), (16,)),
    Geo("c2c1d-x256-m32", (1, 32, 256), (32,)),
    Geo("sym1d-x128-m16", (1, 32, 128), (16,), True),
    Geo("sym1d-x256-m32", (1, 32, 256), (32,), True),
    Geo("c2c2d-x32-m8", (1, 32, 32, 32), (8, 8)),
]
LARGE_GEOS = [
    Geo("c2c1d-b16-c64-x1024-m64", (16, 64, 1024), (64,)),
    Geo("c2c2d-b4-c32-x128-m32", (4, 32, 128, 128), (32, 32)),
]
#: Stand-ins for the paper-scale layers in ``--tiny`` smoke runs.
TINY_LARGE_GEOS = [
    Geo("c2c1d-b2-c16-x256-m16", (2, 16, 256), (16,)),
    Geo("c2c2d-b1-c8-x32-m8", (1, 8, 32, 32), (8, 8)),
]

#: Open-loop arrival rates of the census's pool probe (requests/s), fixed
#: once: about 30%-60% of a one-worker pool's open-loop capacity on the
#: small mix (near 1000/s on a 2-vCPU Xeon VM).  The first is the "low"
#: rate, the last the "high".
POOL_RATES = (300.0, 450.0, 600.0)
#: Latency limit on a rate step's p99 (from due time), milliseconds.
POOL_LIMIT_MS = 50.0
#: Collector poll interval: completion times resolve to about this.
POLL_S = 0.0002
#: A step whose requests are still unresolved this long after its last
#: send fails them.
DRAIN_TIMEOUT_S = 30.0
#: Share of the window each half of a traced run (untraced, traced)
#: gets; the layer census takes about as long as the rest.
TRACE_SHARE = 0.3


@dataclass
class Scale:
    """Run-size knobs; ``tiny`` is the smoke-test size."""

    tiny: bool
    segments: int  # fresh layouts (and set-ups) per process
    large_geos: list = field(default_factory=list)
    small_inputs: int = 8
    large_inputs: int = 2


#: Segments per process (an untraced run measures in three processes).
SEGMENTS = {"serve-small": 5, "layer-large": 3}


def scale_for(tiny: bool, workload: str) -> Scale:
    if tiny:
        return Scale(True, 2, TINY_LARGE_GEOS, 2, 2)
    return Scale(False, SEGMENTS[workload], LARGE_GEOS)


# ---------------------------------------------------------------------------
# Closed loops (serve-small, layer-large)
# ---------------------------------------------------------------------------

@dataclass
class LoopPlan:
    cycle: list  # geometry indices, in call order
    roll_geo: int  # geometry whose model the rollout streams use
    roll_steps: int
    roll_every: int  # every N-th call is a rollout
    pair_every: int  # every N-th C2C infer call is paired with staged


SERVE_SMALL_PLAN = LoopPlan(
    cycle=[0, 1, 2, 3, 4], roll_geo=2, roll_steps=16, roll_every=20,
    pair_every=2,
)
#: Two 1-D calls per 2-D call: the 2-D layer costs about three times
#: as much, so the two get comparable shares of the window.
LAYER_LARGE_PLAN = LoopPlan(
    cycle=[0, 1, 0], roll_geo=0, roll_steps=2, roll_every=5,
    pair_every=2,
)


class Refs:
    """Oracle thunks per (geometry, input), and eager-loop rollout
    results per rollout input computed before anything is timed."""

    def __init__(self, mix, plan: LoopPlan):
        self.mix = mix
        self.eager = []
        session = new_session()
        model = spectral_models(mix)[plan.roll_geo]
        for x in mix.inputs[plan.roll_geo]:
            for _ in range(plan.roll_steps):
                x = session.infer(model, x)
            self.eager.append(x)
        session.close()

    def oracle(self, g: int, j: int):
        m = self.mix
        return functools.partial(oracle, m.geos[g], m.inputs[g][j],
                                 m.weights[g])


def spectral_models(mix):
    from repro.api.session import SpectralModel

    return [
        SpectralModel(w, g.model_modes, g.symmetric)
        for g, w in zip(mix.geos, mix.weights)
    ]


def new_session():
    from repro.api import Session

    session = Session(private_caches=True)
    require_kernels(session)
    return session


def closed_loop(session, models, mix, refs, plan: LoopPlan, seconds: float,
                checker: Checker, tracer) -> dict:
    """One client calling ``Session.infer`` back to back for
    ``seconds``, and at least until its first rollout, so that every
    kind of sample exists; every ``roll_every``-th call is a rollout
    stream.

    Each call is followed at once by the NumPy layer (or, for a rollout,
    a loop of it) on the same input, so both see the same machine speed.
    """
    from repro.api.ops import spectral_conv

    lat: dict[int, list] = collections.defaultdict(list)
    base: dict[int, list] = collections.defaultdict(list)
    staged: dict[int, list] = collections.defaultdict(list)
    fused: dict[int, list] = collections.defaultdict(list)
    roll: list[float] = []
    roll_base: list[float] = []
    n_inputs = len(mix.inputs[0])
    perf = time.perf_counter
    end = perf() + seconds
    call = k = r = 0
    while perf() < end or call < plan.roll_every:
        call += 1
        if call % plan.roll_every == 0:
            g, j = plan.roll_geo, r % n_inputs
            geo, w, x = mix.geos[g], mix.weights[g], mix.inputs[g][j]
            r += 1
            checker.attempt()
            t0 = perf()
            try:
                with tracer.span("session.rollout", op=call):
                    out = session.rollout(models[g], x, steps=plan.roll_steps)
            except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                checker.fail(f"rollout: {exc!r}")
                continue
            roll.append(perf() - t0)
            checker.check(("rollout", mix.stream, j), out,
                          exact=refs.eager[j])
            t0 = perf()
            with tracer.span("numpy.rollout", op=call):
                for _ in range(plan.roll_steps):
                    x = numpy_layer(geo, x, w)
            roll_base.append(perf() - t0)
            continue
        g = plan.cycle[k % len(plan.cycle)]
        j = (k // len(plan.cycle)) % n_inputs
        k += 1
        geo, w, x = mix.geos[g], mix.weights[g], mix.inputs[g][j]
        checker.attempt()
        t0 = perf()
        try:
            with tracer.span("session.infer", op=call):
                out = session.infer(models[g], x)
        except Exception as exc:  # noqa: BLE001 - counted, loop goes on
            checker.fail(f"infer {geo.name}: {exc!r}")
            continue
        dt = perf() - t0
        lat[g].append(dt)
        checker.check((mix.stream, g, j), out, ref=refs.oracle(g, j))
        t0 = perf()
        with tracer.span("numpy.layer", op=call):
            numpy_layer(geo, x, w)
        base[g].append(perf() - t0)
        if geo.symmetric or k % plan.pair_every:
            continue
        checker.attempt()
        t0 = perf()
        try:
            with tracer.span("staged.pytorch", op=call):
                ys = spectral_conv(x, w, geo.modes, engine="pytorch")
        except Exception as exc:  # noqa: BLE001 - counted, loop goes on
            checker.fail(f"staged {geo.name}: {exc!r}")
            continue
        staged[g].append(perf() - t0)
        fused[g].append(dt)
        checker.check(("staged", mix.stream, g, j), ys,
                      ref=refs.oracle(g, j))
    return {"lat": lat, "base": base, "staged": staged, "fused": fused,
            "roll": roll, "roll_base": roll_base}


def ratio(num: dict, den: dict, q: float = 0.5) -> float:
    """Geometric mean over geometries of the ``q``-quantile of ``num``
    over the ``q``-quantile of ``den``."""
    return geomean([pct(num[g], q) / pct(den[g], q) for g in num])


def closed_segments(mix, refs, plan: LoopPlan, seconds: float,
                    segments: int, checker: Checker, tracer) -> dict:
    """``segments`` closed loops sharing ``seconds``, each on a fresh
    layout with a fresh session whose set-up (construction through one
    checked ``infer`` per geometry) is timed."""
    total = {key: collections.defaultdict(list)
             for key in ("lat", "base", "staged", "fused")}
    total.update(roll=[], roll_base=[], setup=[])
    for _ in range(segments):
        seg = mix.fresh()
        models = spectral_models(seg)
        t0 = time.perf_counter()
        session = new_session()
        for g, (model, xs) in enumerate(zip(models, seg.inputs)):
            checker.attempt()
            checker.check((seg.stream, g, 0), session.infer(model, xs[0]),
                          ref=refs.oracle(g, 0))
        total["setup"].append(time.perf_counter() - t0)
        try:
            res = closed_loop(session, models, seg, refs, plan,
                              seconds / segments, checker, tracer)
        finally:
            session.close()
        for key in ("lat", "base", "staged", "fused"):
            for g, v in res[key].items():
                total[key][g] += v
        total["roll"] += res["roll"]
        total["roll_base"] += res["roll_base"]
    return total


def all_calls(lat: dict) -> list:
    return [v for g in sorted(lat) for v in lat[g]]


def run(workload: str, ctx) -> dict:
    """Run one workload; returns its checker and metrics."""
    scale = ctx.scale
    if workload == "serve-small":
        geos, plan, n_in = SMALL_GEOS, SERVE_SMALL_PLAN, scale.small_inputs
    else:
        geos, plan = scale.large_geos, LAYER_LARGE_PLAN
        n_in = scale.large_inputs
    mix = make_mix(ctx.seed, geos, n_in)
    refs = Refs(mix, plan)
    checker = Checker()
    if ctx.trace:
        return _trace_closed(ctx, mix, refs, plan, checker)
    res = closed_segments(mix, refs, plan, ctx.seconds, scale.segments,
                          checker, ctx.tracer)
    lat = all_calls(res["lat"])
    names = {g: mix.geos[g].name for g in res["lat"]}
    ctx.note(setup_all=res["setup"],
             latency_ms={f"p{q}": pct(lat, q / 100) * 1e3
                         for q in (50, 90, 95, 99)},
             ops_per_s=len(lat) / sum(lat),
             rollout_steps_per_s=plan.roll_steps * len(res["roll"])
             / sum(res["roll"]),
             median_ms={names[g]: median(v) * 1e3
                        for g, v in res["lat"].items()},
             numpy_median_ms={names[g]: median(v) * 1e3
                              for g, v in res["base"].items()},
             samples=len(lat), beyond_p99=tail_count(len(lat), 0.99),
             rollouts=len(res["roll"]),
             pairs={names[g]: len(v) for g, v in res["staged"].items()})
    metrics = {
        "setup_s": median(res["setup"]),
        "peak_rss_mb": peak_rss_mb(),
        "p50_x_numpy": ratio(res["lat"], res["base"]),
        "p90_x_numpy": ratio(res["lat"], res["base"], 0.9),
        "speedup_vs_staged": ratio(res["staged"], res["fused"]),
        "rollout_x_numpy": median(res["roll"]) / median(res["roll_base"]),
    }
    return {"checker": checker, "metrics": metrics}


def _trace_closed(ctx, mix, refs, plan, checker) -> dict:
    """The loop untraced, then traced; the ratio of their mean latencies
    is the tracing overhead.  The layer census follows."""
    from census import census

    half, segs = ctx.seconds * TRACE_SHARE, max(1, ctx.scale.segments // 2)
    quiet, loud = (
        all_calls(closed_segments(mix, refs, plan, half, segs, checker,
                                  tracer)["lat"])
        for tracer in (ctx.null_tracer, ctx.tracer)
    )
    metrics = census(ctx, checker)
    metrics["trace.overhead"] = (sum(loud) / len(loud)) / (
        sum(quiet) / len(quiet))
    return {"checker": checker, "metrics": metrics}


# ---------------------------------------------------------------------------
# Open loop: the census's ServePool probe
# ---------------------------------------------------------------------------

def new_pool():
    from repro.api.serve import ServePool

    # backend="ckernels": a worker whose kernels fail their self-check
    # reports "numpy" instead of falling back silently.
    return ServePool(workers=1, backend="ckernels")


def require_pool_kernels(pool) -> None:
    backends = [w["backend"] for w in pool.stats()["per_worker"]]
    if any(b != "ckernels" for b in backends):
        raise BenchFailure(f"pool workers fell back: backends={backends}")


@dataclass
class Step:
    """One open-loop rate step: its schedule and what came back."""

    rate: float
    dues: np.ndarray  # absolute due times, ascending
    lat: list = field(default_factory=list)  # due time to completion
    done: list = field(default_factory=list)  # completion times
    lag: list = field(default_factory=list)  # send time minus due time
    submit: list = field(default_factory=list)  # time inside submit()

    def backlog(self) -> np.ndarray:
        """Requests due but not yet completed, at each arrival: queued
        futures plus the ones a late generator has not sent yet."""
        finished = np.searchsorted(np.sort(self.done), self.dues, "right")
        return np.arange(1, len(self.dues) + 1) - finished

    def growing(self) -> bool:
        """Mean backlog over the last quarter of the arrivals against
        the first quarter."""
        b = self.backlog()
        q = len(b) // 4
        if q < 2:
            return False
        return float(b[-q:].mean()) > max(4.0, 2.0 * float(b[:q].mean()))


def summarize(steps: list) -> dict:
    """One rate's steps, one per segment, as a single result: latency
    percentiles over every request.  The backlog counts as growing when
    it grew in most segments: overload grows it in every segment, while
    one stall at the end of a short step can make a single one look so."""
    done = [v for st in steps for v in st.lat]
    lat = done or [float("inf")]
    due = sum(len(st.dues) for st in steps)
    span = sum(float(st.dues[-1] - st.dues[0]) for st in steps
               if len(st.dues) > 1)
    growing = sum(st.growing() for st in steps) * 2 > len(steps)
    p99 = pct(lat, 0.99)
    return {
        "rate": steps[0].rate,
        "due": due,
        "completed": len(done),
        "achieved_rps": (len(done) - len(steps)) / span if span else 0.0,
        "mean_ms": sum(lat) / len(lat) * 1e3,
        "p50_ms": pct(lat, 0.5) * 1e3,
        "p90_ms": pct(lat, 0.9) * 1e3,
        "p99_ms": p99 * 1e3,
        "beyond_p99": tail_count(len(lat), 0.99),
        "lag_p99_ms": pct([v for st in steps for v in st.lag] or [0.0],
                          0.99) * 1e3,
        "submit_us": median([v for st in steps for v in st.submit]
                            or [0.0]) * 1e6,
        "backlog_max": max(int(st.backlog().max(initial=0)) for st in steps),
        "growing": growing,
        "passed": (p99 * 1e3 <= POOL_LIMIT_MS and not growing
                   and len(done) == due),
    }


def open_step(pool, models, mix, expected, rate: float, duration: float,
              rng, checker: Checker, tracer, op_base: int = 0) -> Step:
    """Seeded Poisson arrivals at ``rate`` for ``duration`` seconds.

    The generator (this thread) sleeps until each due time and submits;
    one collector thread polls ``ServeFuture.done()`` and timestamps
    completions.  Latency runs from the due time, so a stalled generator
    charges its lateness to the requests it delayed.
    """
    n_geo, n_in = len(mix.geos), len(mix.inputs[0])
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    dues = np.cumsum(gaps)
    dues = dues[dues < duration]
    geo_idx = rng.integers(n_geo, size=len(dues))
    inp_idx = rng.integers(n_in, size=len(dues))
    start = time.perf_counter() + 0.005
    step = Step(rate, start + dues)
    inbox: collections.deque = collections.deque()
    sending = threading.Event()
    sending.set()
    perf = time.perf_counter

    def finish(item, now):
        op, due, fut, g, j = item
        step.lat.append(now - due)
        step.done.append(now)
        tracer.record("pool.request", due, now, op)
        try:
            out = fut.result(0)
        except Exception as exc:  # noqa: BLE001 - counted, loop goes on
            checker.fail(f"pool request {mix.geos[g].name}: {exc!r}")
            return
        checker.check(("pool", g, j), out, exact=expected[g][j])

    def collect():
        pending: list = []
        give_up = None
        while True:
            while inbox:
                pending.append(inbox.popleft())
            now = perf()
            still = []
            for item in pending:
                if item[2].done():
                    finish(item, now)
                else:
                    still.append(item)
            pending = still
            if not sending.is_set():
                if not inbox and not pending:
                    return
                if give_up is None:
                    give_up = now + DRAIN_TIMEOUT_S
                elif now > give_up:
                    for item in pending:
                        item[2].cancel()
                        checker.fail(f"pool request {item[0]} never resolved")
                    return
            time.sleep(POLL_S)

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    try:
        for k, due in enumerate(step.dues):
            wait = due - perf()
            if wait > 0:
                time.sleep(wait)
            g, j = int(geo_idx[k]), int(inp_idx[k])
            op = op_base + k
            checker.attempt()
            t_send = perf()
            try:
                with tracer.span("pool.submit", op=op):
                    fut = pool.submit(models[g], mix.inputs[g][j])
            except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                checker.fail(f"submit {mix.geos[g].name}: {exc!r}")
                continue
            t_sub = perf()
            step.lag.append(t_send - due)
            step.submit.append(t_sub - t_send)
            inbox.append((op, due, fut, g, j))
    finally:
        sending.clear()
        collector.join()
    return step


def pool_expected(mix, refs: Refs, checker) -> list:
    """In-process outputs the pool must reproduce bit for bit, each
    checked against the oracle."""
    session = new_session()
    models = spectral_models(mix)
    expected = []
    for g, xs in enumerate(mix.inputs):
        outs = []
        for j, x in enumerate(xs):
            checker.attempt()
            out = session.infer(models[g], x)
            checker.check((mix.stream, g, j), out, ref=refs.oracle(g, j))
            outs.append(out)
        expected.append(outs)
    session.close()
    return expected


def warm_pool(models, mix, expected, checker):
    """Fork a pool and serve one checked request per geometry."""
    pool = new_pool()
    try:
        for g, model in enumerate(models):
            checker.attempt()
            checker.check(("pool", g, 0),
                          pool.infer(model, mix.inputs[g][0]),
                          exact=expected[g][0])
        require_pool_kernels(pool)
    except BaseException:
        pool.close()
        raise
    return pool

