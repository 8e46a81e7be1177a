"""The traced run's layer census: every per-layer metric, each taken by
timing calls into one layer's public functions inside a named span.

The census runs the same probes on every workload, at fixed
geometries: the small serving mix and the two paper-scale layers.  Each
metric is the median of its spans' durations (or a count), so the
numbers can be recomputed from the spans file the run writes.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

from harness import Checker, close_to, llc_bytes, make_mix, median, oracle, pct
from workloads import (
    POOL_RATES,
    Refs,
    SERVE_SMALL_PLAN,
    SMALL_GEOS,
    new_session,
    open_step,
    pool_expected,
    summarize,
    spectral_models,
    warm_pool,
)

#: FFT probe points: (length, kept modes) at the workloads' lengths.
FFT_POINTS = ((32, 8), (128, 16), (256, 32), (1024, 64))
#: Elements per FFT probe call (rows x length).
FFT_ELEMS = 1 << 17
#: Open-loop steps for the pool layer: expected requests per rate,
#: so that at least ten samples lie beyond the p99.  Every rate of
#: ``POOL_RATES`` gets one step, lowest first.
POOL_PROBE_REQUESTS = 1150


def _reps(ctx, full: int) -> int:
    return 2 if ctx.scale.tiny else full


def _timed(tracer, name: str, fn, reps: int) -> list:
    for _ in range(reps):
        with tracer.span(name):
            out = fn()
    return out


def _ms(tracer, name: str) -> float:
    return median(tracer.durations(name)) * 1e3


def _us(tracer, name: str) -> float:
    return median(tracer.durations(name)) * 1e6


def census(ctx, checker: Checker) -> dict:
    tr = ctx.tracer
    m: dict = {}
    small = make_mix(ctx.seed, SMALL_GEOS, ctx.scale.small_inputs, stream=1)
    small_models = spectral_models(small)
    refs = Refs(small, SERVE_SMALL_PLAN)
    _session_layer(ctx, tr, small, small_models, refs, checker, m)
    large = make_mix(ctx.seed, ctx.scale.large_geos, 1, stream=2)
    _executor_layer(ctx, tr, large, checker, m)
    _ladder(ctx, tr, large, checker, m)
    _fft_layer(ctx, tr, checker, m)
    expected = pool_expected(small, refs, checker)
    pool = warm_pool(small_models, small, expected, checker)
    try:
        _pool_layer(ctx, tr, pool, small, small_models, expected, checker, m)
    finally:
        pool.close()
    _machine(ctx, tr, m)
    _model_check(ctx, large, m)
    return m


# ---------------------------------------------------------------------------
# repro.api.session and repro.core.compiled at the small mix
# ---------------------------------------------------------------------------

def _session_layer(ctx, tr, mix, models, refs, checker, m) -> None:
    session = new_session()
    reps = _reps(ctx, 300)
    infer_lat = []
    for g, (geo, model, xs) in enumerate(zip(mix.geos, models, mix.inputs)):
        x = xs[0]
        checker.attempt()
        checker.check(("census", g), session.infer(model, x),
                      ref=refs.oracle(g, 0))
        executor = session.executor(model.weight, geo.model_modes,
                                    geo.symmetric)
        checker.attempt()
        checker.check(("census", g), executor(x))
        for _ in range(reps):
            t0 = time.perf_counter()
            with tr.span(f"session.infer[{geo.name}]"):
                session.infer(model, x)
            infer_lat.append(time.perf_counter() - t0)
            with tr.span(f"executor.call[{geo.name}]"):
                executor(x)
        m[f"executor.call_us.{geo.name}"] = _us(
            tr, f"executor.call[{geo.name}]")
    # Dispatch: Session.infer minus a direct call on the same pooled
    # executor and input, per geometry, then the median across the mix.
    m["session.dispatch_us"] = median([
        _us(tr, f"session.infer[{g.name}]")
        - _us(tr, f"executor.call[{g.name}]") for g in mix.geos
    ])
    ctx.small_infer_p50 = median(infer_lat)
    # Rollout vs the eager loop on the same stream.
    plan = SERVE_SMALL_PLAN
    model, x0 = models[plan.roll_geo], mix.inputs[plan.roll_geo][0]
    steps, rounds = plan.roll_steps, _reps(ctx, 40)
    for _ in range(rounds):
        with tr.span("rollout.stream"):
            out = session.rollout(model, x0, steps=steps)
        with tr.span("eager.stream"):
            x = x0
            for _ in range(steps):
                x = session.infer(model, x)
        checker.attempt()
        checker.check("census-rollout", out, exact=x)
    m["rollout.step_us"] = _us(tr, "rollout.stream") / steps
    m["eager.step_us"] = _us(tr, "eager.stream") / steps
    session.close()


# ---------------------------------------------------------------------------
# repro.core.compiled stages at the paper-scale layers
# ---------------------------------------------------------------------------

def _executor_layer(ctx, tr, mix, checker, m) -> None:
    session = new_session()
    reps = _reps(ctx, 7)
    for g, (geo, w, xs) in enumerate(zip(mix.geos, mix.weights, mix.inputs)):
        x = xs[0]
        tag = f"{len(geo.modes)}d"
        ex = session.executor(w, geo.model_modes)
        spatial = x.shape[2:] if len(geo.modes) == 2 else x.shape[2]
        checker.attempt()
        ref = functools.partial(oracle, geo, x, w)
        checker.check(("census-large", g), ex(x), ref=ref)
        sk = _timed(tr, f"executor.forward[{tag}]",
                    lambda: ex.forward_spectrum(x), reps)
        yk = _timed(tr, f"executor.cgemm[{tag}]",
                    lambda: ex.step_spectrum(sk), reps)
        y = _timed(tr, f"executor.inverse[{tag}]",
                   lambda: ex.inverse_spectrum(yk, spatial), reps)
        out = _timed(tr, f"executor.fused[{tag}]", lambda: ex(x), reps)
        checker.attempt()
        checker.check(("census-large", g), out)
        checker.attempt()
        checker.check(("census-large-stages", g), y, ref=ref)
        m[f"executor.fwd_ms.{tag}"] = _ms(tr, f"executor.forward[{tag}]")
        m[f"executor.cgemm_ms.{tag}"] = _ms(tr, f"executor.cgemm[{tag}]")
        m[f"executor.inv_ms.{tag}"] = _ms(tr, f"executor.inverse[{tag}]")
        m[f"executor.fused_ms.{tag}"] = _ms(tr, f"executor.fused[{tag}]")
        c_in, c_out = w.shape
        flops = 8 * x.shape[0] * math.prod(geo.modes) * c_in * c_out
        m[f"cgemm.gflops.{tag}"] = flops / (_ms(tr, f"executor.cgemm[{tag}]")
                                            * 1e6)
    session.close()


# ---------------------------------------------------------------------------
# The stage ladder (repro.baselines.pytorch_fno, repro.core.fused)
# ---------------------------------------------------------------------------

def _ladder(ctx, tr, mix, checker, m) -> None:
    """Staged -> B -> C -> D on the 1-D paper-scale layer, rungs and the
    staged steps interleaved round by round."""
    from repro.baselines.pytorch_fno import pytorch_like_spectral_conv_1d
    from repro.core.fused import fused_fft_gemm_1d, fused_gemm_ifft_1d
    from repro.fft.compiled import workspace_empty, workspace_zeros
    from repro.fft.pruned import padded_ifft_auto, truncated_fft_auto

    geo, w, x = mix.geos[0], mix.weights[0], mix.inputs[0][0]
    (modes,) = geo.modes
    batch, _, n = x.shape
    session = new_session()
    ex = session.executor(w, modes)
    ref = functools.partial(oracle, geo, x, w)
    xc = x.astype(np.complex64)

    def staged_steps():
        with tr.span("staged.fft"):
            xk = np.fft.fft(x, axis=-1)
        with tr.span("staged.trunc"):
            low = workspace_empty("perfbench-trunc", (batch, x.shape[1],
                                                      modes), xk.dtype)
            low[...] = xk[:, :, :modes]
        with tr.span("staged.cgemm"):
            yk_low = np.einsum("bix,io->box", low, w)
        with tr.span("staged.pad"):
            yk = workspace_zeros("perfbench-pad", (batch, w.shape[1], n),
                                 yk_low.dtype)
            yk[:, :, :modes] = yk_low
        with tr.span("staged.ifft"):
            return np.fft.ifft(yk, axis=-1)

    rungs = (
        ("ladder.staged", lambda: pytorch_like_spectral_conv_1d(x, w, modes)),
        ("ladder.fft_gemm", lambda: padded_ifft_auto(
            fused_fft_gemm_1d(x, w, modes), n, axis=2)),
        ("ladder.gemm_ifft", lambda: fused_gemm_ifft_1d(
            truncated_fft_auto(xc, modes, axis=2), w, n)),
        ("ladder.full", lambda: ex(x)),
        ("staged.steps", staged_steps),
    )
    for name, fn in rungs:  # warm plans and workspaces, check once
        checker.attempt()
        checker.check(("ladder", name), fn(), ref=ref)
    for _ in range(_reps(ctx, 9)):
        for name, fn in rungs:
            with tr.span(name):
                fn()
    for name in ("staged", "fft_gemm", "gemm_ifft", "full"):
        m[f"ladder.{name}_ms"] = _ms(tr, f"ladder.{name}")
    for step in ("fft", "trunc", "cgemm", "pad", "ifft"):
        m[f"staged.{step}_ms"] = _ms(tr, f"staged.{step}")
    session.close()
    # The five steps, one by one, should add up to the staged rung.
    staged = tr.durations("ladder.staged")
    spread = (pct(staged, 0.75) - pct(staged, 0.25)) * 1e3
    total = sum(m[f"staged.{s}_ms"] for s in
                ("fft", "trunc", "cgemm", "pad", "ifft"))
    ctx.note(staged_sum_check={
        "sum_of_steps_ms": total,
        "ladder_staged_ms": m["ladder.staged_ms"],
        "ladder_staged_iqr_ms": spread,
        "within_spread": abs(total - m["ladder.staged_ms"]) <= max(spread,
                                                                   1e-9),
    })


# ---------------------------------------------------------------------------
# repro.fft.compiled plans
# ---------------------------------------------------------------------------

def _fft_layer(ctx, tr, checker, m) -> None:
    from repro.fft.compiled import PlanCaches

    plans = PlanCaches("auto")
    rng = np.random.default_rng([ctx.seed, 3])
    reps = _reps(ctx, 15)
    ratios = {}
    for n, part in FFT_POINTS:
        rows = FFT_ELEMS // n
        xc = (rng.standard_normal((rows, n))
              + 1j * rng.standard_normal((rows, n))).astype(np.complex64)
        xr = rng.standard_normal((rows, n)).astype(np.float32)
        nominal = 5 * n * math.log2(n) * rows  # flops, labelled nominal
        fft, pruned = plans.fft(n), plans.pruned(n, part, kind="trunc")
        prfft = plans.pruned_rfft(n, part)
        runs = (
            (f"fft.c2c[{n}]", lambda: fft.execute(xc),
             f"numpy.c2c[{n}]", lambda: np.fft.fft(xc, axis=-1)),
            (f"fft.pruned[{n}]", lambda: pruned.apply(xc),
             f"numpy.pruned[{n}]", lambda: np.fft.fft(xc, axis=-1)[:, :part]),
            (f"fft.pruned_rfft[{n}]", lambda: prfft.execute(xr),
             f"numpy.pruned_rfft[{n}]",
             lambda: np.fft.rfft(xr, axis=-1)[:, :part]),
        )
        for name, fn, np_name, np_fn in runs:
            checker.attempt()
            if not close_to(fn(), np_fn()):
                checker.fail(f"{name} disagrees with numpy.fft")
            for _ in range(reps):
                with tr.span(name):
                    fn()
                with tr.span(np_name):
                    np_fn()
        for kind in ("c2c", "pruned", "pruned_rfft"):
            sec = median(tr.durations(f"fft.{kind}[{n}]"))
            m[f"fft.{kind}_gflops.{n}"] = nominal / sec / 1e9
            ratios[kind] = (median(tr.durations(f"numpy.{kind}[{n}]")) / sec)
    # numpy.fft time over ours at the largest length (> 1: ours faster).
    for kind, r in ratios.items():
        m[f"fft.vs_numpy.{kind}"] = r
    small = plans.fft(128)
    xs = np.ones((32, 128), np.complex64)
    _timed(tr, "fft.small_call", lambda: small.execute(xs), _reps(ctx, 200))
    m["fft.small_call_us"] = _us(tr, "fft.small_call")


# ---------------------------------------------------------------------------
# repro.api.serve at the small mix
# ---------------------------------------------------------------------------

def _pool_layer(ctx, tr, pool, mix, models, expected, checker, m) -> None:
    rng = np.random.default_rng([ctx.seed, 11])
    n = 60 if ctx.scale.tiny else POOL_PROBE_REQUESTS
    before = pool.stats()
    steps = [
        summarize([open_step(pool, models, mix, expected, rate, n / rate,
                             rng, checker, tr, op_base=(64 + i) << 20)])
        for i, rate in enumerate(POOL_RATES)
    ]
    after = pool.stats()
    low, high = steps[0], steps[-1]
    passing = [s for s in steps if s["passed"]]
    m["serve.submit_us"] = low["submit_us"]
    m["serve.overhead_ms"] = low["p50_ms"] - ctx.small_infer_p50 * 1e3
    m["serve.p50_ms.low"] = low["p50_ms"]
    m["serve.p99_ms.low"] = low["p99_ms"]
    m["serve.max_rps"] = passing[-1]["achieved_rps"] if passing else 0.0
    m["serve.p50_ms.high"] = high["p50_ms"]
    m["serve.p99_ms.high"] = high["p99_ms"]
    m["serve.backlog_max"] = high["backlog_max"]
    m["serve.generator_lag_ms"] = high["lag_p99_ms"]
    served = after["requests"] - before["requests"]
    m["serve.batches_per_request"] = (
        (after["batches"] - before["batches"]) / served)
    adm0, adm1 = before["admission"], after["admission"]
    for key in ("submitted", "completed"):
        m[f"serve.admission.{key}"] = adm1[key] - adm0[key]
    m["serve.admission.faults"] = sum(
        adm1[k] - adm0[k] for k in adm1 if k not in ("submitted", "completed"))
    ctx.note(pool_probe=steps)


# ---------------------------------------------------------------------------
# Measured roofline
# ---------------------------------------------------------------------------

def _machine(ctx, tr, m) -> None:
    """Peak: a complex64 BLAS matmul.  Copy bandwidth: one array at
    least 4x the last-level cache, copied (read + write bytes)."""
    n = 256 if ctx.scale.tiny else 1024
    rng = np.random.default_rng([ctx.seed, 5])
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         ).astype(np.complex64)
    a @ a
    _timed(tr, "machine.matmul", lambda: a @ a, _reps(ctx, 5))
    best = min(tr.durations("machine.matmul"))
    m["machine.peak_gflops"] = 8 * n ** 3 / best / 1e9
    llc = llc_bytes() or (32 << 20)
    size = (1 << 20) if ctx.scale.tiny else 4 * llc
    src = np.ones(size // 4, np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    _timed(tr, "machine.copy", lambda: np.copyto(dst, src), _reps(ctx, 5))
    best = min(tr.durations("machine.copy"))
    m["machine.copy_gbps"] = 2 * src.nbytes / best / 1e9
    del src, dst
    ctx.note(roofline={"llc_bytes": llc, "copy_array_bytes": size,
                       "matmul_n": n})
    peak, bw = m["machine.peak_gflops"], m["machine.copy_gbps"]
    n_big = FFT_POINTS[-1][0]
    for kind in ("c2c", "pruned", "pruned_rfft"):
        m[f"fft.{kind}_frac_peak.{n_big}"] = (
            m[f"fft.{kind}_gflops.{n_big}"] / peak)
    # The c2c probe streams rows x n complex64 in and out once.
    sec = median(tr.durations(f"fft.c2c[{n_big}]"))
    m[f"fft.c2c_frac_copy.{n_big}"] = 2 * FFT_ELEMS * 8 / sec / 1e9 / bw
    for tag in ("1d", "2d"):
        m[f"cgemm.frac_peak.{tag}"] = m[f"cgemm.gflops.{tag}"] / peak


# ---------------------------------------------------------------------------
# Model check: core.pipeline_model's A100 prediction beside measured shares
# ---------------------------------------------------------------------------

def _model_check(ctx, mix, m) -> None:
    """Printed, not reported: the model's predicted A100 stage shares
    and rung ratios next to the measured ones for the same geometry."""
    from repro.core.config import FNO1DProblem
    from repro.core.pipeline_model import build_pipeline_1d
    from repro.core.stages import FusionStage

    geo = mix.geos[0]
    batch, hidden, n = geo.shape
    steps = ("fft", "trunc", "cgemm", "pad", "ifft")
    measured_total = sum(m[f"staged.{s}_ms"] for s in steps)
    lines = [f"model check (MODEL OUTPUT, not a metric) for {geo.name}:"]
    try:
        problem = FNO1DProblem(batch=batch, hidden=hidden, dim_x=n,
                               modes=geo.modes[0])
        base = build_pipeline_1d(problem, FusionStage.PYTORCH).report()
        rungs = {
            "fft_gemm": FusionStage.FUSED_FFT_GEMM,
            "gemm_ifft": FusionStage.FUSED_GEMM_IFFT,
            "full": FusionStage.FUSED_ALL,
        }
        model_rungs = {k: build_pipeline_1d(problem, s).total_time()
                       for k, s in rungs.items()}
    except (ValueError, KeyError) as exc:
        lines.append(f"  model unavailable for this geometry: {exc}")
    else:
        lines.append("  staged step   model A100 share   measured share")
        for step, (_, t) in zip(steps, base.kernel_times):
            share = m[f"staged.{step}_ms"] / measured_total
            lines.append(f"  {step:<12s}  {t / base.total_time:>16.3f}"
                         f"   {share:>14.3f}")
        lines.append("  rung          model time/staged  measured time/staged")
        for k, t in model_rungs.items():
            lines.append(
                f"  {k:<12s}  {t / base.total_time:>17.3f}"
                f"  {m[f'ladder.{k}_ms'] / m['ladder.staged_ms']:>20.3f}")
    print("\n".join(lines), file=sys.stderr)
