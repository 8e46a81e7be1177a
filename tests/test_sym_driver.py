"""The C symmetric 1-D driver and the pruned real-plan kernels.

* A seeded differential fuzzer: every trial runs one symmetric geometry
  through a ckernels-backed and a NumPy-backed executor and asserts byte
  identity, plus agreement with a float64 ``numpy.fft`` rfft/irfft
  oracle — for executor calls, the four spectrum methods, the
  ``xk_trunc`` route and the nn ``SpectralConv1d`` route.
* The pruned R2C/C2R plans' one-call C path against their NumPy glue.
* Executors sharing one plan-cache set, run from concurrent threads.
* The FFI guard: wrong dtype, undersized or non-contiguous operands and
  mismatched rebinding raise ``ValueError`` instead of reaching C.
* The load-time self-check covers both plan kernels and the driver, and
  names the probe that failed.
"""

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.core.compiled import CompiledSpectralConv1D, _StagedSymmetric
from repro.fft import _ckernels
from repro.fft._ckernels import get_kernels, kernels_available
from repro.fft.compiled import PlanCaches, plan_cache_scope
from repro.nn.modules import SpectralConv1d

pytestmark = pytest.mark.skipif(
    not kernels_available(), reason="C kernels unavailable"
)


def _bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
    )


def _cplx(rng, shape, dtype):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(dtype)


def _oracle(x, w, modes):
    """The symmetric layer in float64 through numpy.fft.rfft/irfft."""
    n = x.shape[-1]
    xk = np.fft.rfft(x.astype(np.float64), axis=-1)[..., :modes]
    yk = np.einsum("bim,io->bom", xk, w.astype(np.complex128))
    full = np.zeros((*yk.shape[:-1], n // 2 + 1), np.complex128)
    full[..., :modes] = yk
    return np.fft.irfft(full, n=n, axis=-1)


def _rtol(real_dtype):
    return 2e-4 if real_dtype == np.float32 else 1e-10


def _close(got, ref, real_dtype):
    scale = max(float(np.abs(ref).max(initial=0.0)), 1.0)
    np.testing.assert_allclose(got, ref, rtol=0,
                               atol=_rtol(real_dtype) * scale)


def _staged(conv):
    (staged,) = conv._staged.values()
    return staged


# ---------------------------------------------------------------------------
# differential fuzzer: C == NumPy backend == float64 oracle
# ---------------------------------------------------------------------------

_TRIALS = list(itertools.product(
    (np.float32, np.float64),      # precision
    ("default", "tiled"),          # batch tile: whole batch, or smaller
    range(4),                      # seeded geometry draws
))


def _geometry(trial):
    real_dtype, tiling, _ = _TRIALS[trial]
    rng = np.random.default_rng([0x5E7D, trial])
    k_tb = int(rng.integers(1, 5))
    # ragged c_in (a tail panel) on most trials
    c_in = k_tb * int(rng.integers(1, 4)) + int(rng.integers(0, k_tb))
    c_out = int(rng.integers(1, 5))
    n = 2 ** int(rng.integers(3, 9))
    # every modes <= n/4 runs the decomp strategy of both plans
    modes = int(rng.integers(1, n // 4 + 1))
    batch = (0, 1, int(rng.integers(2, 7)))[trial % 3]
    tiles = "default" if tiling == "default" else (
        int(rng.integers(1, 4)), k_tb)
    cdt = np.complex64 if real_dtype == np.float32 else np.complex128
    w = _cplx(rng, (c_in, c_out), cdt)
    x = rng.standard_normal((batch, c_in, n)).astype(real_dtype)
    return rng, real_dtype, w, x, modes, k_tb, tiles


def _conv(w, modes, k_tb, tiles, backend, plans=None):
    return CompiledSpectralConv1D(
        w, modes, k_tb=k_tb, symmetric=True, tiles=tiles,
        plans=plans if plans is not None else PlanCaches(backend=backend),
    )


@pytest.mark.parametrize("trial", range(len(_TRIALS)))
def test_executor_call_matches_numpy_backend_and_oracle(trial):
    _, real_dtype, w, x, modes, k_tb, tiles = _geometry(trial)
    c = _conv(w, modes, k_tb, tiles, "ckernels")
    got = c(x)
    assert _staged(c)._driver is not None  # the C driver ran
    assert _bit_equal(got, _conv(w, modes, k_tb, tiles, "numpy")(x))
    _close(got, _oracle(x, w, modes), real_dtype)


@pytest.mark.parametrize("trial", range(len(_TRIALS)))
def test_spectrum_methods_match_numpy_backend(trial):
    _, real_dtype, w, x, modes, k_tb, tiles = _geometry(trial)
    n = x.shape[-1]
    outs = []
    for backend in ("ckernels", "numpy"):
        c = _conv(w, modes, k_tb, tiles, backend)
        sk = c.forward_spectrum(x)
        yk = c.step_spectrum(sk)
        outs.append((sk, yk, c.inverse_spectrum(yk, n),
                     c.reanalyze_spectrum(yk)))
    for got, ref in zip(*outs):
        assert _bit_equal(got, ref)
    sk, yk, y, _ = outs[0]
    ref_sk = np.fft.rfft(x.astype(np.float64), axis=-1)[..., :modes]
    _close(sk, ref_sk, real_dtype)
    _close(y, _oracle(x, w, modes), real_dtype)


@pytest.mark.parametrize("trial", range(len(_TRIALS)))
def test_xk_trunc_route_matches_the_driver(trial):
    """Passing the cached spectrum skips the driver (plan chain) and
    still reproduces the driver's bits."""
    _, _, w, x, modes, k_tb, tiles = _geometry(trial)
    c = _conv(w, modes, k_tb, tiles, "ckernels")
    sk = c.forward_spectrum(x)
    assert _bit_equal(c(x, xk_trunc=sk), c(x))
    n = _conv(w, modes, k_tb, tiles, "numpy")
    assert _bit_equal(n(x, xk_trunc=n.forward_spectrum(x)), c(x))


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("per_mode", (False, True))
def test_nn_spectral_conv1d_route_matches_numpy_backend(dtype, per_mode):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 5, 64)).astype(dtype)
    g = rng.standard_normal((3, 4, 64)).astype(dtype)
    results = []
    for backend in ("ckernels", "numpy"):
        layer = SpectralConv1d(5, 4, 7, np.random.default_rng(3),
                               per_mode=per_mode, symmetric=True)
        with plan_cache_scope(PlanCaches(backend=backend)):
            y = layer.forward(x)
            gx = layer.backward(g)
        results.append((y, gx, layer.weight.grad))
    for got, ref in zip(*results):
        assert _bit_equal(got, ref)
    if not per_mode:
        _close(results[0][0], _oracle(x, layer.weight.value, 7), dtype)


def test_one_symmetric_call_is_one_driver_call(monkeypatch):
    """On the C backend a qualifying executor call crosses the FFI once:
    every other kernel binding would fail the call."""
    rng = np.random.default_rng(4)
    w = _cplx(rng, (6, 3), np.complex64)
    x = rng.standard_normal((2, 6, 128)).astype(np.float32)
    c = _conv(w, 16, 4, "default", "ckernels")
    ref = c(x)
    driver = _staged(c)._driver
    calls = []
    fn = driver._fn
    monkeypatch.setattr(driver, "_fn", lambda *a: calls.append(fn(*a)))
    k = get_kernels()
    for name in ("stockham", "panel_gemm", "decomp_reduce", "expand_mul"):
        monkeypatch.setattr(k, name, None)
    assert _bit_equal(c(x), ref)
    assert len(calls) == 1


@pytest.mark.parametrize("inverse", (False, True))
@pytest.mark.parametrize("dtype", (np.complex64, np.complex128))
def test_pruned_real_plans_one_call_matches_numpy_glue(inverse, dtype):
    rng = np.random.default_rng(8)
    real = np.float32 if dtype == np.complex64 else np.float64
    for n, part, rows in ((8, 1, 3), (16, 3, 1), (32, 2, 1), (64, 5, 4),
                          (128, 16, 2), (256, 64, 3), (64, 7, 0)):
        plans = [PlanCaches(backend=b) for b in ("ckernels", "numpy")]
        if inverse:
            x = _cplx(rng, (rows, part), dtype)
            execs = [p.pruned_irfft(n, part, dtype).execute for p in plans]
        else:
            x = rng.standard_normal((rows, n)).astype(real)
            execs = [p.pruned_rfft(n, part, dtype).execute for p in plans]
        got = execs[0](x)
        assert _bit_equal(got, execs[1](x))
        # non-contiguous rows are copied, not refused
        xt = np.asfortranarray(x)
        assert _bit_equal(execs[0](xt), got)


# ---------------------------------------------------------------------------
# concurrency: executors own their driver workspaces
# ---------------------------------------------------------------------------

def test_executors_sharing_plan_caches_run_concurrently():
    """Four symmetric executors sharing one plan-cache set (and so its
    pruned real plans and tables) in four threads match their serial
    outputs: each driver runs in its own executor's workspaces."""
    rng = np.random.default_rng(5)
    caches = PlanCaches(backend="ckernels")
    jobs = []
    for c_in, n, modes, tiles in ((6, 128, 16, "default"),
                                  (5, 64, 8, (1, 2)),
                                  (6, 128, 16, (2, 2)),
                                  (3, 256, 32, "default")):
        w = _cplx(rng, (c_in, 3), np.complex64)
        conv = _conv(w, modes, 2, tiles, None, plans=caches)
        xs = [rng.standard_normal((3, c_in, n)).astype(np.float32)
              for _ in range(5)]
        serial = [conv(x) for x in xs]
        jobs.append((conv, xs, serial))
    barrier = threading.Barrier(len(jobs))
    failures = []
    done = []

    def worker(conv, xs, serial):
        barrier.wait()
        for _ in range(20):
            for x, ref in zip(xs, serial):
                if not _bit_equal(conv(x), ref):
                    failures.append(x.shape)
        done.append(conv)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(jobs)
    assert failures == []


# ---------------------------------------------------------------------------
# the FFI guard
# ---------------------------------------------------------------------------

def _bound_staging():
    rng = np.random.default_rng(1)
    w = _cplx(rng, (4, 3), np.complex64)
    conv = _conv(w, 8, 2, "default", "ckernels")
    x = rng.standard_normal((2, 4, 64)).astype(np.float32)
    conv(x)
    staged = _staged(conv)
    return staged, staged._driver, x


def test_guard_checks_sym_driver_call_operands():
    _, driver, x = _bound_staging()
    out = np.empty((2, 3, 64), np.float32)
    with pytest.raises(ValueError, match="x: expected float32"):
        driver(x.astype(np.float64), out)
    with pytest.raises(ValueError, match="x: operand is not C-contiguous"):
        driver(np.asfortranarray(x), out)
    with pytest.raises(ValueError, match="out: needs 384"):
        driver(x, out[:1])
    with pytest.raises(ValueError, match="out: expected float32"):
        driver(x, out.astype(np.complex64))
    with pytest.raises(ValueError, match=r"x: expected \(batch, 4, 64\)"):
        driver(x[:, :3], out)


def test_guard_checks_pruned_real_kernel_operands():
    staged, _, x = _bound_staging()
    k = get_kernels()
    fwd = staged.rfft.bound_kernel(k)
    inv = staged.irfft.bound_kernel(k)
    rows = x.reshape(-1, 64)
    ws = np.empty(fwd.workspace_size(8), np.complex64)
    out = np.empty((8, 8), np.complex64)
    with pytest.raises(ValueError, match="x: expected float32"):
        fwd(rows.astype(np.float64), out, ws)
    with pytest.raises(ValueError, match="ws: needs"):
        fwd(rows, out, ws[:10])
    with pytest.raises(ValueError, match="out: operand is not C-contiguous"):
        fwd(rows, np.empty((8, 16), np.complex64)[:, ::2], ws)
    with pytest.raises(ValueError, match=r"x: expected \(rows, 8\)"):
        inv(out[:, :5], np.empty((8, 64), np.float32), ws)
    with pytest.raises(ValueError, match="out: needs 512"):
        inv(out, np.empty((4, 64), np.float32), ws)


def test_guard_checks_sym_driver_binding():
    staged, driver, _ = _bound_staging()
    k = get_kernels()
    fwd = staged.rfft.bound_kernel(k)
    inv = staged.irfft.bound_kernel(k)
    ws = np.empty(1 << 12, np.complex64)
    good = dict(weight=staged.weight, fwd=fwd, inv=inv, ws=ws,
                sk=ws[:64], acc=ws[:64], k_tb=2, tile=2)
    k.bind_sym1d(**good)  # the operands an executor binds pass
    with pytest.raises(ValueError, match="ws: needs"):
        k.bind_sym1d(**{**good, "ws": ws[:100]})
    with pytest.raises(ValueError, match="sk: needs 64"):
        k.bind_sym1d(**{**good, "sk": ws[:63]})
    with pytest.raises(ValueError, match="expected complex128 kernels"):
        k.bind_sym1d(**{**good,
                        "weight": staged.weight.astype(np.complex128)})
    with pytest.raises(ValueError, match="weight: kernels run on"):
        k.bind_sym1d(**{**good, "weight": staged.weight.real.copy()})
    with pytest.raises(ValueError, match="in that order"):
        k.bind_sym1d(**{**good, "fwd": inv, "inv": fwd})
    other = PlanCaches(backend="numpy").pruned_irfft(128, 8, np.complex64)
    with pytest.raises(ValueError, match="geometry"):
        k.bind_sym1d(**{**good, "inv": other.bound_kernel(k)})
    f64 = PlanCaches(backend="numpy").pruned_rfft(64, 8, np.complex128)
    with pytest.raises(ValueError, match="complex64 kernels"):
        k.bind_sym1d(**{**good, "fwd": f64.bound_kernel(k)})
    with pytest.raises(ValueError, match="bad tiling"):
        k.bind_sym1d(**{**good, "tile": 0})
    with pytest.raises(ValueError, match="no decomp split"):
        k.bind_pruned_rfft(tw=fwd.tables, u=None, v=None, n=64, part=9,
                           q=8)


def test_rebinding_to_another_library_is_refused():
    """A plan kernel bound to one kernel library cannot be composed into
    a driver of another, and an executor rebinds when the library
    changes instead of calling stale addresses."""
    staged, driver, x = _bound_staging()
    k = get_kernels()
    other = _ckernels._Kernels(k.path, k.variant)
    fwd = staged.rfft.bound_kernel(k)
    inv = staged.irfft.bound_kernel(k)
    ws = np.empty(1 << 12, np.complex64)
    with pytest.raises(ValueError, match="another kernel library"):
        other.bind_sym1d(weight=staged.weight, fwd=fwd, inv=inv, ws=ws,
                         sk=ws[:64], acc=ws[:64], k_tb=2, tile=2)
    rebound = staged._bound_driver(other, x.shape[0])
    assert rebound is not driver and rebound.kernels is other
    out = np.empty((2, 3, 64), np.float32)
    rebound(x, out)
    ref = np.empty_like(out)
    driver(x, ref)
    assert _bit_equal(out, ref)


# ---------------------------------------------------------------------------
# the self-check covers the plan kernels and the driver
# ---------------------------------------------------------------------------

def test_self_check_probes_cover_plan_kernels_and_driver():
    names = []
    for name, passed in _ckernels._probes(get_kernels()):
        assert passed, name
        names.append(name)
    for sfx in ("f32", "f64"):
        for kind in ("pruned_rfft", "pruned_irfft"):
            for label in ("pow2 part", "ragged part", "one-element tail",
                          "rows 0"):
                assert f"{kind} {sfx} {label}" in names
        for label in ("ragged", "batch_tile", "one-element tail",
                      "batch 0"):
            assert f"sym1d {sfx} {label}" in names


def test_build_info_names_the_failed_sym_probe(monkeypatch):
    real = _StagedSymmetric._run_block

    def off_by_one_ulp(staged, x, xk_trunc):
        out = real(staged, x, xk_trunc)
        if out.dtype == np.float32 and staged.c_in % staged.k_tb:
            out.flat[0] = np.nextafter(out.flat[0], np.inf)
        return out

    # the probes' reference: the plan chain on the NumPy backend
    monkeypatch.setattr(_StagedSymmetric, "_run_block", off_by_one_ulp)
    for key in ("kernels", "tried", "info"):
        monkeypatch.setitem(_ckernels._state, key, _ckernels._state[key])
    _ckernels._reset_for_tests()
    assert get_kernels() is None
    assert _ckernels.build_info().endswith(
        "failed self-check probe 'sym1d f32 ragged'"
    )
