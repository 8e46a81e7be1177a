"""The C fused 1-D driver and the raw-address kernel boundary.

* A seeded differential fuzzer: every trial runs one geometry through a
  ckernels-backed and a NumPy-backed executor and asserts byte identity
  (and agreement with the frozen legacy loop).
* ``panel_gemm`` against the per-panel ``einsum`` loop.
* Executors sharing one plan-cache set, run from concurrent threads.
* The FFI guard: wrong dtype, non-contiguous or undersized operands
  raise ``ValueError`` instead of reaching C.
* The load-time self-check names the probe that failed.
"""

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.core import legacy
from repro.core.compiled import CompiledSpectralConv1D, CompiledSpectralConv2D
from repro.fft import _ckernels
from repro.fft._ckernels import get_kernels, kernels_available
from repro.fft.compiled import PlanCaches, panel_gemm

pytestmark = pytest.mark.skipif(
    not kernels_available(), reason="C kernels unavailable"
)


def _bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(a.real.dtype),
        np.ascontiguousarray(b).view(b.real.dtype),
    )


def _cplx(rng, shape, dtype):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(dtype)


def _input(rng, batch, c_in, dim_x, real_dtype, kind):
    """A (batch, c_in, dim_x) input: real, complex, or a non-contiguous
    (transposed) complex view."""
    cdt = np.complex64 if real_dtype == np.float32 else np.complex128
    if kind == "real":
        return rng.standard_normal((batch, c_in, dim_x)).astype(real_dtype)
    if kind == "complex":
        return _cplx(rng, (batch, c_in, dim_x), cdt)
    x = _cplx(rng, (batch, dim_x, c_in), cdt).transpose(0, 2, 1)
    assert not x.flags.c_contiguous or x.size == 0
    return x


# ---------------------------------------------------------------------------
# differential fuzzer: ckernels backend == NumPy backend, byte for byte
# ---------------------------------------------------------------------------

_TRIALS = list(itertools.product(
    (np.float32, np.float64),          # precision
    ("real", "complex", "strided"),    # input layout
    (1, 2, 4),                         # k_block / k_tb
    ("p==1", "p>1"),                   # decomposition split
))


@pytest.mark.parametrize("trial", range(len(_TRIALS)))
def test_driver_matches_numpy_backend(trial):
    real_dtype, kind, kmult, split = _TRIALS[trial]
    rng = np.random.default_rng([0xF05ED, trial])
    k_tb = int(rng.choice([1, 2, 3, 4]))
    signal_tile = int(rng.integers(1, 5))
    # batch 0, batch 1, and more than one signal tile, in rotation
    batch = (0, 1, signal_tile + int(rng.integers(1, 6)))[trial % 3]
    # ragged c_in (a tail panel) on most trials
    c_in = k_tb * int(rng.integers(1, 4)) + int(rng.integers(0, k_tb + 1))
    c_out = int(rng.integers(1, 6))
    dim_x = 2 ** int(rng.integers(1, 7))
    if split == "p==1":
        modes = dim_x
    else:
        modes = 2 ** int(rng.integers(0, dim_x.bit_length() - 1))
    cdt = np.complex64 if real_dtype == np.float32 else np.complex128
    w = _cplx(rng, (c_in, c_out), cdt)
    x = _input(rng, batch, c_in, dim_x, real_dtype, kind)
    tiles = (signal_tile, kmult * k_tb)

    def run(backend):
        conv = CompiledSpectralConv1D(
            w, modes, k_tb=k_tb, plans=PlanCaches(backend=backend),
            tiles=tiles,
        )
        return conv(x)

    got = run("ckernels")
    assert _bit_equal(got, run("numpy"))
    assert _bit_equal(got, legacy.fused_fft_gemm_ifft_1d(
        x, w, modes, k_tb=k_tb, signal_tile=signal_tile
    ))


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_2d_pencil_stage_matches_numpy_backend(dtype):
    rng = np.random.default_rng(11)
    cdt = np.complex64 if dtype == np.float32 else np.complex128
    x = rng.standard_normal((2, 5, 16, 8)).astype(dtype)
    w = _cplx(rng, (5, 3), cdt)
    outs = [
        CompiledSpectralConv2D(w, 4, 4, k_tb=2, plans=PlanCaches(b),
                               tiles=(3, 4))(x)
        for b in ("ckernels", "numpy")
    ]
    assert _bit_equal(outs[0], outs[1])
    assert _bit_equal(outs[0], legacy.fused_fft_gemm_ifft_2d(
        x, w, 4, 4, k_tb=2, signal_tile=3
    ))


# ---------------------------------------------------------------------------
# panel_gemm == the per-panel einsum loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", (np.complex64, np.complex128))
@pytest.mark.parametrize("batch,c_in,m,c_out,k_tb", [
    (1, 32, 16, 32, 8), (3, 7, 5, 4, 3), (2, 5, 9, 6, 8), (4, 9, 1, 2, 1),
    (0, 4, 3, 2, 2),
])
def test_panel_gemm_matches_einsum_loop(dtype, batch, c_in, m, c_out, k_tb):
    rng = np.random.default_rng(batch * 100 + c_in)
    a = _cplx(rng, (batch, c_in, m), dtype)
    w = _cplx(rng, (c_in, c_out), dtype)
    ref = np.zeros((batch, c_out, m), dtype)
    for k0 in range(0, c_in, k_tb):
        ref += np.einsum("bkm,ko->bom",
                         np.ascontiguousarray(a[:, k0:k0 + k_tb]),
                         w[k0:k0 + k_tb])
    for kernels in (get_kernels(), None):
        acc = np.full((batch, c_out, m), np.nan, dtype)
        panel_gemm(a, w, acc, k_tb, kernels=kernels)
        assert _bit_equal(acc, ref)


# ---------------------------------------------------------------------------
# concurrency: executors own their driver workspaces
# ---------------------------------------------------------------------------

def test_executors_sharing_plan_caches_run_concurrently():
    """Executors sharing one plan-cache set (and so its FFT plans and
    tables) in more threads than cores match their serial outputs:
    each driver runs in its own executor's workspaces."""
    rng = np.random.default_rng(5)
    caches = PlanCaches(backend="ckernels")
    jobs = []
    for c_in, modes in ((6, 8), (9, 4), (6, 8), (5, 32)):
        w = _cplx(rng, (c_in, 3), np.complex64)
        conv = CompiledSpectralConv1D(w, modes, k_tb=2, plans=caches,
                                      tiles=(2, 4))
        xs = [_cplx(rng, (3, c_in, 32), np.complex64) for _ in range(6)]
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

def _contract_operands(dtype=np.complex64):
    rng = np.random.default_rng(0)
    return (_cplx(rng, (2, 3, 4), dtype), _cplx(rng, (3, 5), dtype),
            np.zeros((2, 5, 4), dtype))


def test_guard_rejects_non_contiguous_operand():
    k = get_kernels()
    a, w, acc = _contract_operands()
    wide = np.zeros((2, 5, 8), np.complex64)
    with pytest.raises(ValueError, match="acc: operand is not C-contiguous"):
        k.panel_contract(a, w, wide[:, :, ::2], 2, 3, 4, 5)
    with pytest.raises(ValueError, match="C-contiguous"):
        k.decomp_reduce(a.transpose(0, 2, 1), w, acc, 2, 3, 4)


def test_guard_rejects_wrong_dtype_operand():
    k = get_kernels()
    a, w, acc = _contract_operands()
    with pytest.raises(ValueError, match="w: expected complex64"):
        k.panel_contract(a, w.astype(np.complex128), acc, 2, 3, 4, 5)
    with pytest.raises(ValueError, match="complex64/complex128"):
        k.panel_gemm(a.real.copy(), w, acc, 2, 3, 4, 5, 2)


def test_guard_rejects_undersized_operand():
    k = get_kernels()
    a, w, acc = _contract_operands()
    with pytest.raises(ValueError, match="acc: needs 40 elements"):
        k.panel_contract(a, w, acc[:1], 2, 3, 4, 5)
    with pytest.raises(ValueError, match="a: needs"):
        k.panel_gemm(a, w, acc, 2, 4, 4, 5, 2)
    x = np.zeros((4, 8), np.complex64)
    with pytest.raises(ValueError, match="scratch: needs 32"):
        k.stockham(x, np.empty_like(x), x[:2], np.zeros(7, np.complex64),
                   4, 8, None, None)


def test_guard_checks_fused_driver_operands():
    rng = np.random.default_rng(1)
    w = _cplx(rng, (4, 3), np.complex64)
    conv = CompiledSpectralConv1D(w, 4, k_tb=2,
                                  plans=PlanCaches(backend="ckernels"))
    x = _cplx(rng, (2, 4, 16), np.complex64)
    conv(x)
    (staged,) = conv._staged.values()
    driver = staged._driver
    out = np.empty((2, 3, 16), np.complex64)
    with pytest.raises(ValueError, match="x: expected float32"):
        driver(x.astype(np.complex128), out)
    with pytest.raises(ValueError, match="x: operand is not C-contiguous"):
        driver(np.asfortranarray(x), out)
    with pytest.raises(ValueError, match="out: needs 96"):
        driver(x, out[:1])
    with pytest.raises(ValueError, match=r"x: expected \(batch, 4, 16\)"):
        driver(x[:, :3], out)
    with pytest.raises(ValueError, match="gather: needs"):
        get_kernels().bind_fused1d(
            weight=staged.weight, tw_f=staged.fwd.stage_table,
            tw_i=staged.inv.stage_table, wd_f=staged.wd_f,
            wd_i=staged.wd_i, gather=staged._gather[:1],
            fftbuf=staged._fftbuf, scratch=staged._fftbuf,
            acc=staged._acc, dec=staged._dec, c_in=4, c_out=3, dim_x=16,
            modes=4, signal_tile=staged.signal_tile, k_tb=2,
            k_block=staged.k_block,
        )


# ---------------------------------------------------------------------------
# the self-check names the failed probe
# ---------------------------------------------------------------------------

def test_self_check_probes_all_pass_and_cover_the_driver():
    names = []
    for name, passed in _ckernels._probes(get_kernels()):
        assert passed, name
        names.append(name)
    for sfx in ("f32", "f64"):
        for label in ("p==1", "p>1", "ragged tail", "signal_tile<batch",
                      "k_block>k_tb"):
            assert f"fused1d {sfx} {label}" in names
        assert f"panel_gemm {sfx}" in names


def test_build_info_names_the_failed_probe(monkeypatch):
    real = legacy.fused_fft_gemm_ifft_1d

    def off_by_one_ulp(x, weight, modes, **kw):
        out = real(x, weight, modes, **kw)
        if out.dtype == np.complex64 and x.shape[2] // modes > 1:
            out.real.flat[0] = np.nextafter(out.real.flat[0], np.inf)
        return out

    monkeypatch.setattr(legacy, "fused_fft_gemm_ifft_1d", off_by_one_ulp)
    for key in ("kernels", "tried", "info"):
        monkeypatch.setitem(_ckernels._state, key, _ckernels._state[key])
    _ckernels._reset_for_tests()
    assert get_kernels() is None
    assert _ckernels.build_info().endswith(
        "failed self-check probe 'fused1d f32 p>1'"
    )
