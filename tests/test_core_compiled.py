"""Compiled spectral-conv executors: byte identity with the legacy fused
loops, executor reuse, plan attachment, and the parallel sweep runner."""

import numpy as np
import pytest

from repro.api import Runner, clear_plan_cache, plan
from repro.core import compiled as core_compiled
from repro.core import fused, legacy
from repro.core.compiled import (
    CompiledSpectralConv,
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    compile_spectral_conv,
)
from repro.core.config import FNO1DProblem, FNO2DProblem
from repro.fft._ckernels import kernels_available

BACKENDS = ["ckernels", "numpy"] if kernels_available() else ["numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    if request.param == "numpy":
        from repro.fft import _ckernels, compiled

        monkeypatch.setitem(_ckernels._state, "kernels", None)
        monkeypatch.setitem(_ckernels._state, "tried", True)
        compiled.clear_fft_plan_cache()
    return request.param


def _weight(c_in, c_out, dtype, rng):
    return (
        rng.standard_normal((c_in, c_out))
        + 1j * rng.standard_normal((c_in, c_out))
    ).astype(dtype)


def _x(shape, dtype, rng):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _bit_equal(a, b):
    return a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(a.real.dtype),
        np.ascontiguousarray(b).view(b.real.dtype),
    )


# ---------------------------------------------------------------------------
# byte identity with the legacy loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", (np.float32, np.float64, np.complex64))
@pytest.mark.parametrize(
    "batch,c_in,c_out,dim_x,modes",
    [(7, 5, 6, 128, 64), (16, 8, 8, 64, 64), (33, 9, 3, 32, 8),
     (1, 1, 1, 2, 1), (20, 16, 4, 16, 16), (5, 3, 2, 8, 2)],
)
def test_executor_1d_bit_identical(backend, dtype, batch, c_in, c_out,
                                   dim_x, modes):
    rng = np.random.default_rng(0)
    wdtype = np.complex128 if dtype == np.float64 else np.complex64
    x = _x((batch, c_in, dim_x), dtype, rng)
    w = _weight(c_in, c_out, wdtype, rng)
    conv = CompiledSpectralConv1D(w, modes)
    ref = legacy.fused_fft_gemm_ifft_1d(x, w, modes)
    assert _bit_equal(conv(x), ref)
    # the functional wrapper takes the same compiled path
    assert _bit_equal(fused.fused_fft_gemm_ifft_1d(x, w, modes), ref)


@pytest.mark.parametrize("dtype", (np.float32, np.complex64))
@pytest.mark.parametrize(
    "batch,c_in,c_out,dim_x,dim_y,mx,my",
    [(3, 5, 4, 32, 16, 8, 8), (2, 8, 8, 16, 16, 16, 4),
     (1, 2, 3, 8, 8, 8, 8), (4, 3, 2, 4, 8, 2, 2)],
)
def test_executor_2d_bit_identical(backend, dtype, batch, c_in, c_out,
                                   dim_x, dim_y, mx, my):
    rng = np.random.default_rng(1)
    x = _x((batch, c_in, dim_x, dim_y), dtype, rng)
    w = _weight(c_in, c_out, np.complex64, rng)
    conv = CompiledSpectralConv2D(w, mx, my)
    ref = legacy.fused_fft_gemm_ifft_2d(x, w, mx, my)
    assert _bit_equal(conv(x), ref)
    assert _bit_equal(fused.fused_fft_gemm_ifft_2d(x, w, mx, my), ref)


@pytest.mark.parametrize("dtype", (np.float32, np.complex64))
def test_stage_b_and_c_wrappers_bit_identical(backend, dtype):
    rng = np.random.default_rng(2)
    x = _x((9, 11, 64), dtype, rng)
    w = _weight(11, 5, np.complex64, rng)
    assert _bit_equal(
        fused.fused_fft_gemm_1d(x, w, 16), legacy.fused_fft_gemm_1d(x, w, 16)
    )
    xk = _x((9, 11, 16), np.complex64, rng)
    assert _bit_equal(
        fused.fused_gemm_ifft_1d(xk, w, 64),
        legacy.fused_gemm_ifft_1d(xk, w, 64),
    )


def test_executor_reuse_across_calls_and_shapes(backend):
    """One executor, many inputs: staging reuse must not leak state."""
    rng = np.random.default_rng(3)
    w = _weight(6, 6, np.complex64, rng)
    conv = CompiledSpectralConv1D(w, 8)
    inputs = [
        _x((b, 6, dim_x), np.float32, rng)
        for b, dim_x in ((4, 32), (19, 32), (2, 16), (4, 32))
    ]
    for x in inputs:
        assert _bit_equal(conv(x), legacy.fused_fft_gemm_ifft_1d(x, w, 8))
    # float64 input through the same executor: separate complex128 staging
    x64 = _x((3, 6, 32), np.float64, rng)
    assert _bit_equal(conv(x64), legacy.fused_fft_gemm_ifft_1d(x64, w, 8))


def test_executor_rejects_bad_inputs():
    w = np.ones((4, 4), np.complex64)
    conv = CompiledSpectralConv1D(w, 8)
    with pytest.raises(ValueError, match="expected 3-D input"):
        conv(np.ones((4, 4), np.float32))
    with pytest.raises(ValueError, match="C_in"):
        conv(np.ones((2, 5, 16), np.float32))
    with pytest.raises(ValueError, match="modes must be in"):
        CompiledSpectralConv1D(w, 64)(np.ones((2, 4, 16), np.float32))
    with pytest.raises(ValueError, match="power of two"):
        CompiledSpectralConv1D(w, 3)(np.ones((2, 4, 16), np.float32))


def test_compile_spectral_conv_factory():
    w = np.ones((4, 4), np.complex64)
    assert isinstance(compile_spectral_conv(w, 8), CompiledSpectralConv1D)
    assert isinstance(compile_spectral_conv(w, (8,)), CompiledSpectralConv1D)
    assert isinstance(
        compile_spectral_conv(w, (8, 4)), CompiledSpectralConv2D
    )
    with pytest.raises(ValueError):
        compile_spectral_conv(w, (8, 4, 2))
    assert compile_spectral_conv(w, 8, symmetric=True).symmetric
    assert compile_spectral_conv(w, (8, 4), symmetric=True).symmetric


# ---------------------------------------------------------------------------
# symmetric (half-spectrum) executors
# ---------------------------------------------------------------------------

def _sym_oracle_1d(x, w, modes):
    n = x.shape[-1]
    xk = np.fft.rfft(x, axis=-1)[..., :modes]
    yk = np.einsum("bim,io->bom", xk, w)
    out_ft = np.zeros((x.shape[0], w.shape[1], n // 2 + 1), dtype=complex)
    out_ft[..., :modes] = yk
    return np.fft.irfft(out_ft, n=n, axis=-1)


def _sym_oracle_2d(x, w, mx, my):
    b, _, dim_x, dim_y = x.shape
    xk = np.fft.rfft(x, axis=3)[..., :my]
    xk = np.fft.fft(xk, axis=2)[:, :, :mx]
    yk = np.einsum("bimn,io->bomn", xk, w)
    out_ft = np.zeros((b, w.shape[1], dim_x, dim_y // 2 + 1), dtype=complex)
    out_ft[:, :, :mx, :my] = yk
    return np.fft.irfft(np.fft.ifft(out_ft, axis=2), n=dim_y, axis=3)


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-3), (np.float64, 1e-9)])
def test_symmetric_executor_1d_matches_oracle(backend, dtype, atol):
    rng = np.random.default_rng(6)
    w = _weight(5, 3, np.complex128, rng)
    conv = CompiledSpectralConv1D(w, 8, symmetric=True)
    x = _x((4, 5, 64), dtype, rng)
    y = conv(x)
    assert y.dtype == dtype  # real in, real out, same precision
    np.testing.assert_allclose(
        y, _sym_oracle_1d(x.astype(np.float64), w, 8), atol=atol
    )


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-3), (np.float64, 1e-9)])
def test_symmetric_executor_2d_matches_oracle(backend, dtype, atol):
    rng = np.random.default_rng(7)
    w = _weight(4, 6, np.complex128, rng)
    conv = CompiledSpectralConv2D(w, 4, 8, symmetric=True)
    x = _x((2, 4, 16, 32), dtype, rng)
    y = conv(x)
    assert y.dtype == dtype
    np.testing.assert_allclose(
        y, _sym_oracle_2d(x.astype(np.float64), w, 4, 8), atol=atol
    )


def test_symmetric_executor_reuse_bit_identical(backend):
    """Staging is cached per (dtype, geometry); repeated and interleaved
    calls through the shared rfft/irfft plans are deterministic."""
    rng = np.random.default_rng(8)
    w = _weight(3, 3, np.complex64, rng)
    conv = CompiledSpectralConv1D(w, 4, symmetric=True)
    xs = [_x((b, 3, 32), np.float32, rng) for b in (2, 7, 1)]
    first = [conv(x) for x in xs]
    second = [conv(x) for x in reversed(xs)][::-1]
    for g1, g2 in zip(first, second):
        assert _bit_equal(g1, g2)
    assert len(conv._staged) == 1


def test_symmetric_executor_validation():
    w = np.ones((4, 4), np.complex64)
    with pytest.raises(ValueError, match="modes <= X/2"):
        CompiledSpectralConv1D(w, 12, symmetric=True)(
            np.ones((2, 4, 16), np.float32)
        )
    with pytest.raises(ValueError, match="real input"):
        CompiledSpectralConv1D(w, 4, symmetric=True)(
            np.ones((2, 4, 16), np.complex64)
        )
    with pytest.raises(ValueError, match="modes_y <= Y/2"):
        CompiledSpectralConv2D(w, 4, 12, symmetric=True)(
            np.ones((2, 4, 16, 16), np.float32)
        )


def test_symmetric_executor_accepts_precomputed_spectrum(backend):
    """Passing the truncated spectrum skips the forward R2C pass but
    must produce the same result as computing it in the executor."""
    rng = np.random.default_rng(10)
    w = _weight(4, 3, np.complex128, rng)
    x = _x((3, 4, 64), np.float64, rng)
    conv = CompiledSpectralConv1D(w, 8, symmetric=True)
    xk = np.fft.rfft(x, axis=-1)[..., :8]
    np.testing.assert_allclose(conv(x, xk_trunc=xk), conv(x), atol=1e-9)
    conv2 = CompiledSpectralConv2D(w, 4, 8, symmetric=True)
    x2 = _x((2, 4, 16, 32), np.float64, rng)
    xk2 = np.fft.fft(np.fft.rfft(x2, axis=3)[..., :8], axis=2)[:, :, :4]
    np.testing.assert_allclose(conv2(x2, xk_trunc=xk2), conv2(x2), atol=1e-9)


def test_symmetric_executor_rejects_malformed_xk_trunc():
    rng = np.random.default_rng(11)
    w = _weight(4, 3, np.complex64, rng)
    x = _x((2, 4, 32), np.float32, rng)
    conv = CompiledSpectralConv1D(w, 8, symmetric=True)
    good = np.fft.rfft(x, axis=-1)[..., :8].astype(np.complex64)
    with pytest.raises(ValueError, match="xk_trunc"):
        conv(x, xk_trunc=good[..., :6])  # wrong mode count
    with pytest.raises(ValueError, match="xk_trunc"):
        conv(x, xk_trunc=good[:1])  # wrong batch
    with pytest.raises(ValueError, match="symmetric"):
        CompiledSpectralConv1D(w, 8)(x, xk_trunc=good)  # asymmetric mode
    conv2 = CompiledSpectralConv2D(w, 4, 8, symmetric=True)
    x2 = _x((2, 4, 16, 32), np.float32, rng)
    with pytest.raises(ValueError, match="xk_trunc"):
        conv2(x2, xk_trunc=np.zeros((2, 4, 8, 4), np.complex64))


def test_symmetric_layer_spectrum_cache_owns_its_memory(backend):
    """The cached activation spectrum must not pin the full half
    spectrum (it is held across the whole optimizer step).  The pruned
    R2C path may hand back an exact-size reshape view, so the invariant
    is on the pinned memory, not the base's shape."""
    from repro.nn.modules import SpectralConv1d

    rng = np.random.default_rng(12)
    m = SpectralConv1d(2, 2, 4, rng, symmetric=True)
    m(rng.standard_normal((1, 2, 256)))
    assert m._xk.base is None or m._xk.base.size == m._xk.size


def test_execution_plan_compile_executor_symmetric():
    rng = np.random.default_rng(9)
    p = plan(FNO1DProblem(batch=4, hidden=6, dim_x=64, modes=16))
    w = _weight(6, 6, np.complex64, rng)
    conv = p.compile_executor(w, symmetric=True)
    assert isinstance(conv, CompiledSpectralConv1D) and conv.symmetric
    x = _x((4, 6, 64), np.float32, rng)
    np.testing.assert_allclose(
        conv(x), _sym_oracle_1d(x.astype(np.float64), w, 16), atol=1e-3
    )


# ---------------------------------------------------------------------------
# plan attachment (plan once -> execute many)
# ---------------------------------------------------------------------------

def test_execution_plan_compile_executor_1d():
    rng = np.random.default_rng(4)
    p = plan(FNO1DProblem(batch=8, hidden=6, dim_x=64, modes=16))
    w = _weight(6, 6, np.complex64, rng)
    conv = p.compile_executor(w)
    assert isinstance(conv, CompiledSpectralConv1D)
    x = _x((8, 6, 64), np.float32, rng)
    assert _bit_equal(conv(x), legacy.fused_fft_gemm_ifft_1d(x, w, 16))


def test_execution_plan_compile_executor_2d_and_validation():
    rng = np.random.default_rng(5)
    p = plan(FNO2DProblem(batch=2, hidden=4, dim_x=16, dim_y=8,
                          modes_x=4, modes_y=4))
    conv = p.compile_executor(_weight(4, 4, np.complex64, rng))
    assert isinstance(conv, CompiledSpectralConv2D)
    with pytest.raises(ValueError, match="hidden"):
        p.compile_executor(_weight(5, 4, np.complex64, rng))


# ---------------------------------------------------------------------------
# parallel sweep runner
# ---------------------------------------------------------------------------

def test_parallel_map_speedups_matches_serial():
    problems = [
        FNO1DProblem(batch=64, hidden=k, dim_x=128, modes=64)
        for k in (16, 32, 48, 64, 80)
    ]
    runner = Runner()
    serial = runner.map_speedups(problems)
    parallel = runner.map_speedups(problems, workers=2)
    assert serial == parallel


def test_parallel_sweep_matches_serial():
    problems = [
        FNO2DProblem(batch=8, hidden=k, dim_x=32, dim_y=16,
                     modes_x=8, modes_y=8)
        for k in (16, 32, 64)
    ]
    runner = Runner()
    serial = runner.sweep(problems, ("A", "D", "best"))
    parallel = runner.sweep(problems, ("A", "D", "best"), workers=2)
    assert serial == parallel


def test_parallel_heatmap_matches_serial():
    from repro.analysis.sweeps import heatmap_1d

    clear_plan_cache()
    serial = heatmap_1d("t", 128, 64, [8, 24], [7, 9, 11])
    parallel = heatmap_1d("t", 128, 64, [8, 24], [7, 9, 11], workers=2)
    assert np.array_equal(serial.values, parallel.values)


def test_speedup_memoised_on_plan():
    p = plan(FNO1DProblem(batch=16, hidden=16, dim_x=128, modes=64), "D")
    first = p.speedup_vs_baseline()
    assert p._speedup is not None
    assert p.speedup_vs_baseline() == first


# ---------------------------------------------------------------------------
# the N-D executor: 3-D by construction, spatial arity, tune-key pins
# ---------------------------------------------------------------------------

def _c2c_oracle_nd(x, w, modes):
    """First bins along every axis, shared CGEMM, zero-padded inverse."""
    axes = tuple(range(2, x.ndim))
    corner = (slice(None), slice(None)) + tuple(slice(0, m) for m in modes)
    xk = np.fft.fftn(x, axes=axes)[corner]
    out_ft = np.zeros((x.shape[0], w.shape[1]) + x.shape[2:], dtype=complex)
    out_ft[corner] = np.einsum("bi...,io->bo...", xk, w)
    return np.fft.ifftn(out_ft, axes=axes)


def _sym_oracle_nd(x, w, modes):
    """First bins along the leading axes, the rfft half spectrum along
    the last, shared CGEMM, then the inverse chain."""
    *lead, n_last = x.shape[2:]
    xk = np.fft.rfft(x, axis=-1)[..., :modes[-1]]
    for axis, m in enumerate(modes[:-1], start=2):
        xk = np.take(np.fft.fft(xk, axis=axis), range(m), axis=axis)
    out_ft = np.zeros((x.shape[0], w.shape[1], *lead, n_last // 2 + 1),
                      dtype=complex)
    corner = (slice(None), slice(None)) + tuple(slice(0, m) for m in modes)
    out_ft[corner] = np.einsum("bi...,io->bo...", xk, w)
    for axis in range(2, 2 + len(lead)):
        out_ft = np.fft.ifft(out_ft, axis=axis)
    return np.fft.irfft(out_ft, n=n_last, axis=-1)


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-3), (np.float64, 1e-9)])
def test_executor_3d_c2c_matches_fftn_oracle(backend, dtype, atol):
    rng = np.random.default_rng(13)
    wdtype = np.complex128 if dtype == np.float64 else np.complex64
    w = _weight(5, 3, wdtype, rng)
    modes = (4, 2, 8)
    conv = CompiledSpectralConv(w, modes)
    x = _x((3, 5, 8, 4, 16), dtype, rng)
    ref = _c2c_oracle_nd(x.astype(np.float64), w, modes)
    np.testing.assert_allclose(conv(x), ref, atol=atol)
    # the spectrum-resident split computes the same convolution
    staged = conv.inverse_spectrum(
        conv.step_spectrum(conv.forward_spectrum(x)), x.shape[2:]
    )
    np.testing.assert_allclose(staged, ref, atol=atol)


@pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-3), (np.float64, 1e-9)])
def test_executor_3d_symmetric_matches_oracle(backend, dtype, atol):
    rng = np.random.default_rng(14)
    w = _weight(4, 6, np.complex128, rng)
    modes = (4, 2, 4)
    conv = CompiledSpectralConv(w, modes, symmetric=True)
    x = _x((2, 4, 8, 4, 16), dtype, rng)
    y = conv(x)
    assert y.dtype == dtype
    ref = _sym_oracle_nd(x.astype(np.float64), w, modes)
    np.testing.assert_allclose(y, ref, atol=atol)
    staged = conv.inverse_spectrum(
        conv.step_spectrum(conv.forward_spectrum(x)), x.shape[2:]
    )
    np.testing.assert_allclose(staged, ref, atol=atol)


def test_executor_3d_reanalysis_is_the_round_trip(backend):
    """The N-D Hermitian projection is exactly the skipped inverse/forward
    pair on an arbitrary (non-Hermitian) output spectrum."""
    rng = np.random.default_rng(15)
    w = _weight(3, 3, np.complex128, rng)
    conv = CompiledSpectralConv(w, (3, 4, 4), symmetric=True)
    spatial = (8, 4, 16)
    yk = _x((2, 3, 3, 4, 4), np.complex128, rng)
    round_trip = conv.forward_spectrum(conv.inverse_spectrum(yk, spatial))
    np.testing.assert_allclose(
        round_trip, conv.reanalyze_spectrum(yk, spatial), atol=1e-12
    )
    assert not np.allclose(conv.reanalyze_spectrum(yk, spatial), yk)


def test_spectrum_methods_check_spatial_arity():
    rng = np.random.default_rng(16)
    w = _weight(4, 4, np.complex64, rng)
    sk = _x((2, 4, 4, 4), np.complex64, rng)
    conv = CompiledSpectralConv2D(w, 4, 4)
    for bad in (16, (16,), (16, 16, 16)):
        with pytest.raises(ValueError, match="one per spatial axis"):
            conv.inverse_spectrum(sk, bad)
    sym = CompiledSpectralConv2D(w, 4, 4, symmetric=True)
    with pytest.raises(ValueError, match="one per spatial axis"):
        sym.reanalyze_spectrum(sk, 16)
    with pytest.raises(ValueError, match="spatial shape"):
        sym.reanalyze_spectrum(sk)
    # 1-D: a bare int is the same spelling as a 1-tuple
    sym1 = CompiledSpectralConv1D(w, 4, symmetric=True)
    sk1 = _x((2, 4, 4), np.complex64, rng)
    assert _bit_equal(sym1.inverse_spectrum(sk1, 16),
                      sym1.inverse_spectrum(sk1, (16,)))
    assert _bit_equal(sym1.reanalyze_spectrum(sk1),
                      sym1.reanalyze_spectrum(sk1, 16))
    with pytest.raises(ValueError, match="one per spatial axis"):
        sym1.inverse_spectrum(sk1, (16, 16))


def test_tune_keys_pinned(tmp_path):
    """Every executor resolves the tune-store keys persisted stores were
    written under (a changed key would silently orphan tuned winners)."""
    from repro.core.autotune import Tuner, TuneStore
    from repro.fft.compiled import PlanCaches

    class Recording(Tuner):
        def tiles_for(self, key, default, candidates, measure,
                      is_valid=None, retune=False):
            keys.append(key.as_string())
            return default

    tuner = Recording(TuneStore(tmp_path / "tune.json"))
    auto = dict(plans=PlanCaches(backend="numpy"), tiles="auto", tuner=tuner)
    w = np.ones((4, 3), np.complex64)
    x1 = np.ones((5, 4, 64), np.float32)
    x2 = np.ones((5, 4, 32, 64), np.float32)
    cases = [
        (CompiledSpectralConv1D(w, 16, **auto), x1,
         "fused1d|64|m16|cin4|cout3|ktb8|b32|complex64|numpy"),
        # the 2-D fused stage tunes its batch * modes_x = 40 pencils
        (CompiledSpectralConv2D(w, 8, 16, **auto), x2,
         "fused1d|64|m16|cin4|cout3|ktb8|b64|complex64|numpy"),
        (CompiledSpectralConv1D(w, 16, symmetric=True, **auto), x1,
         "sym1d|64|m16|cin4|cout3|ktb8|b32|complex64|numpy"),
        (CompiledSpectralConv2D(w, 8, 16, symmetric=True, **auto), x2,
         "sym2d|32x64|m8x16|cin4|cout3|ktb8|b32|complex64|numpy"),
    ]
    for conv, x, key in cases:
        keys = []
        conv(x)
        assert keys == [key]
        keys = []
        conv.resolve_tiles(5, x.shape[2:])
        assert keys == [key]
    # warm_tiles walks the pencil-bucket ladder of the fused 2-D stage
    keys = []
    fused2d = cases[1][0]
    assert fused2d.warm_tiles(5, (32, 64)) == 2
    assert [k.split("|")[6] for k in keys] == ["b32", "b64"]

