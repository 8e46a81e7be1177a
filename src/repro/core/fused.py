"""Numerically exact execution of the fused FFT-CGEMM-iFFT dataflow.

These functions walk the *single-kernel* dataflow of Figure 9 — tile the
output, iterate the hidden dimension as a k-loop, transform each k-slice
with the built-in-truncated FFT, accumulate the CGEMM fragments, and run
the inverse FFT as the epilogue — using NumPy arrays in place of shared
memory.  They produce bit-for-bit the same mathematics as the staged
PyTorch pipeline (:mod:`repro.baselines.pytorch_fno`), which is exactly
the claim the paper's fused kernel makes: same operator, one kernel.

Since the compiled-executor refactor they are thin wrappers over
:mod:`repro.core.compiled`: each call stages the weight panels once
(the cast is hoisted out of the k-loops) and executes through the global
FFT plan cache, producing byte-identical output to the frozen legacy
loops in :mod:`repro.core.legacy`.  Hold a
:class:`~repro.core.compiled.CompiledSpectralConv` executor to amortise
the staging itself across calls.

The pruned transforms (:mod:`repro.fft.pruned`) mean no full-length
spectrum is ever materialised, mirroring the kernel's property that
truncated frequencies never exist anywhere.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import (
    _DEFAULT_K_TB,
    _DEFAULT_SIGNAL_TILE,
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    _check_inputs,
    _StagedFused1D,
)
from repro.core.dtypes import complex_dtype_for
from repro.fft.compiled import panel_contract
from repro.fft.pruned import truncated_ifft

__all__ = [
    "fused_fft_gemm_1d",
    "fused_gemm_ifft_1d",
    "fused_fft_gemm_ifft_1d",
    "fused_fft_gemm_ifft_2d",
]

def fused_fft_gemm_1d(
    x: np.ndarray,
    weight: np.ndarray,
    modes: int,
    k_tb: int = _DEFAULT_K_TB,
) -> np.ndarray:
    """Stage B dataflow: FFT fused into the CGEMM k-loop.

    Input ``(batch, C_in, X)``; returns the truncated-frequency product
    ``(batch, C_out, modes)`` — what the fused kernel would hand to a
    separate iFFT kernel.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    _check_inputs(x, weight, 3)
    staged = _StagedFused1D(
        weight, modes, x.shape[2], k_tb, _DEFAULT_SIGNAL_TILE,
        complex_dtype_for(x.dtype),
    )
    return staged.run_fft_gemm(x)


def fused_gemm_ifft_1d(
    xk_low: np.ndarray,
    weight: np.ndarray,
    dim_x: int,
    k_tb: int = _DEFAULT_K_TB,
) -> np.ndarray:
    """Stage C dataflow: iFFT as the CGEMM epilogue.

    Input is the already-truncated spectrum ``(batch, C_in, modes)``;
    returns the spatial output ``(batch, C_out, X)``.  The zero-padding
    never materialises: the epilogue's pruned inverse transform consumes
    the C tile straight from "shared memory".
    """
    xk_low = np.asarray(xk_low)
    weight = np.asarray(weight)
    _check_inputs(xk_low, weight, 3)
    batch, c_in, modes = xk_low.shape
    c_out = weight.shape[1]
    dtype = complex_dtype_for(xk_low.dtype)
    wc = weight.astype(dtype)  # hoisted out of the k-loop
    acc = np.zeros((batch, c_out, modes), dtype=dtype)
    for k0 in range(0, c_in, k_tb):
        k1 = min(k0 + k_tb, c_in)
        a = np.ascontiguousarray(xk_low[:, k0:k1, :], dtype=dtype)
        panel_contract(a, np.ascontiguousarray(wc[k0:k1]), acc)
    return truncated_ifft(acc, dim_x, axis=-1)


def fused_fft_gemm_ifft_1d(
    x: np.ndarray,
    weight: np.ndarray,
    modes: int,
    k_tb: int = _DEFAULT_K_TB,
    signal_tile: int = _DEFAULT_SIGNAL_TILE,
) -> np.ndarray:
    """Stage D dataflow: the fully fused 1-D spectral convolution.

    Input ``(batch, C_in, X)``; returns ``(batch, C_out, X)`` complex.
    ``signal_tile`` plays the role of the grid's M tiling: each tile of
    signals runs the complete k-loop + epilogue before the next starts,
    exactly one "thread block" at a time.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    _check_inputs(x, weight, 3)
    conv = CompiledSpectralConv1D(weight, modes, k_tb, signal_tile)
    return conv(x)


def fused_fft_gemm_ifft_2d(
    x: np.ndarray,
    weight: np.ndarray,
    modes_x: int,
    modes_y: int,
    k_tb: int = _DEFAULT_K_TB,
    signal_tile: int = _DEFAULT_SIGNAL_TILE,
) -> np.ndarray:
    """Fully fused 2-D spectral convolution (Figure 6 dataflow).

    The width FFT runs first with built-in truncation (standalone kernel);
    the height FFT + CGEMM + height iFFT execute fused over the truncated
    rows; the width iFFT reconstructs the full grid.  Input
    ``(batch, C_in, X, Y)``; returns ``(batch, C_out, X, Y)`` complex.
    """
    x = np.asarray(x)
    weight = np.asarray(weight)
    _check_inputs(x, weight, 4)
    conv = CompiledSpectralConv2D(weight, modes_x, modes_y, k_tb, signal_tile)
    return conv(x)
