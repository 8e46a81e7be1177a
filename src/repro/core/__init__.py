"""TurboFNO core: the paper's contribution.

* :mod:`repro.core.config` — problem descriptions (1D/2D Fourier layers)
  and the TurboFNO configuration (truncation, kernel parameters, fusion
  stage, model penalties).
* :mod:`repro.core.stages` — the optimization ladder of Table 2
  (A: FFT pruning/truncation/padding, B: +fused FFT-CGEMM, C: +fused
  CGEMM-iFFT, D: fully fused FFT-CGEMM-iFFT, E: best-of).
* :mod:`repro.core.fft_variant` — the k-loop FFT variant: the second FFT
  stage re-interpreted along the hidden dimension so a thread block's
  iteration order matches CGEMM's k-loop (Figure 6).
* :mod:`repro.core.fused` — numerically exact fused operators (NumPy
  execution of the single-kernel dataflow).
* :mod:`repro.core.compiled` — build-once/execute-many spectral-conv
  executors over the compiled FFT plan layer: one
  :class:`~repro.core.compiled.CompiledSpectralConv` keyed on the modes
  tuple (pruned FFTs along the leading axes, the fused 1-D k-loop along
  the last; ``CompiledSpectralConv1D``/``2D`` are its constructors),
  byte-identical to the functional path; :mod:`repro.core.legacy`
  preserves the original loops as oracle and benchmark baseline.
* :mod:`repro.core.autotune` — plan-time tile autotuning for the
  compiled executors (candidate grids seeded by an analytic
  cache-footprint model, a persistent versioned tune store, and the
  in-session :class:`~repro.core.autotune.Tuner`).
* :mod:`repro.core.dtypes` — the shared complex-precision policy.
* :mod:`repro.core.spectral` — the public spectral-convolution API with
  selectable engine.
* :mod:`repro.core.pipeline_model` — compiles every stage (and the
  PyTorch baseline) into :class:`repro.gpu.timeline.Pipeline` kernel
  sequences; this is what regenerates the paper's figures.
"""

from repro.core.autotune import Tiles, Tuner, TuneStore, default_tuner
from repro.core.compiled import (
    CompiledSpectralConv,
    CompiledSpectralConv1D,
    CompiledSpectralConv2D,
    compile_spectral_conv,
)
from repro.core.config import FNO1DProblem, FNO2DProblem, TurboFNOConfig
from repro.core.dtypes import complex_dtype_for
from repro.core.fused import (
    fused_fft_gemm_ifft_1d,
    fused_fft_gemm_ifft_2d,
)
from repro.core.pipeline_model import build_pipeline_1d, build_pipeline_2d
from repro.core.spectral import spectral_conv_1d, spectral_conv_2d
from repro.core.stages import FusionStage

__all__ = [
    "FNO1DProblem",
    "FNO2DProblem",
    "TurboFNOConfig",
    "FusionStage",
    "spectral_conv_1d",
    "spectral_conv_2d",
    "fused_fft_gemm_ifft_1d",
    "fused_fft_gemm_ifft_2d",
    "CompiledSpectralConv",
    "CompiledSpectralConv1D",
    "CompiledSpectralConv2D",
    "compile_spectral_conv",
    "Tiles",
    "Tuner",
    "TuneStore",
    "default_tuner",
    "complex_dtype_for",
    "build_pipeline_1d",
    "build_pipeline_2d",
]
