"""Trainable Fourier Neural Operator substrate.

The paper's workload is the FNO of Li et al. [23]; this package provides a
NumPy implementation complete enough to *train* on the PDE workloads the
paper's introduction motivates (fluid dynamics, Darcy flow, Burgers), so
the fused spectral convolution is exercised end-to-end rather than in
isolation.

Everything is hand-differentiated — no autograd framework exists in this
environment — and every backward pass is finite-difference checked in the
test suite.

* :mod:`repro.nn.modules` — Dense (pointwise channel mixing), GELU, and
  SpectralConv, one spectral layer for any number of spatial axes keyed
  on its ``modes`` tuple (SpectralConv1d/2d are its 1-D/2-D
  constructors).  It supports both the original FNO's per-mode weights
  and the paper's shared-weight CGEMM formulation, and both frequency
  conventions (the paper's first-``modes`` bins, or the original FNO's
  symmetric ``±modes``).
* :mod:`repro.nn.fno` — FNO1d / FNO2d models (lift, Fourier blocks with
  pointwise residual paths, projection head).
* :mod:`repro.nn.optim` — Adam and SGD with complex-parameter support.
* :mod:`repro.nn.losses` — MSE and relative-L2 losses with gradients.
* :mod:`repro.nn.trainer` — a minimal minibatch training loop.
"""

from repro.nn.fno import FNO1d, FNO2d
from repro.nn.losses import mse_loss, relative_l2_loss
from repro.nn.modules import (
    GELU,
    Dense,
    Module,
    SpectralConv,
    SpectralConv1d,
    SpectralConv2d,
)
from repro.nn.optim import SGD, Adam
from repro.nn.schedulers import CosineLR, StepLR, clip_grad_norm
from repro.nn.trainer import TrainingHistory, train

__all__ = [
    "Module",
    "Dense",
    "GELU",
    "SpectralConv",
    "SpectralConv1d",
    "SpectralConv2d",
    "FNO1d",
    "FNO2d",
    "Adam",
    "SGD",
    "StepLR",
    "CosineLR",
    "clip_grad_norm",
    "mse_loss",
    "relative_l2_loss",
    "train",
    "TrainingHistory",
]
