"""Differentiable modules: Dense, GELU, and the N-D SpectralConv layer
(with its SpectralConv1d/2d constructors).

Gradients follow the PyTorch convention for complex parameters: the stored
gradient of a complex tensor ``z`` is ``dL/dRe(z) + i * dL/dIm(z)``, so
for a C-linear map ``y = A x`` the input cotangent is ``A^H g_y`` and the
weight cotangent is ``conj(x) g_y``.  The adjoint of "truncate-to-modes
after FFT" is "zero-pad then (unnormalised) inverse FFT", which is why the
backward pass below reuses the *pruned* transforms of
:mod:`repro.fft.pruned` — TurboFNO's built-in truncation/padding
accelerates training's backward pass for free.

All forward spectral math goes through this package's own FFTs, never
``numpy.fft``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.compiled import (
    CompiledSpectralConv,
    _axis_letter,
    _check_half_spectrum,
    _check_modes,
    _reanalyze_symmetric,
    _spatial_dims,
)
from repro.fft.pruned import padded_ifft_auto as _pad_ifft
from repro.fft.pruned import truncated_fft_auto as _trunc_fft
from repro.fft.real import padded_irfft, truncated_rfft
from repro.fft.stockham import is_power_of_two

__all__ = [
    "Parameter", "Module", "Dense", "GELU",
    "SpectralConv", "SpectralConv1d", "SpectralConv2d",
]

#: Einsum subscripts of the kept-mode axes, one letter per spatial axis
#: (``b``/``i``/``o`` are batch and channels): 1-D contracts
#: ``"bim,iom->bom"``, 2-D ``"bimn,iomn->bomn"``.
_MODE_LETTERS = "mnpqrstuvw"


class Parameter:
    """A learnable array with an accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.value.shape})"


class Module:
    """Minimal layer interface: ``forward`` caches, ``backward`` consumes.

    ``backward`` must be called after ``forward`` with the cotangent of the
    forward output; it accumulates parameter gradients and returns the
    cotangent of the forward input.
    """

    def parameters(self) -> Iterator[Parameter]:
        for v in vars(self).values():
            if isinstance(v, Parameter):
                yield v
            elif isinstance(v, Module):
                yield from v.parameters()
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, Module):
                        yield from item.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Module):
    """Pointwise channel mixing: ``y[b, o, *s] = sum_i x[b, i, *s] W[i, o] + b[o]``.

    Works on any number of trailing spatial axes; this is both the FNO's
    lifting/projection layer and the per-block pointwise residual path.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 name: str = "dense") -> None:
        if c_in <= 0 or c_out <= 0:
            raise ValueError("channel counts must be positive")
        scale = math.sqrt(2.0 / (c_in + c_out))
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(c_in, c_out)), f"{name}.weight"
        )
        self.bias = Parameter(np.zeros(c_out), f"{name}.bias")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 2 or x.shape[1] != self.weight.value.shape[0]:
            raise ValueError(
                f"expected (batch, {self.weight.value.shape[0]}, ...), got {x.shape}"
            )
        self._x = x
        y = np.einsum("bi...,io->bo...", x, self.weight.value)
        bias = self.bias.value.reshape(1, -1, *([1] * (x.ndim - 2)))
        return y + bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        spatial_axes = tuple(range(2, x.ndim))
        x2 = x.reshape(x.shape[0], x.shape[1], -1)
        g2 = grad.reshape(grad.shape[0], grad.shape[1], -1)
        self.weight.grad += np.einsum("bis,bos->io", x2, g2)
        self.bias.grad += grad.sum(axis=(0, *spatial_axes))
        return np.einsum("bo...,io->bi...", grad, self.weight.value)


class GELU(Module):
    """GELU activation (tanh approximation, as in the FNO reference code)."""

    _C = math.sqrt(2.0 / math.pi)

    def __init__(self) -> None:
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = self._C * (x + 0.044715 * x**3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        inner = self._C * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        d_inner = self._C * (1.0 + 3 * 0.044715 * x**2)
        dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
        return grad * dgelu


def _init_spectral_weight(
    c_in: int, c_out: int, mode_shape: tuple[int, ...],
    per_mode: bool, rng: np.random.Generator,
) -> np.ndarray:
    scale = 1.0 / (c_in * c_out)
    shape = (c_in, c_out, *mode_shape) if per_mode else (c_in, c_out)
    re = rng.uniform(-scale, scale, size=shape)
    im = rng.uniform(-scale, scale, size=shape)
    return (re + 1j * im).astype(np.complex128)



class SpectralConv(Module):
    """N-D spectral convolution (the paper's Fourier layer) on real
    ``(batch, C_in, *spatial)`` input, keyed on the ``modes`` tuple —
    one kept-mode count per spatial axis.

    Forward: ``y = Re(iFFT(pad(W * truncate(FFT(x)))))`` with the paper's
    filter convention: the first ``modes[a]`` bins of the C2C transform
    along every axis ``a``, a low-frequency corner.  The rank appears
    only as loops over the axes, in the order
    :class:`repro.core.compiled.CompiledSpectralConv` uses: forward
    transforms leading axes first, inverse transforms the last axis
    first.

    Parameters
    ----------
    per_mode:
        ``True`` (default) gives the original FNO's independent weight
        matrix per kept mode; ``False`` shares one ``(C_in, C_out)`` matrix
        across modes — the single tall-and-skinny CGEMM the paper
        benchmarks (§3.1), which lets the forward pass dispatch to the
        compiled executor (:class:`~repro.core.compiled.CompiledSpectralConv`):
        the fused FFT-CGEMM-iFFT dataflow when every axis keeps a
        power-of-two mode count (the pruned split), else the split step
        below, numerically identical.
    symmetric:
        ``False`` (default) is the paper's filter: keep the *first*
        modes of the C2C transform along every axis.  ``True`` is the
        original FNO's rfft-style convention: the last axis transforms
        through the compiled packed-real R2C plan (the kept low modes
        are Hermitian-mirrored into the negative frequencies), each
        leading axis keeps the paper's first-bins C2C filter, and the
        output is reconstructed with the C2R inverse — a genuine
        real->real low-pass operator whose half spectrum is consumed
        end-to-end.  Requires ``modes[-1] <= spatial[-1] / 2``.  With
        ``per_mode=False`` the forward pass runs the symmetric executor,
        fed the spectrum already cached for backward.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        modes: tuple[int, ...],
        rng: np.random.Generator,
        per_mode: bool = True,
        symmetric: bool = False,
        name: str = "spectral",
    ) -> None:
        modes = tuple(int(m) for m in modes)
        if not modes or min(c_in, c_out, *modes) <= 0:
            raise ValueError("channels and modes must be positive")
        self.c_in = c_in
        self.c_out = c_out
        self.modes = modes
        self.ndim = len(modes)
        self.per_mode = per_mode
        self.symmetric = symmetric
        self.weight = Parameter(
            _init_spectral_weight(c_in, c_out, modes, per_mode, rng),
            f"{name}.weight",
        )
        corner = _MODE_LETTERS[:self.ndim]
        w = f"io{corner}" if per_mode else "io"
        self._apply = f"bi{corner},{w}->bo{corner}"
        self._grad_w = f"bi{corner},bo{corner}->{w}"
        self._grad_x = f"bo{corner},{w}->bi{corner}"
        # (array axis, kept modes) of the leading spatial axes.
        self._lead = tuple(enumerate(modes[:-1], start=2))
        self._xk: np.ndarray | None = None
        self._spatial: tuple[int, ...] = ()

    def _check_spatial(self, spatial: tuple) -> None:
        _check_modes(self.modes, spatial)
        if self.symmetric:
            _check_half_spectrum(self.modes, spatial)

    def _analyze(self, x: np.ndarray) -> np.ndarray:
        """First-bins pruned C2C along every axis, leading axes first."""
        for axis, m in enumerate(self.modes, start=2):
            x = _trunc_fft(x, m, axis=axis)
        return x

    def _synthesize(self, yk: np.ndarray, spatial: tuple) -> np.ndarray:
        """Zero-padded pruned C2C inverse along every axis, last first."""
        for axis in reversed(range(self.ndim)):
            yk = _pad_ifft(yk, spatial[axis], axis=axis + 2)
        return yk

    # -- spectral-step split --------------------------------------------
    # The three stages of the Fourier layer as separate entry points, so
    # a spectrum-resident rollout (repro.api.Session.rollout) can hand
    # the truncated spectrum from one step to the next without paying
    # the inverse/forward transform pair in between.  ``forward`` is
    # exactly ``from_spectrum(apply_modes(spectrum(x)), spatial)`` on
    # the non-executor paths.

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        """Truncated ``(batch, C_in, *modes)`` spectrum corner of ``x``
        under this layer's convention; raises ``ValueError`` for a
        geometry :meth:`forward` rejects."""
        if x.ndim != self.ndim + 2 or x.shape[1] != self.c_in:
            axes = ", ".join(_axis_letter(a).upper() for a in range(self.ndim))
            raise ValueError(
                f"expected (batch, {self.c_in}, {axes}), got {x.shape}"
            )
        self._check_spatial(x.shape[2:])
        if not self.symmetric:
            return self._analyze(x)
        xk = truncated_rfft(x, self.modes[-1], axis=-1)
        for axis, m in self._lead:
            xk = _trunc_fft(xk, m, axis=axis)
        # contiguous copy: a leading-axis truncation can return a view
        # pinning a larger spectrum until backward
        return np.ascontiguousarray(xk)

    def apply_modes(self, xk: np.ndarray) -> np.ndarray:
        """Apply the layer weight to a truncated spectrum corner — the
        step that stays resident in the spectrum across rollout steps."""
        return np.einsum(self._apply, xk, self.weight.value)

    def from_spectrum(self, yk: np.ndarray, spatial) -> np.ndarray:
        """Spatial-domain output from a truncated output spectrum;
        ``spatial`` is the output's spatial shape (a bare int for
        1-D)."""
        spatial = _spatial_dims(spatial, self.ndim)
        self._check_spatial(spatial)
        if not self.symmetric:
            return self._synthesize(yk, spatial).real
        for axis in reversed(range(self.ndim - 1)):
            yk = _pad_ifft(yk, spatial[axis], axis=axis + 2)
        return padded_irfft(yk, spatial[-1], axis=-1)

    def reanalyze_spectrum(self, yk: np.ndarray, spatial=None) -> np.ndarray:
        """The output spectrum corner as the next step's ``spectrum``
        would see it, with the executor's arguments
        (:meth:`repro.core.compiled.CompiledSpectralConv.reanalyze_spectrum`;
        a 1-D layer may omit ``spatial``).  The skipped C2R/R2C pair
        along the last axis projects its DC plane real in the spatial
        domain; re-analysis along the leading axes then
        Hermitian-symmetrises that plane's spectrum
        (:func:`repro.core.compiled.project_hermitian`).  Only the
        symmetric convention has a spectrum-resident form — the
        non-symmetric layer takes ``.real`` in the spatial domain, which
        mixes every bin."""
        if not self.symmetric:
            raise ValueError(
                f"non-symmetric {type(self).__name__} has no "
                "spectrum-resident reanalysis (the spatial .real "
                "projection mixes bins); use the exact rollout profile"
            )
        return _reanalyze_symmetric(yk, spatial, self.ndim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        xk = self.spectrum(x)  # validates the geometry
        self._xk = xk
        self._spatial = x.shape[2:]
        if not self.per_mode and (
            self.symmetric or all(is_power_of_two(m) for m in self.modes)
        ):
            # One CGEMM shared across modes -> the compiled executor.
            # Built per call: the optimizer mutates the weight buffer
            # between steps, so held staging would go stale.
            conv = CompiledSpectralConv(self.weight.value, self.modes,
                                        symmetric=self.symmetric)
            y = conv(x, xk_trunc=xk) if self.symmetric else conv(x)
            return np.ascontiguousarray(y.real)
        return self.from_spectrum(self.apply_modes(xk), self._spatial)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._xk is None:
            raise RuntimeError("backward called before forward")
        spatial = self._spatial
        if self.symmetric:
            # y = irfft_last(ifft_lead(pad(yk))) => the last-axis adjoint
            # doubles every kept bin except DC (it is never mirrored),
            # each leading axis's is the plain 1/N FFT.
            g_yk = truncated_rfft(grad, self.modes[-1], axis=-1)
            g_yk *= 2.0 / spatial[-1]
            g_yk[..., 0] *= 0.5
            for axis, m in self._lead:
                g_yk = _trunc_fft(g_yk, m, axis=axis) / spatial[axis - 2]
        else:
            # y = Re(ifft(pad(yk))) => g_yk = truncate(fft(grad)) / N.
            g_yk = self._analyze(grad) / math.prod(spatial)
        self.weight.grad += np.einsum(self._grad_w, np.conj(self._xk), g_yk)
        g_xk = np.einsum(self._grad_x, g_yk, np.conj(self.weight.value))
        if not self.symmetric:
            # xk = truncate(fft(x)), x real => g_x = Re(N * ifft(pad(g_xk))).
            return self._synthesize(g_xk, spatial).real * math.prod(spatial)
        # xk = fft_lead(rfft_last(x))[kept corner]: adjoint = N * ifft on
        # each padded leading axis, then the halved-bins C2R inverse * N.
        for axis in reversed(range(self.ndim - 1)):
            n = spatial[axis]
            g_xk = _pad_ifft(g_xk, n, axis=axis + 2) * n
        g_xk *= 0.5
        g_xk[..., 0] *= 2.0
        return padded_irfft(g_xk, spatial[-1], axis=-1) * spatial[-1]


class SpectralConv1d(SpectralConv):
    """1-D spectral convolution: ``modes`` kept bins of ``(batch, C_in,
    X)`` input (see :class:`SpectralConv`)."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        modes: int,
        rng: np.random.Generator,
        per_mode: bool = True,
        symmetric: bool = False,
        name: str = "spectral1d",
    ) -> None:
        super().__init__(c_in, c_out, (modes,), rng, per_mode, symmetric,
                         name)


class SpectralConv2d(SpectralConv):
    """2-D spectral convolution: a ``modes_x x modes_y`` kept corner of
    ``(batch, C_in, X, Y)`` input (see :class:`SpectralConv`; symmetric
    filtering needs ``modes_y <= Y/2``)."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        modes_x: int,
        modes_y: int,
        rng: np.random.Generator,
        per_mode: bool = True,
        symmetric: bool = False,
        name: str = "spectral2d",
    ) -> None:
        super().__init__(c_in, c_out, (modes_x, modes_y), rng, per_mode,
                         symmetric, name)
