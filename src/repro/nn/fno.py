"""FNO models: lift -> Fourier blocks -> projection (Figure 1a).

Each Fourier block computes ``GELU(SpectralConv(v) + Dense(v))`` — the
spectral path plus the pointwise linear residual path of the original FNO.
The last block omits the activation, then a two-layer pointwise head
projects back to the output channels.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import GELU, Dense, Module, SpectralConv1d, SpectralConv2d

__all__ = ["FNO1d", "FNO2d"]


class _FourierBlock(Module):
    """Spectral path + pointwise residual path (+ optional GELU)."""

    def __init__(self, spectral: Module, pointwise: Dense, activate: bool) -> None:
        self.spectral = spectral
        self.pointwise = pointwise
        self.act = GELU() if activate else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.spectral(x) + self.pointwise(x)
        return self.act(y) if self.act is not None else y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.act is not None:
            grad = self.act.backward(grad)
        return self.spectral.backward(grad) + self.pointwise.backward(grad)


class _FNOBase(Module):
    """Shared lift/blocks/projection plumbing for FNO1d and FNO2d."""

    def __init__(self, lift: Dense, blocks: list[Module], proj1: Dense,
                 proj2: Dense) -> None:
        self.lift = lift
        self.blocks = blocks
        self.proj1 = proj1
        self.proj_act = GELU()
        self.proj2 = proj2

    def forward(self, x: np.ndarray) -> np.ndarray:
        v = self.lift(x)
        for block in self.blocks:
            v = block(v)
        return self.proj2(self.proj_act(self.proj1(v)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.proj1.backward(self.proj_act.backward(self.proj2.backward(grad)))
        for block in reversed(self.blocks):
            g = block.backward(g)
        return self.lift.backward(g)

    def num_parameters(self) -> int:
        """Total scalar parameter count (complex counts as two)."""
        total = 0
        for p in self.parameters():
            n = int(np.prod(p.value.shape))
            total += 2 * n if np.iscomplexobj(p.value) else n
        return total

    def spectral_layers(self):
        """The spectral convolution of each Fourier block, in order —
        the split step (:meth:`SpectralConv.spectrum` /
        ``apply_modes`` / ``from_spectrum``) a spectrum-resident loop
        hands state across."""
        for block in self.blocks:
            yield block.spectral

    @property
    def shape_preserving(self) -> bool:
        """True when the model maps a field to one of the same shape —
        the precondition :meth:`repro.api.Session.rollout` checks before
        feeding the output of one step back in as the next input."""
        return (self.lift.weight.value.shape[0]
                == self.proj2.weight.value.shape[1])


class FNO1d(_FNOBase):
    """1-D Fourier Neural Operator on ``(batch, in_channels, X)`` input.

    Parameters
    ----------
    in_channels / out_channels:
        Input/output field channels (e.g. 2 for value + coordinate).
    width:
        Hidden dimension (the paper's K; 64-128 typical).
    modes:
        Kept low-frequency bins per spectral layer.
    depth:
        Number of Fourier blocks.
    per_mode:
        Spectral weight convention; ``False`` is the paper's shared-matrix
        CGEMM form (executes through the fused TurboFNO operator).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        width: int = 32,
        modes: int = 16,
        depth: int = 4,
        proj_width: int = 64,
        per_mode: bool = True,
        seed: int = 0,
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        rng = np.random.default_rng(seed)
        # Each block draws its spectral weight before its pointwise one:
        # the draw order a seed reproduces.
        blocks: list[Module] = [
            _FourierBlock(
                SpectralConv1d(width, width, modes, rng, per_mode=per_mode),
                Dense(width, width, rng, name="block.pointwise"),
                activate=(i < depth - 1),
            )
            for i in range(depth)
        ]
        super().__init__(
            Dense(in_channels, width, rng, name="lift"),
            blocks,
            Dense(width, proj_width, rng, name="proj1"),
            Dense(proj_width, out_channels, rng, name="proj2"),
        )
        self.modes = modes
        self.width = width


class FNO2d(_FNOBase):
    """2-D Fourier Neural Operator on ``(batch, in_channels, X, Y)`` input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        width: int = 24,
        modes_x: int = 8,
        modes_y: int = 8,
        depth: int = 4,
        proj_width: int = 64,
        per_mode: bool = True,
        seed: int = 0,
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        rng = np.random.default_rng(seed)
        blocks: list[Module] = [
            _FourierBlock(
                SpectralConv2d(width, width, modes_x, modes_y, rng,
                               per_mode=per_mode),
                Dense(width, width, rng, name="block.pointwise"),
                activate=(i < depth - 1),
            )
            for i in range(depth)
        ]
        super().__init__(
            Dense(in_channels, width, rng, name="lift"),
            blocks,
            Dense(width, proj_width, rng, name="proj1"),
            Dense(proj_width, out_channels, rng, name="proj2"),
        )
        self.modes_x = modes_x
        self.modes_y = modes_y
        self.width = width
