"""Compiled spectral-convolution executors: build once, execute many.

The legacy fused loops (:mod:`repro.core.legacy`) re-cast the same
weight panel on every tile of every signal block and re-staged their FFT
setup per call.  A :class:`CompiledSpectralConv` executor (one class
for any number of spatial axes, keyed on the ``modes`` tuple;
:class:`CompiledSpectralConv1D` / :class:`CompiledSpectralConv2D` are
its 1-D/2-D constructors) does all of that at *build* time: weights
cast once and pre-sliced into contiguous k-panels, FFT plans resolved
from the global cache (:mod:`repro.fft.compiled`), decomposition
twiddles pre-cast, tile workspaces allocated — so each execution runs
only the k-loop arithmetic.  Outputs are byte-identical to the legacy
loops (property-tested): the executors replay the same tile/panel
accumulation order, so not a single floating-point operation changes,
only where the operands live.

The functional API (:mod:`repro.core.fused`) builds a throwaway executor
per call, which still hoists every redundant cast out of the loops; hold
an executor (or get one from ``repro.api.plan(...).compile_executor``)
to amortise the staging across calls.

Executors own mutable tile workspaces and are **not** thread-safe; share
one per thread (the plan caches underneath serialise themselves).

Every executor resolves its FFT/rfft plans from one
:class:`repro.fft.compiled.PlanCaches` set — the one passed as
``plans=``, else the set active on the building thread
(:func:`repro.fft.compiled.current_plan_caches`).  A
:class:`repro.api.Session` passes its own set, so pooled executors
carry the session's backend and never share workspaces with other
sessions; staging captures the set once per geometry.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.autotune import (
    Tiles,
    TuneKey,
    Tuner,
    batch_bucket,
    bucket_ladder,
    candidate_tiles,
    default_tuner,
    measure_seconds,
    probe_batch,
    probe_signal,
)
from repro.core.dtypes import complex_dtype_for
from repro.fft.compiled import (
    WORKSPACE_RETAIN_BYTES,
    PlanCaches,
    PrunedPartMismatchError,
    current_plan_caches,
    decomp_reduce,
    expand_mul,
    panel_contract,
    panel_gemm,
)
from repro.fft.pruned import (
    _validate_split,
    padded_ifft_auto,
    truncated_fft,
    truncated_fft_auto,
    truncated_ifft,
)
from repro.fft.stockham import _check_length
from repro.fft.twiddle import decomposition_twiddles

__all__ = [
    "CompiledSpectralConv",
    "CompiledSpectralConv1D",
    "CompiledSpectralConv2D",
    "compile_spectral_conv",
    "project_hermitian",
]

_DEFAULT_K_TB = 8
_DEFAULT_SIGNAL_TILE = 16

#: ``tiles=`` spellings accepted by the executors (besides a concrete
#: ``(signal_tile, k_tb)`` pair).
TILE_MODES = ("default", "auto")


def _check_inputs(x: np.ndarray, weight: np.ndarray, ndim: int) -> None:
    if x.ndim != ndim:
        raise ValueError(f"expected {ndim}-D input, got shape {x.shape}")
    if weight.ndim != 2:
        raise ValueError(f"weight must be (C_in, C_out), got {weight.shape}")
    if weight.shape[0] != x.shape[1]:
        raise ValueError(
            f"weight C_in={weight.shape[0]} != input channels {x.shape[1]}"
        )


class _StagedFused1D:
    """Everything a fused 1-D pass needs, staged for one (dtype, dim_x).

    Replays the exact legacy dataflow (tile loop -> k-loop -> epilogue)
    with all per-call setup hoisted: pre-cast weight panels, cached FFT
    plans for the kept-mode length, pre-cast decomposition twiddles, and
    tile-sized reusable workspaces.

    ``k_block`` widens the *staging* granularity without touching the
    arithmetic: up to ``k_block`` channels (a whole multiple of the
    accumulation width ``k_tb``) are gathered, transformed and
    decomposition-reduced in one pass, then contracted panel-by-panel in
    the canonical ``k_tb`` order.  The FFT and the decomposition reduce
    are row-independent, so any legal ``k_block`` produces byte-identical
    output — only the dispatch count and the staging working set change.

    On the C backend :meth:`run_fused` is one FFI crossing: the whole
    pass runs in the ``fused1d`` driver of ``_kernels.c``, bound once
    to this staging's weights, plan tables and its *own* workspaces
    (never a plan's shared, lock-guarded scratch).  The Python tile loop
    below is the NumPy-substrate path; both produce the same bits.
    """

    def __init__(self, weight: np.ndarray, modes: int, dim_x: int,
                 k_tb: int, signal_tile: int, dtype: np.dtype,
                 plans: PlanCaches | None = None,
                 k_block: int | None = None):
        # Same split validation (and messages) the first inner
        # truncated_fft of the legacy loop would have raised.
        if modes == dim_x:
            _check_length(dim_x)
        else:
            _validate_split(dim_x, modes, "n_keep")
        if signal_tile < 1:
            raise ValueError(
                f"signal_tile must be positive, got {signal_tile}"
            )
        c_in, c_out = weight.shape
        self.modes = modes
        self.dim_x = dim_x
        self.k_tb = k_tb
        kb = k_tb if k_block is None else k_block
        if kb < k_tb or kb % k_tb != 0:
            raise ValueError(
                f"k_block must be a whole multiple of k_tb={k_tb}, got {kb}"
            )
        self.k_block = kb
        self.signal_tile = signal_tile
        self.dtype = dtype
        self.real_dtype = np.dtype(
            np.float32 if dtype == np.complex64 else np.float64
        )
        self.c_in = c_in
        self.c_out = c_out
        self.p = dim_x // modes
        self.plans = plans if plans is not None else current_plan_caches()
        # the hoisted weight cast: once at staging, not per tile
        self.weight = _cast_weight(weight, dtype)
        self.panels = _weight_panels(self.weight, k_tb)
        # Consecutive same-width panels grouped per staging pass.  Only
        # the last panel can be ragged, so it always forms its own
        # (singleton) group and every other group is uniform-width.
        self.groups = _panel_groups(self.panels, kb // k_tb)
        self.fwd = self.plans.fft(modes, dtype, inverse=False)
        if self.p > 1:
            self.wd_f = np.ascontiguousarray(
                decomposition_twiddles(dim_x, self.p, modes).astype(dtype)
            )
        else:
            self.wd_f = None
        # The inverse side and the tile workspaces are staged lazily:
        # the forward-only stage-B pass never touches them.
        self.inv = None
        self.wd_i = None
        self._gather = None
        self._driver = None

    def _ensure_tiles(self) -> None:
        """Stage the epilogue tables and per-tile workspaces (lazily:
        only the fully fused pass needs them)."""
        if self._gather is not None:
            return
        dtype, modes = self.dtype, self.modes
        self.inv = self.plans.fft(modes, dtype, inverse=True)
        if self.p > 1:
            self.wd_i = np.ascontiguousarray(
                decomposition_twiddles(
                    self.dim_x, self.p, modes, inverse=True
                ).astype(dtype)
            )
        # Reusable ping-pong workspaces, sized for one signal tile.
        rows = self.signal_tile * max(self.k_block, self.c_out) * self.p
        self._gather = np.empty((rows, modes), dtype)
        self._fftbuf = np.empty((rows, modes), dtype)
        self._acc = np.empty((self.signal_tile, self.c_out, modes), dtype)
        self._dec = np.empty(self.signal_tile * self.k_block * modes, dtype)

    def _bound_driver(self, kernels):
        """The C ``fused1d`` driver bound to this staging (rebound only
        if the kernel library changes)."""
        driver = self._driver
        if driver is None or driver.kernels is not kernels:
            driver = kernels.bind_fused1d(
                weight=self.weight, tw_f=self.fwd.stage_table,
                tw_i=self.inv.stage_table, wd_f=self.wd_f, wd_i=self.wd_i,
                gather=self._gather, fftbuf=self._fftbuf,
                scratch=np.empty_like(self._gather), acc=self._acc,
                dec=self._dec, c_in=self.c_in, c_out=self.c_out,
                dim_x=self.dim_x, modes=self.modes,
                signal_tile=self.signal_tile, k_tb=self.k_tb,
                k_block=self.k_block,
            )
            self._driver = driver
        return driver

    # -- one signal tile ------------------------------------------------

    def _forward_group(self, x, b0, b1, group):
        """Truncated FFT of one (tile, panel-group) slice.

        Returns ``(nsub, bt, kt, modes)`` — one contiguous slab per
        accumulation panel in the group.  One gather, one FFT execution
        and one decomposition reduce cover the whole group; all three
        are row-independent, so the per-panel slabs hold exactly the
        values the panel-at-a-time path would have produced.
        """
        bt = b1 - b0
        k0, k1 = group[0][0], group[-1][1]
        nsub = len(group)
        kt = group[0][1] - group[0][0]
        p, modes = self.p, self.modes
        rows = bt * nsub * kt * p
        gat = self._gather[:rows]
        if p > 1:
            src = x[b0:b1, k0:k1, :].reshape(bt, nsub, kt, modes, p)
            gat.reshape(nsub, bt, kt, p, modes)[...] = (
                src.transpose(1, 0, 2, 4, 3)
            )
        else:
            src = x[b0:b1, k0:k1, :].reshape(bt, nsub, kt, modes)
            gat.reshape(nsub, bt, kt, modes)[...] = src.transpose(1, 0, 2, 3)
        fbuf = self._fftbuf[:rows]
        self.fwd.execute(gat, out=fbuf)
        if p > 1:
            dec = self._dec[: bt * nsub * kt * modes]
            decomp_reduce(fbuf.reshape(bt * nsub * kt, p, modes), self.wd_f,
                          dec.reshape(bt * nsub * kt, modes), kernels=None)
            return dec.reshape(nsub, bt, kt, modes)
        return fbuf.reshape(nsub, bt, kt, modes)

    def _epilogue(self, acc, out, b0, b1):
        """Pruned inverse transform of the accumulated C tile."""
        bt = b1 - b0
        p, modes, c_out = self.p, self.modes, self.c_out
        rows = bt * c_out * p
        if p > 1:
            sc = self._gather[:rows]
            expand_mul(acc.reshape(bt * c_out, modes), self.wd_i,
                       sc.reshape(bt * c_out, p, modes), kernels=None)
            y = self._fftbuf[:rows]
            self.inv.execute(sc, out=y, div_by=float(modes),
                             mul_by=float(modes / self.dim_x))
            out[b0:b1].reshape(bt, c_out, modes, p)[...] = (
                y.reshape(bt, c_out, p, modes).transpose(0, 1, 3, 2)
            )
        else:
            sc = self._gather[:rows]
            sc.reshape(bt, c_out, modes)[...] = acc
            self.inv.execute(
                sc, out=out[b0:b1].reshape(rows, modes),
                div_by=float(modes),
            )

    # -- whole passes ---------------------------------------------------

    def run_fused(self, x: np.ndarray) -> np.ndarray:
        """Stage D: the fully fused FFT -> CGEMM -> iFFT pass."""
        self._ensure_tiles()
        batch = x.shape[0]
        out = np.empty((batch, self.c_out, self.dim_x), self.dtype)
        kernels = self.plans.kernels()
        if kernels is not None:
            if x.dtype != self.dtype and x.dtype != self.real_dtype:
                x = x.astype(self.dtype)
            self._bound_driver(kernels)(np.ascontiguousarray(x), out)
            return out
        for b0 in range(0, batch, self.signal_tile):
            b1 = min(b0 + self.signal_tile, batch)
            acc = self._acc[: b1 - b0]
            acc[...] = 0
            for group in self.groups:
                a = self._forward_group(x, b0, b1, group)
                for s, (k0, k1, wp) in enumerate(group):
                    panel_contract(a[s], wp, acc, kernels=None)
            self._epilogue(acc, out, b0, b1)
        return out

    def run_fft_gemm(self, x: np.ndarray) -> np.ndarray:
        """Stage B: FFT fused into the k-loop, full batch per panel."""
        batch = x.shape[0]
        acc = np.zeros((batch, self.c_out, self.modes), self.dtype)
        p, modes = self.p, self.modes
        for (k0, k1, wp) in self.panels:
            kt = k1 - k0
            rows = batch * kt * p
            gat = np.empty((rows, modes), self.dtype)
            if p > 1:
                src = x[:, k0:k1, :].reshape(batch, kt, modes, p)
                gat.reshape(batch, kt, p, modes)[...] = src.transpose(0, 1, 3, 2)
            else:
                gat.reshape(batch, kt, modes)[...] = x[:, k0:k1, :]
            fbuf = self.fwd.execute(gat)
            if p > 1:
                a = np.empty((batch, kt, modes), self.dtype)
                decomp_reduce(fbuf.reshape(batch * kt, p, modes), self.wd_f,
                              a.reshape(batch * kt, modes),
                              kernels=self.plans.kernels())
            else:
                a = fbuf.reshape(batch, kt, modes)
            panel_contract(a, wp, acc, kernels=self.plans.kernels())
        return acc


def _cast_weight(weight: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The (C_in, C_out) weight cast once to the working dtype, C-order."""
    return np.ascontiguousarray(weight, dtype=dtype)


def _weight_panels(wc: np.ndarray, k_tb: int):
    """Contiguous k-panels (row-slice views) of a cast weight matrix."""
    c_in = wc.shape[0]
    return [
        (k0, min(k0 + k_tb, c_in), wc[k0:min(k0 + k_tb, c_in)])
        for k0 in range(0, c_in, k_tb)
    ]


def _panel_groups(panels, panels_per_group: int):
    """Chunk consecutive *same-width* panels into staging groups.

    Groups never mix widths (the single possibly-ragged tail panel ends
    up alone), so one gather/FFT pass per group can view its slab as a
    uniform ``(nsub, bt, kt, ...)`` block.
    """
    groups: list[list] = []
    cur: list = []
    for panel in panels:
        width = panel[1] - panel[0]
        if cur and (
            len(cur) >= panels_per_group
            or width != cur[0][1] - cur[0][0]
        ):
            groups.append(cur)
            cur = []
        cur.append(panel)
    if cur:
        groups.append(cur)
    return groups


def _require_part(plan, modes: int, what: str) -> None:
    """Typed guard: a staged pruned real plan must truncate to exactly
    the executor's kept modes — a disagreement means the truncation the
    CGEMM assumes and the truncation the transform performs have
    drifted apart, which the old slice-after-transform path could only
    mis-slice silently."""
    if plan.part != modes:
        raise PrunedPartMismatchError(
            f"{what}: staged plan truncates to part={plan.part} but the "
            f"executor keeps modes={modes}"
        )


def _axis_letter(axis: int) -> str:
    return "xyz"[axis] if axis < 3 else str(axis)


def _mode_name(axis: int, ndim: int) -> str:
    """How error messages name one axis's kept modes: the 1-D
    constructor's ``modes``, else ``modes_x``, ``modes_y``, ..."""
    return "modes" if ndim == 1 else f"modes_{_axis_letter(axis)}"


def _check_modes(modes: tuple, spatial: tuple) -> None:
    """No axis keeps more modes than its length (at least one is the
    executor constructor's check)."""
    for axis, (m, n) in enumerate(zip(modes, spatial)):
        if m > n:
            raise ValueError(
                f"{_mode_name(axis, len(modes))} must be in [1, {n}], "
                f"got {m}"
            )


def _check_half_spectrum(modes: tuple, spatial: tuple) -> None:
    """The symmetric convention keeps at most half the last axis, so
    the kept modes never reach its Nyquist bin."""
    if modes[-1] > spatial[-1] // 2:
        axis = len(modes) - 1
        raise ValueError(
            f"symmetric filtering needs {_mode_name(axis, len(modes))} <= "
            f"{_axis_letter(axis).upper()}/2, got {modes[-1]} on a "
            f"length-{spatial[-1]} grid"
        )


def project_hermitian(sk: np.ndarray, lead: tuple = ()) -> np.ndarray:
    """The symmetric convention's inverse/forward round trip, as a
    spectrum-resident map on a kept-modes corner.

    ``sk`` is ``(..., m_1, ..., m_L, m_last)`` and ``lead`` holds the
    padded lengths ``(n_1, ..., n_L)`` of the leading (first-bins C2C)
    axes.  Along the last axis the C2R/R2C pair projects the DC plane
    real; re-analysing that now-real plane along the leading axes
    Hermitian-symmetrises its spectrum — ``v[k] -> (v[k] +
    conj(v[-k])) / 2`` with every index negated modulo its padded
    length — before truncating back to the kept bins.  Every other
    last-axis bin passes through untouched (kept modes never reach the
    Nyquist bin).  With no leading axes this is ``Re`` of the DC bin,
    computed directly.
    """
    sk = np.asarray(sk).copy()
    if not lead:
        sk[..., 0] = sk[..., 0].real
        return sk
    col = sk[..., 0]
    axes = range(col.ndim - len(lead), col.ndim)
    corner = (Ellipsis,) + tuple(slice(0, col.shape[a]) for a in axes)
    full = np.zeros(col.shape[:axes[0]] + tuple(lead), dtype=sk.dtype)
    full[corner] = col
    mirror = full
    for axis in axes:
        mirror = np.roll(np.flip(mirror, axis), 1, axis=axis)
    sk[..., 0] = (0.5 * (full + np.conj(mirror)))[corner]
    return sk


def _spatial_dims(spatial, ndim: int) -> tuple:
    """``spatial`` as one int per spatial axis (a bare int is the 1-D
    spelling)."""
    try:
        dims = tuple(int(n) for n in spatial)
    except TypeError:
        dims = (int(spatial),)
    if len(dims) != ndim:
        raise ValueError(
            f"spatial must have {ndim} entries (one per spatial axis), "
            f"got {spatial!r}"
        )
    return dims


def _reanalyze_symmetric(sk: np.ndarray, spatial, ndim: int) -> np.ndarray:
    """:func:`project_hermitian` of an ``ndim``-axis symmetric spectrum
    corner, its leading axes' lengths taken from the output's
    ``spatial`` shape (``None`` is accepted for 1-D, which has no
    leading axes)."""
    lead = () if spatial is None else _spatial_dims(spatial, ndim)[:-1]
    if len(lead) != ndim - 1:
        raise ValueError(
            f"symmetric reanalysis needs the spatial shape ({ndim} entries)"
        )
    return project_hermitian(sk, lead)


def _symmetric_forward(x: np.ndarray, rfft, modes: tuple,
                       plans: PlanCaches) -> np.ndarray:
    """Truncated half spectrum of real ``x``: the pruned R2C along the
    last axis, then the first-bins pruned C2C along each leading axis."""
    rows = np.ascontiguousarray(
        x, dtype=rfft.real_dtype
    ).reshape(-1, x.shape[-1])
    sk = rfft.execute(rows).reshape(x.shape[:-1] + (modes[-1],))
    for axis, m in enumerate(modes[:-1], start=2):
        sk = truncated_fft_auto(sk, m, axis=axis, caches=plans)
    return sk


def _symmetric_inverse(yk: np.ndarray, spatial: tuple, irfft, dtype,
                       plans: PlanCaches) -> np.ndarray:
    """Real signal of a contiguous ``dtype`` half-spectrum corner:
    zero-padded C2C inverses along the leading axes (last first), then
    the pruned C2R synthesising straight from the kept modes along the
    last axis."""
    for axis in range(len(spatial) - 2, -1, -1):
        yk = np.ascontiguousarray(
            padded_ifft_auto(yk, spatial[axis], axis=axis + 2, caches=plans),
            dtype=dtype,
        )
    rows = yk.reshape(-1, yk.shape[-1])
    return irfft.execute(rows).reshape(yk.shape[:-1] + (spatial[-1],))


def _corner_gemm(sk: np.ndarray, weight: np.ndarray, k_tb: int,
                 kernels) -> np.ndarray:
    """The shared ``(C_in, C_out)`` CGEMM over the flattened kept corner
    of ``sk``, in the fused path's k-panel order (one ``panel_gemm``)."""
    batch, c_in, *corner = sk.shape
    m = math.prod(corner)
    c_out = weight.shape[1]
    acc = np.empty((batch, c_out, m), weight.dtype)
    panel_gemm(
        np.ascontiguousarray(sk, dtype=weight.dtype).reshape(batch, c_in, m),
        weight, acc, k_tb, kernels=kernels,
    )
    return acc.reshape(batch, c_out, *corner)


class _StagedSymmetric:
    """Everything a symmetric (rfft/irfft) pass needs, staged once per
    (dtype, spatial shape).

    The original-FNO filter convention on real input: the truncated half
    spectrum along the last axis straight from the cached pruned-R2C
    plan (truncation fused into the packed-real decomposition — the
    discarded bins are never recombined), the paper's first-bins pruned
    C2C along each leading axis, one shared CGEMM over the flattened
    kept corner (the fused path's k-panel accumulation, in one
    ``panel_gemm`` call), then the inverse chain in reverse order —
    pruned C2C inverses along the leading axes and the pruned C2R plan
    synthesising from exactly the kept modes.  The half spectrum is
    consumed end-to-end, never Hermitian-completed and never
    materialised beyond the kept bins.

    On the C backend, a pass over one spatial axis whose pruned plans
    both run their ``decomp`` strategy (every ``modes <= X/4``) is one
    FFI crossing: the ``sym1d`` driver of ``_kernels.c`` runs pruned
    R2C -> ``panel_gemm`` -> pruned C2R over the batch tiles, bound
    once to this staging's weight, both plans' tables and its *own*
    workspaces (never a plan's lock-guarded ones).  Everything else —
    more axes, a passed ``xk_trunc``, the ``slice``/``pad`` strategies,
    the NumPy backend — runs the plan chain below, with the same bits.
    """

    def __init__(self, weight: np.ndarray, modes: tuple, spatial: tuple,
                 k_tb: int, dtype: np.dtype,
                 plans: PlanCaches | None = None,
                 batch_tile: int = 0):
        for n in spatial:
            _check_length(n)
        _check_half_spectrum(modes, spatial)
        if batch_tile < 0:
            raise ValueError(
                f"batch_tile must be >= 0, got {batch_tile}"
            )
        self.modes = modes
        self.dtype = dtype
        self.batch_tile = batch_tile  # 0 = whole batch (the default)
        self.k_tb = k_tb
        self.c_in, self.c_out = weight.shape
        self.plans = plans if plans is not None else current_plan_caches()
        self.weight = _cast_weight(weight, dtype)
        self.rfft = self.plans.pruned_rfft(spatial[-1], modes[-1], dtype)
        self.irfft = self.plans.pruned_irfft(spatial[-1], modes[-1], dtype)
        what = f"symmetric {len(modes)}-D"
        _require_part(self.rfft, modes[-1], f"{what} forward")
        _require_part(self.irfft, modes[-1], f"{what} inverse")
        self._driver = None
        self._driver_ok = len(modes) == 1  # cleared if a plan can't bind

    def _bound_driver(self, kernels, batch: int):
        """The C ``sym1d`` driver bound to this staging, or None when the
        pass does not qualify.  Its tile is ``min(batch, batch_tile)``
        signals (the whole batch when untiled): the same blocks
        :meth:`run` walks on the plan path, so every kernel sees the
        row counts the plan chain would.  Workspaces only grow, and are
        kept only below the plans' retention bound."""
        tile = max(1, min(batch, self.batch_tile or batch))
        driver = self._driver
        if (driver is not None and driver.kernels is kernels
                and driver.tile >= tile):
            return driver
        fwd = self.rfft.bound_kernel(kernels)
        inv = self.irfft.bound_kernel(kernels)
        if fwd is None or inv is None:
            self._driver_ok = False
            return None
        m, half = self.modes[-1], self.rfft.n // 2
        ws_size = tile * (3 * max(self.c_in, self.c_out) * half
                          + (self.c_in + self.c_out) * m)
        ws = np.empty(ws_size, self.dtype)
        sk_end = tile * self.c_in * m
        acc_end = sk_end + tile * self.c_out * m
        driver = kernels.bind_sym1d(
            weight=self.weight, fwd=fwd, inv=inv, ws=ws[acc_end:],
            sk=ws[:sk_end], acc=ws[sk_end:acc_end], k_tb=self.k_tb,
            tile=tile,
        )
        if ws.nbytes <= WORKSPACE_RETAIN_BYTES:
            self._driver = driver  # else: one-shot workspaces
        return driver

    def run(self, x: np.ndarray,
            xk_trunc: np.ndarray | None = None) -> np.ndarray:
        batch, c_in = x.shape[:2]
        if xk_trunc is not None and xk_trunc.shape[-1] != self.rfft.part:
            raise PrunedPartMismatchError(
                f"xk_trunc carries {xk_trunc.shape[-1]} bins but the "
                f"staged plans truncate to part={self.rfft.part}"
            )
        if xk_trunc is not None and xk_trunc.shape != (
            batch, c_in, *self.modes
        ):
            raise ValueError(
                f"xk_trunc must have shape {(batch, c_in, *self.modes)}, "
                f"got {xk_trunc.shape}"
            )
        kernels = self.plans.kernels()
        if xk_trunc is None and self._driver_ok and kernels is not None:
            driver = self._bound_driver(kernels, batch)
            if driver is not None:
                out = np.empty((batch, self.c_out, *x.shape[2:]),
                               self.rfft.real_dtype)
                driver(np.ascontiguousarray(x, dtype=self.rfft.real_dtype),
                       out)
                return out
        tile = self.batch_tile
        if not tile or tile >= batch:
            return self._run_block(x, xk_trunc)
        # Every stage is row-independent along the batch axis, so batch
        # tiling is a pure working-set knob: the output bits match the
        # untiled pass exactly.
        out = np.empty((batch, self.c_out, *x.shape[2:]),
                       self.rfft.real_dtype)
        for b0 in range(0, batch, tile):
            b1 = min(b0 + tile, batch)
            out[b0:b1] = self._run_block(
                x[b0:b1],
                None if xk_trunc is None else xk_trunc[b0:b1],
            )
        return out

    def _run_block(self, x: np.ndarray,
                   xk_trunc: np.ndarray | None) -> np.ndarray:
        if xk_trunc is None:
            xk_trunc = _symmetric_forward(x, self.rfft, self.modes,
                                          self.plans)
        yk = _corner_gemm(xk_trunc, self.weight, self.k_tb,
                          self.plans.kernels())
        return _symmetric_inverse(yk, x.shape[2:], self.irfft, self.dtype,
                                  self.plans)


# ---------------------------------------------------------------------------
# Tile resolution (the autotune front end of the executors)
# ---------------------------------------------------------------------------

def _resolved_backend(plans: PlanCaches) -> str:
    """The substrate a tune result is keyed on (never ``"auto"``)."""
    return "ckernels" if plans.kernels() is not None else "numpy"


def _normalise_tiles(tiles, k_tb: int, symmetric: bool):
    """Validate a ``tiles=`` argument at construction time.

    Returns ``"default"``, ``"auto"`` or a concrete :class:`Tiles`.
    Concrete pairs are constrained to the bit-identical search space:
    the staging ``k_tb`` must be a whole multiple of the accumulation
    width (symmetric executors fix it there), and only the symmetric
    executors accept ``signal_tile=0`` (whole batch).
    """
    if isinstance(tiles, str):
        if tiles not in TILE_MODES:
            raise ValueError(
                f"unknown tiles mode {tiles!r}; expected one of "
                f"{TILE_MODES} or a (signal_tile, k_tb) pair"
            )
        return tiles
    if isinstance(tiles, (tuple, list)) and len(tiles) == 2:
        st, ktb = int(tiles[0]), int(tiles[1])
        if symmetric:
            if st < 0:
                raise ValueError(
                    f"signal_tile must be >= 0, got {st}"
                )
            if ktb != k_tb:
                raise ValueError(
                    f"symmetric executors accumulate at k_tb={k_tb}; "
                    f"tiles k_tb={ktb} would change the accumulation "
                    f"order (and the bits)"
                )
        else:
            if st < 1:
                raise ValueError(
                    f"signal_tile must be positive, got {st}"
                )
            if ktb < k_tb or ktb % k_tb != 0:
                raise ValueError(
                    f"tiles k_tb={ktb} must be a whole multiple of the "
                    f"accumulation width k_tb={k_tb} (anything else "
                    f"would change the accumulation order and the bits)"
                )
        return Tiles(st, ktb)
    raise ValueError(
        f"tiles must be 'default', 'auto' or a (signal_tile, k_tb) "
        f"pair, got {tiles!r}"
    )


def _autotune_fused_tiles(weight, modes, dim_x, k_tb, default, dtype,
                          plans, tuner, batch, retune=False) -> Tiles:
    """Resolve (tuning on a miss) the fused-dataflow tiles for one
    geometry: the executor's per-pencil fused stage along the last axis,
    ``batch`` counting pencils (``batch * prod(modes[:-1])`` of them)."""
    c_in, c_out = weight.shape
    p = dim_x // modes
    dtype = np.dtype(dtype)
    bucket = batch_bucket(batch)
    key = TuneKey("fused1d", (dim_x,), (modes,), c_in, c_out, k_tb,
                  bucket, dtype.name, _resolved_backend(plans))
    cands = candidate_tiles(
        batch=bucket, c_in=c_in, c_out=c_out, modes=modes, p=p,
        k_tb=k_tb, itemsize=dtype.itemsize, default=default,
    )
    pb = probe_batch(bucket)
    probe: dict = {}

    def measure(tiles: Tiles) -> float:
        if "x" not in probe:  # built once, only if a search runs
            probe["x"] = probe_signal((pb, c_in, dim_x), dtype)
        staged = _StagedFused1D(
            weight, modes, dim_x, k_tb, tiles.signal_tile, dtype,
            plans=plans, k_block=tiles.k_tb,
        )
        return measure_seconds(lambda: staged.run_fused(probe["x"]))

    return tuner.tiles_for(
        key, default, cands, measure,
        is_valid=lambda t: (
            t.signal_tile >= 1 and t.k_tb >= k_tb and t.k_tb % k_tb == 0
        ),
        retune=retune,
    )


def _autotune_symmetric_tiles(kind, weight, modes, spatial, k_tb, dtype,
                              plans, tuner, batch, build,
                              retune=False) -> Tiles:
    """Resolve the batch tile for a symmetric (half-spectrum) executor.

    Only ``signal_tile`` is searched (0 = whole batch, the seed
    behaviour); the accumulation width is pinned, so every candidate is
    byte-identical.  ``build(batch_tile)`` constructs the staged pass to
    time; the probe input is real, matching the symmetric contract.
    """
    c_in, c_out = weight.shape
    dtype = np.dtype(dtype)
    bucket = batch_bucket(batch)
    key = TuneKey(kind, tuple(spatial), tuple(modes), c_in, c_out,
                  k_tb, bucket, dtype.name, _resolved_backend(plans))
    eff_modes = 1
    for m in modes:
        eff_modes *= m
    cands = candidate_tiles(
        batch=bucket, c_in=c_in, c_out=c_out, modes=eff_modes, p=1,
        k_tb=k_tb, itemsize=dtype.itemsize, allow_untiled=True,
        k_multipliers=(1,), default=Tiles(0, k_tb),
    )
    pb = probe_batch(bucket)
    probe: dict = {}

    def measure(tiles: Tiles) -> float:
        if "x" not in probe:
            real = np.dtype(np.float32 if dtype == np.complex64
                            else np.float64)
            probe["x"] = probe_signal((pb, c_in, *spatial), real)
        staged = build(tiles.signal_tile)
        return measure_seconds(lambda: staged.run(probe["x"]))

    return tuner.tiles_for(
        key, Tiles(0, k_tb), cands, measure,
        is_valid=lambda t: t.signal_tile >= 0 and t.k_tb == k_tb,
        retune=retune,
    )


class CompiledSpectralConv:
    """Reusable executor for the fused spectral convolution, keyed on
    the ``modes`` tuple — one kept-mode count per spatial axis.

    Build once per weight matrix; call with any ``(batch, C_in,
    *spatial)`` input.  The dataflow is the paper's (Fig. 6): a
    standalone pruned FFT along each leading axis, the fused 1-D
    FFT -> CGEMM -> iFFT k-loop along the last axis over the
    ``batch * prod(modes[:-1])`` kept pencils, then pruned inverse FFTs
    back along the leading axes.  With one spatial axis the leading
    stages vanish and the raw input goes straight to the fused k-loop.
    Staging (weight casts, FFT plans, workspaces) is cached per (working
    dtype, geometry); outputs are byte-identical to
    :func:`repro.core.legacy.fused_fft_gemm_ifft_1d` / ``_2d``.

    ``symmetric=True`` selects the original FNO's rfft/irfft filter
    convention instead of the paper's first-bins C2C filter: real input,
    the half spectrum along the last axis via the cached packed-real
    plans, the first-bins C2C filter along the leading axes, and a real
    output via the C2R inverse — a genuine real->real low-pass operator.
    Requires ``modes[-1] <= spatial[-1] / 2``.

    ``tiles`` selects the tiling: ``"default"`` (the constructor's
    ``signal_tile``/``k_tb``, the seed behaviour), a concrete
    ``(signal_tile, k_tb)`` pair, or ``"auto"`` — resolve the tiles per
    (geometry, dtype, backend, batch bucket) through ``tuner`` (the
    process default when None), timing a small candidate grid on first
    use and recalling the winner from the in-memory/persistent tune
    stores afterwards.  The fused dataflow applies the tiles to its
    per-pencil stage (the 1-D computation on the pencil batch, sharing
    its tune entries), the symmetric dataflow to the whole-pass batch
    tile.  Every legal tiling is **byte-identical**: tiles move
    operands, never arithmetic.
    """

    def __init__(self, weight: np.ndarray, modes: tuple,
                 k_tb: int = _DEFAULT_K_TB,
                 signal_tile: int = _DEFAULT_SIGNAL_TILE,
                 symmetric: bool = False,
                 plans: PlanCaches | None = None,
                 tiles="default",
                 tuner: Tuner | None = None):
        weight = np.asarray(weight)
        if weight.ndim != 2:
            raise ValueError(
                f"weight must be (C_in, C_out), got {weight.shape}"
            )
        modes = tuple(int(m) for m in modes)
        if not modes or min(modes) < 1:
            raise ValueError(f"modes must be positive, got {modes}")
        self.weight = weight
        self.modes = modes
        self.ndim = len(modes)
        self.k_tb = k_tb
        self.signal_tile = signal_tile
        self.symmetric = symmetric
        self.tiles = _normalise_tiles(tiles, k_tb, symmetric)
        self._tuner = tuner
        self._plans = plans
        self._staged: dict[tuple, object] = {}
        self._spec_weights: dict = {}
        # Tuned units per signal: the fused stage runs over one pencil
        # per kept leading-axis mode, the symmetric pass whole signals.
        self._tune_fold = 1 if symmetric else math.prod(modes[:-1])
        # (axis, modes) of the leading axes, prebuilt for the per-call
        # fold/unfold loops.
        self._lead = tuple(enumerate(modes[:-1]))

    def _plan_caches(self) -> PlanCaches:
        return self._plans if self._plans is not None else current_plan_caches()

    def _spectrum_weight(self, dtype: np.dtype) -> np.ndarray:
        wc = self._spec_weights.get(dtype)
        if wc is None:
            wc = _cast_weight(self.weight, dtype)
            self._spec_weights[dtype] = wc
        return wc

    # -- spectrum-in / spectrum-out entry points (rollout serving) ------

    def forward_spectrum(self, x: np.ndarray) -> np.ndarray:
        """Truncated ``(batch, C_in, *modes)`` spectrum corner of ``x`` —
        the state a spectrum-resident rollout
        (:meth:`repro.api.Session.rollout`) keeps between steps.

        ``inverse_spectrum(step_spectrum(forward_spectrum(x)), spatial)``
        computes the same convolution as ``self(x)`` without paying the
        inverse/forward transform pair between consecutive steps.
        """
        x = np.asarray(x)
        _check_inputs(x, self.weight, self.ndim + 2)
        spatial = x.shape[2:]
        _check_modes(self.modes, spatial)
        dtype = complex_dtype_for(x.dtype)
        plans = self._plan_caches()
        if self.symmetric:
            if np.iscomplexobj(x):
                raise ValueError("symmetric executor expects real input")
            rfft = plans.pruned_rfft(spatial[-1], self.modes[-1], dtype)
            return _symmetric_forward(x, rfft, self.modes, plans)
        sk = x.astype(dtype, copy=False)
        for axis, m in enumerate(self.modes, start=2):
            sk = truncated_fft_auto(sk, m, axis=axis, caches=plans)
        return sk

    def step_spectrum(self, sk: np.ndarray) -> np.ndarray:
        """One spectral-conv application entirely in the spectrum: the
        k-panel CGEMM over the flattened kept corner, no transforms.

        ``sk`` is a ``(batch, C_in, *modes)`` truncated spectrum; returns
        the ``(batch, C_out, *modes)`` spectrum of the convolved signal —
        exactly the quantity the fused pass accumulates before its
        inverse transform.
        """
        sk = np.asarray(sk)
        c_in = self.weight.shape[0]
        if sk.shape[1:] != (c_in, *self.modes):
            raise ValueError(
                f"expected spectrum of shape (batch, "
                f"{', '.join(map(str, (c_in, *self.modes)))}), "
                f"got {sk.shape}"
            )
        dtype = complex_dtype_for(sk.dtype)
        return _corner_gemm(sk, self._spectrum_weight(dtype), self.k_tb,
                            self._plan_caches().kernels())

    def inverse_spectrum(self, sk: np.ndarray, spatial) -> np.ndarray:
        """Spatial-domain signal of a spectral state: the pruned
        zero-padded inverse along every axis (complex output, like the
        fused pass), or — symmetric — the C2R half-spectrum inverse
        (real output).  ``spatial`` is the output's spatial shape, one
        entry per axis (a bare int for 1-D)."""
        sk = np.asarray(sk)
        spatial = _spatial_dims(spatial, self.ndim)
        dtype = complex_dtype_for(sk.dtype)
        plans = self._plan_caches()
        if self.symmetric:
            _check_half_spectrum(self.modes, spatial)
            irfft = plans.pruned_irfft(spatial[-1], self.modes[-1], dtype)
            return _symmetric_inverse(np.ascontiguousarray(sk, dtype=dtype),
                                      spatial, irfft, dtype, plans)
        y = sk.astype(dtype, copy=False)
        for axis in reversed(range(self.ndim)):
            y = padded_ifft_auto(y, spatial[axis], axis=axis + 2,
                                 caches=plans)
        return y

    def reanalyze_spectrum(self, sk: np.ndarray, spatial=None) -> np.ndarray:
        """The output spectrum as the *next* step's forward analysis
        would see it — the exact linear map the skipped inverse/forward
        transform pair applies between rollout steps.  Identity for the
        paper's C2C convention (complex output, nothing discarded); the
        symmetric convention applies :func:`project_hermitian`, which
        needs the leading axes' lengths — pass ``spatial`` (a 1-D
        executor may omit it)."""
        if not self.symmetric:
            return sk
        return _reanalyze_symmetric(sk, spatial, self.ndim)

    # -- tiles ----------------------------------------------------------

    def _tiles_for(self, dtype: np.dtype, spatial: tuple, batch: int,
                   retune: bool = False) -> Tiles:
        if self.tiles == "default":
            return (Tiles(0, self.k_tb) if self.symmetric
                    else Tiles(self.signal_tile, self.k_tb))
        if isinstance(self.tiles, Tiles):
            return self.tiles
        return self._tune(dtype, spatial, batch * self._tune_fold, retune)

    def _tune(self, dtype: np.dtype, spatial: tuple, units: int,
              retune: bool = False) -> Tiles:
        """Resolve the tiles for ``units`` tuned units: pencils of the
        fused stage, or whole signals of the symmetric pass."""
        _check_modes(self.modes, spatial)
        tuner = self._tuner if self._tuner is not None else default_tuner()
        plans = self._plan_caches()
        if self.symmetric:
            return _autotune_symmetric_tiles(
                f"sym{self.ndim}d", self.weight, self.modes, spatial,
                self.k_tb, dtype, plans, tuner, units,
                build=lambda bt: _StagedSymmetric(
                    self.weight, self.modes, spatial, self.k_tb, dtype,
                    plans=plans, batch_tile=bt,
                ),
                retune=retune,
            )
        return _autotune_fused_tiles(
            self.weight, self.modes[-1], spatial[-1], self.k_tb,
            Tiles(self.signal_tile, self.k_tb), dtype, plans, tuner, units,
            retune=retune,
        )

    def resolve_tiles(self, batch: int, spatial,
                      dtype=np.float32, retune: bool = False) -> Tiles:
        """Resolve (and for ``tiles="auto"`` tune, on a miss) the tiling
        this executor will use for one ``(batch, C_in, *spatial)``
        geometry — the warmup hook :meth:`repro.api.Session.warmup`
        calls so serving never pays the tune inline.  ``retune`` forces
        a fresh timed search, overwriting memo and store."""
        return self._tiles_for(
            complex_dtype_for(dtype), _spatial_dims(spatial, self.ndim),
            batch, retune=retune,
        )

    def warm_tiles(self, batch: int, spatial, dtype=np.float32) -> int:
        """Pre-tune *every* batch bucket a stream of up to ``batch``
        signals can resolve to (micro-batching serves smaller
        concatenations than the nominal problem batch), so no serving
        call ever runs the timed search inline.  The fused dataflow
        enumerates *pencil*-batch buckets — its stage runs over
        ``batch * prod(modes[:-1])`` pencils.  Returns the number of
        resolutions; 0 unless ``tiles="auto"``."""
        if self.tiles != "auto":
            return 0
        spatial = _spatial_dims(spatial, self.ndim)
        cdt = complex_dtype_for(dtype)
        buckets = bucket_ladder(batch * self._tune_fold)
        for bucket in buckets:
            self._tune(cdt, spatial, bucket)
        return len(buckets)

    def _stage_for(self, dtype: np.dtype, spatial: tuple, tiles: Tiles):
        key = (dtype, spatial, tiles)
        staged = self._staged.get(key)
        if staged is None:
            # A geometry is validated once, when first staged (or tuned).
            _check_modes(self.modes, spatial)
            if self.symmetric:
                staged = _StagedSymmetric(
                    self.weight, self.modes, spatial, self.k_tb, dtype,
                    plans=self._plan_caches(),
                    batch_tile=tiles.signal_tile,
                )
            else:
                staged = _StagedFused1D(
                    self.weight, self.modes[-1], spatial[-1],
                    self.k_tb, tiles.signal_tile, dtype,
                    plans=self._plan_caches(), k_block=tiles.k_tb,
                )
            self._staged[key] = staged
        return staged

    def __call__(self, x: np.ndarray,
                 xk_trunc: np.ndarray | None = None) -> np.ndarray:
        """Run the convolution.  ``xk_trunc`` (symmetric mode only) is an
        optional precomputed truncated spectrum corner ``(batch, C_in,
        *modes)`` — callers that already hold it (the training layers
        cache it for backward) skip the forward transforms."""
        x = np.asarray(x)
        _check_inputs(x, self.weight, self.ndim + 2)
        spatial = x.shape[2:]
        if self.symmetric and np.iscomplexobj(x):
            raise ValueError("symmetric executor expects real input")
        if xk_trunc is not None and not self.symmetric:
            raise ValueError("xk_trunc applies to symmetric executors only")
        dtype = complex_dtype_for(x.dtype)
        tiles = self._tiles_for(dtype, spatial, max(x.shape[0], 1))
        staged = self._stage_for(dtype, spatial, tiles)
        if self.symmetric:
            return staged.run(x, xk_trunc)
        pencils = x
        for _, m in self._lead:
            # Standalone FFT with built-in truncation along the next
            # leading axis (the first one casts to the working dtype);
            # its kept modes fold into the pencil batch.
            xk = truncated_fft(pencils.astype(dtype, copy=False), m, axis=2,
                               caches=self._plan_caches())
            pencils = xk.swapaxes(1, 2).reshape(
                xk.shape[0] * m, xk.shape[1], *xk.shape[3:]
            )
        out = staged.run_fused(pencils)
        for axis, m in reversed(self._lead):
            # Unfold the pencils of one leading axis and run its iFFT
            # with built-in zero padding.
            yk = out.reshape(out.shape[0] // m, m, *out.shape[1:])
            out = truncated_ifft(yk.swapaxes(1, 2), spatial[axis], axis=2,
                                 caches=self._plan_caches())
        return out


class CompiledSpectralConv1D(CompiledSpectralConv):
    """The 1-D executor: ``modes`` kept bins of ``(batch, C_in, X)``
    input (see :class:`CompiledSpectralConv`)."""

    def __init__(self, weight: np.ndarray, modes: int,
                 k_tb: int = _DEFAULT_K_TB,
                 signal_tile: int = _DEFAULT_SIGNAL_TILE,
                 symmetric: bool = False,
                 plans: PlanCaches | None = None,
                 tiles="default",
                 tuner: Tuner | None = None):
        super().__init__(weight, (modes,), k_tb, signal_tile, symmetric,
                         plans, tiles, tuner)


class CompiledSpectralConv2D(CompiledSpectralConv):
    """The 2-D executor: a ``modes_x x modes_y`` kept corner of
    ``(batch, C_in, X, Y)`` input (see :class:`CompiledSpectralConv`)."""

    def __init__(self, weight: np.ndarray, modes_x: int, modes_y: int,
                 k_tb: int = _DEFAULT_K_TB,
                 signal_tile: int = _DEFAULT_SIGNAL_TILE,
                 symmetric: bool = False,
                 plans: PlanCaches | None = None,
                 tiles="default",
                 tuner: Tuner | None = None):
        super().__init__(weight, (modes_x, modes_y), k_tb, signal_tile,
                         symmetric, plans, tiles, tuner)


def compile_spectral_conv(
    weight: np.ndarray,
    modes: int | tuple[int, ...],
    k_tb: int = _DEFAULT_K_TB,
    signal_tile: int = _DEFAULT_SIGNAL_TILE,
    symmetric: bool = False,
    plans: PlanCaches | None = None,
    tiles="default",
    tuner: Tuner | None = None,
):
    """Build the executor matching ``modes``' dimensionality.

    An int (or 1-tuple) of kept modes gives a
    :class:`CompiledSpectralConv1D`; a 2-tuple gives a
    :class:`CompiledSpectralConv2D`.  ``symmetric=True`` selects the
    rfft/irfft half-spectrum convention (real input, real output).
    ``plans`` pins the executor to one plan-cache set (a session's);
    ``None`` resolves the set active on the staging thread.
    ``tiles``/``tuner`` select the tiling (``"auto"`` autotunes per
    geometry — byte-identical output, see
    :mod:`repro.core.autotune`).
    """
    modes = modes if isinstance(modes, tuple) else (int(modes),)
    if not 1 <= len(modes) <= 2:
        raise ValueError(
            f"modes must have 1 or 2 entries, got {len(modes)}"
        )
    executor = (CompiledSpectralConv1D, CompiledSpectralConv2D)[len(modes) - 1]
    return executor(
        weight, *modes, k_tb, signal_tile, symmetric=symmetric,
        plans=plans, tiles=tiles, tuner=tuner,
    )
