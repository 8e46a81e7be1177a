"""Build and load the compiled FFT executor kernels.

The C kernels in ``_kernels.c`` are compiled on first use with the host C
compiler into a content-addressed cache directory and loaded via
:mod:`ctypes`.  Everything degrades gracefully: no compiler, a failed
build, or a host whose NumPy exhibits different floating-point semantics
all result in :func:`get_kernels` returning ``None`` and the plan layer
falling back to the pure-NumPy execution path (same bytes, less speed).

Besides the single kernels (Stockham, panel contraction, decomposition
reduce, broadcast multiply) the library carries two plan kernels and
three drivers that cut the FFI crossings of one call to one:
``pruned_rfft``/``pruned_irfft`` run a pruned real plan's whole
``decomp`` execute (:meth:`_Kernels.bind_pruned_rfft` /
``bind_pruned_irfft`` bind the plan's tables and return a
:class:`PrunedRealKernel`), ``panel_gemm`` runs every k-panel of a
spectrum-domain CGEMM, ``fused1d`` runs the whole fused FFT -> CGEMM ->
iFFT pass of a staged 1-D executor (:meth:`_Kernels.bind_fused1d` ->
:class:`FusedDriver`), and ``sym1d`` runs a staged symmetric 1-D pass,
pruned R2C -> CGEMM -> pruned C2R (:meth:`_Kernels.bind_sym1d` ->
:class:`SymDriver`).

Raw-address contract: every pointer crosses as a bare ``c_void_p``
address, so ctypes checks nothing.  Each binding checks its operands —
dtype, C-contiguity, and an element count covering what the kernel will
touch given the dims it passes — and raises ``ValueError`` instead of
letting C read out of bounds.  Plan-owned read-only tables are built as
:class:`Table`, whose address is taken once at construction.

Because the kernels promise *byte-identical* results to the legacy NumPy
path, the loader validates them at load time on named probes: each
floating-point recurrence (FMA complex multiply, naive sequential einsum
contraction, chained scalar scaling) against NumPy, ``panel_gemm``
against the per-panel ``einsum`` loop, ``fused1d`` against the
frozen :func:`repro.core.legacy.fused_fft_gemm_ifft_1d` on tiny
geometries covering ``p == 1``, ``p > 1``, a ragged tail panel,
``signal_tile < batch`` (with real input) and ``k_block > k_tb``, and
the pruned real kernels and ``sym1d`` against the same plans and
staging on a ``PlanCaches(backend="numpy")`` (non-power-of-two
``part``, ragged ``c_in % k_tb``, ``batch_tile > 0``, a one-element
tail product, no rows), in both precisions.  The library is rejected
on any mismatch, and :func:`build_info` names the first probe that
failed.

Environment knobs
-----------------
``REPRO_NO_CKERNELS=1``
    Disable the C layer entirely (pure-NumPy fallback).
``REPRO_CKERNEL_DIR``
    Override the build cache directory (default: a per-user directory
    under the system temp dir).
``REPRO_CKERNELS_SANITIZE=1``
    Compile every flag variant with AddressSanitizer + UBSan and the
    full warning set promoted to errors (``-fsanitize=address,undefined
    -fno-sanitize-recover=all -Wall -Wextra -Werror``).  CI runs the
    FFT oracle suites under this mode so C-side memory bugs fail loudly
    instead of corrupting bits.  Loading an ASan-instrumented library
    into an uninstrumented Python requires the ASan runtime first in
    the process — run with ``LD_PRELOAD=$(gcc -print-file-name=
    libasan.so)`` (and typically ``ASAN_OPTIONS=detect_leaks=0``, since
    CPython itself is not leak-clean).  ASan *aborts the process* when
    it initialises late, so the loader refuses to even attempt the
    ``dlopen`` unless an ASan runtime is visible in ``LD_PRELOAD``; it
    falls back to NumPy instead — never to silently-unsanitized
    kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

__all__ = ["get_kernels", "kernels_available", "build_info"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")

#: (extra cflags, description) variants tried in order.  The first set
#: enables the per-function FMA/AVX2 target attribute on x86-64; the
#: second compiles everything generically (explicit fma()/fmaf() calls
#: then go through libm, which is slower but bit-exact).
_FLAG_VARIANTS = [
    (["-DREPRO_TARGET_FMA", "-mavx2"], "fma-target"),
    ([], "generic"),
]
_BASE_CFLAGS = ["-O3", "-ffp-contract=off", "-shared", "-fPIC"]

#: The sanitized tier: ASan + UBSan with no recovery, full warnings as
#: errors, and debug info for usable reports.  ``-ffp-contract=off``
#: from the base flags still applies, so bit-identity holds under the
#: sanitizers too and the oracle suites can run unchanged.
_SANITIZE_CFLAGS = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-Wall",
    "-Wextra",
    "-Werror",
    "-g",
]


def _flag_variants() -> list[tuple[list[str], str]]:
    """The flag variants to try, honouring ``REPRO_CKERNELS_SANITIZE``.

    Sanitized builds get a distinct cache tag so a sanitize run never
    reuses (or poisons) the plain build cache.
    """
    if not os.environ.get("REPRO_CKERNELS_SANITIZE"):
        return _FLAG_VARIANTS
    return [
        (extra + _SANITIZE_CFLAGS, f"{tag}-sanitize")
        for extra, tag in _FLAG_VARIANTS
    ]

_state: dict = {"kernels": None, "tried": False, "info": "not loaded"}


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CKERNEL_DIR")
    if override:
        return override
    uid = getattr(os, "getuid", lambda: "any")()
    return os.path.join(tempfile.gettempdir(), f"repro-ckernels-{uid}")


def _find_cc() -> str | None:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def _compile(cc: str, extra: list[str], tag: str) -> str | None:
    """Compile the kernel source; return the .so path or None."""
    with open(_SOURCE, "rb") as f:
        source = f.read()
    key = hashlib.sha256(
        source + " ".join(extra).encode() + cc.encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{tag}_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache, exist_ok=True)
        tmp = lib_path + f".tmp{os.getpid()}"
        cmd = [cc, *_BASE_CFLAGS, *extra, "-o", tmp, _SOURCE]
        res = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if res.returncode != 0:
            return None
        os.replace(tmp, lib_path)  # atomic vs concurrent builders
        return lib_path
    except (OSError, subprocess.SubprocessError):
        return None


_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer


def _address(arr: np.ndarray) -> int:
    """Raw data address of a C-contiguous array.

    ``ctypes.c_char.from_buffer`` is several times cheaper than
    ``arr.ctypes.data``; it needs a writable, non-empty buffer, so
    read-only and empty arrays take the slow path.
    """
    if arr.flags.writeable and arr.size:
        return _addressof(_from_buffer(arr))
    return arr.ctypes.data


class Table(np.ndarray):
    """A plan-owned read-only table whose address is taken once.

    Twiddle and decomposition tables live as long as their plan and
    never move, so plans build them as ``Table`` (a frozen ndarray) and
    every kernel call reuses the cached address instead of paying for a
    fresh lookup.  Views of a table carry no address and are looked up
    like any other operand.
    """

    address = None

    def __new__(cls, array):
        table = np.ascontiguousarray(array).view(cls)
        table.setflags(write=False)
        table.address = table.ctypes.data
        return table


def _operand(arr, dtype: np.dtype, need: int, name: str) -> int:
    """Check one kernel operand and return its raw address.

    Raw ``c_void_p`` arguments carry no type or bounds, so every
    operand is checked here against what the kernel will touch: the
    working dtype, C-contiguity, and at least ``need`` elements.  A
    mismatch raises ``ValueError`` instead of reading out of bounds.
    """
    if not isinstance(arr, np.ndarray):
        raise ValueError(f"{name}: expected an ndarray, got {type(arr)!r}")
    if arr.dtype != dtype:
        raise ValueError(
            f"{name}: expected {dtype.name}, got {arr.dtype.name}"
        )
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name}: operand is not C-contiguous")
    if arr.size < need:
        raise ValueError(
            f"{name}: needs {need} elements, operand has {arr.size}"
        )
    if type(arr) is Table and arr.address is not None:
        return arr.address
    return _address(arr)


_COMPLEX = (np.dtype(np.complex64), np.dtype(np.complex128))
_REAL_OF = {np.dtype(np.complex64): np.dtype(np.float32),
            np.dtype(np.complex128): np.dtype(np.float64)}


def _working_dtype(arr, name: str) -> np.dtype:
    dtype = getattr(arr, "dtype", None)
    if dtype not in _COMPLEX:
        raise ValueError(
            f"{name}: kernels run on complex64/complex128, got {dtype}"
        )
    return dtype


class _Fused1DPlan(ctypes.Structure):
    """Mirror of ``fused1d_plan`` in ``_kernels.c``."""

    _fields_ = (
        [(f, ctypes.c_long) for f in ("c_in", "c_out", "dim_x", "modes",
                                      "signal_tile", "k_tb", "k_block")]
        + [(f, ctypes.c_void_p) for f in ("w", "tw_f", "tw_i", "wd_f",
                                          "wd_i", "gather", "fftbuf",
                                          "scratch", "acc", "dec")]
    )


class FusedDriver:
    """One staged fused 1-D pass bound to the C driver.

    Built by :meth:`_Kernels.bind_fused1d`, which checks every static
    operand once; a call checks only the input and the output and
    crosses the FFI exactly once.  Holds references to every bound
    array, so the addresses in the plan struct stay valid.
    """

    def __init__(self, kernels: "_Kernels", fn, dtype: np.dtype,
                 plan: _Fused1DPlan, keep: tuple):
        self.kernels = kernels
        self._fn = fn
        self._dtype = dtype
        self._real = _REAL_OF[dtype]
        self._plan = plan
        self._plan_addr = ctypes.addressof(plan)
        self._keep = keep
        self._c_in = plan.c_in
        self._c_out = plan.c_out
        self._dim_x = plan.dim_x

    def __call__(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out[...]`` = the fused pass over ``x`` — a C-contiguous
        ``(batch, C_in, X)`` array of the working complex dtype or its
        real component dtype; ``out`` is ``(batch, C_out, X)``."""
        if x.ndim != 3 or x.shape[1:] != (self._c_in, self._dim_x):
            raise ValueError(
                f"x: expected (batch, {self._c_in}, {self._dim_x}), "
                f"got {x.shape}"
            )
        batch = x.shape[0]
        x_complex = x.dtype == self._dtype
        xa = _operand(x, self._dtype if x_complex else self._real,
                      batch * self._c_in * self._dim_x, "x")
        oa = _operand(out, self._dtype,
                      batch * self._c_out * self._dim_x, "out")
        self._fn(xa, int(x_complex), batch, oa, self._plan_addr)


class _PrunedRFFTTables(ctypes.Structure):
    """Mirror of ``prfft_tables`` in ``_kernels.c``."""

    _fields_ = (
        [(f, ctypes.c_long) for f in ("n", "part", "q")]
        + [(f, ctypes.c_void_p) for f in ("tw", "u", "v")]
    )


class _PrunedIRFFTTables(ctypes.Structure):
    """Mirror of ``pirfft_tables`` in ``_kernels.c``."""

    _fields_ = (
        [(f, ctypes.c_long) for f in ("n", "part", "q")]
        + [(f, ctypes.c_void_p) for f in ("tw", "ch", "ct", "wdh", "wdt")]
    )


class _Sym1DPlan(ctypes.Structure):
    """Mirror of ``sym1d_plan`` in ``_kernels.c``."""

    _fields_ = (
        [(f, ctypes.c_long) for f in ("c_in", "c_out", "k_tb", "tile")]
        + [("w", ctypes.c_void_p), ("fwd", _PrunedRFFTTables),
           ("inv", _PrunedIRFFTTables)]
        + [(f, ctypes.c_void_p) for f in ("ws", "sk", "acc")]
    )


def _check_pruned_real(n: int, part: int, q: int) -> int:
    """Check a pruned real plan's ``decomp`` geometry; return ``h/q``."""
    h = n // 2
    if (n < 4 or n & (n - 1) or q < 1 or q & (q - 1) or 2 * q > h
            or not 1 <= part <= q):
        raise ValueError(
            f"no decomp split for n={n}, part={part}, q={q}: need n and "
            f"q powers of two with part <= q <= n/4"
        )
    return h // q


class PrunedRealKernel:
    """One pruned real plan's tables bound to its C kernel.

    Built by :meth:`_Kernels.bind_pruned_rfft` / ``bind_pruned_irfft``,
    which check every table once; a call checks only the input, the
    output and the workspace, and crosses the FFI once.  ``inverse``
    tells the two apart: the forward kernel maps real ``(rows, n)`` to
    complex ``(rows, part)``, the inverse complex ``(rows, part)`` to
    real ``(rows, n)``.
    """

    def __init__(self, kernels: "_Kernels", fn, dtype: np.dtype,
                 tables, keep: tuple, inverse: bool):
        self.kernels = kernels
        self.tables = tables
        self.inverse = inverse
        self._fn = fn
        self._dtype = dtype
        self._real = _REAL_OF[dtype]
        self._tables_addr = ctypes.addressof(tables)
        self._keep = keep

    def workspace_size(self, rows: int) -> int:
        """Elements of the working dtype one call on ``rows`` needs."""
        return 3 * rows * (self.tables.n // 2)

    def __call__(self, x: np.ndarray, out: np.ndarray,
                 ws: np.ndarray) -> None:
        n, part = self.tables.n, self.tables.part
        rows = x.shape[0] if x.ndim == 2 else -1
        x_dtype, x_cols, o_dtype, o_cols = (
            (self._dtype, part, self._real, n) if self.inverse
            else (self._real, n, self._dtype, part)
        )
        if rows < 0 or x.shape[1] != x_cols:
            raise ValueError(f"x: expected (rows, {x_cols}), got {x.shape}")
        self._fn(
            _operand(x, x_dtype, rows * x_cols, "x"),
            _operand(out, o_dtype, rows * o_cols, "out"), rows,
            self._tables_addr,
            _operand(ws, self._dtype, self.workspace_size(rows), "ws"),
        )


class SymDriver:
    """One staged symmetric 1-D pass bound to the C ``sym1d`` driver.

    Built by :meth:`_Kernels.bind_sym1d`, which checks every static
    operand once; a call checks only the input and the output and
    crosses the FFI exactly once.  Holds references to every bound
    array, so the addresses in the plan struct stay valid.
    """

    def __init__(self, kernels: "_Kernels", fn, dtype: np.dtype,
                 plan: _Sym1DPlan, keep: tuple):
        self.kernels = kernels
        self.tile = plan.tile
        self._fn = fn
        self._real = _REAL_OF[dtype]
        self._plan = plan
        self._plan_addr = ctypes.addressof(plan)
        self._keep = keep
        self._c_in = plan.c_in
        self._c_out = plan.c_out
        self._n = plan.fwd.n

    def __call__(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out[...]`` = the symmetric pass over ``x`` — a C-contiguous
        real ``(batch, C_in, X)`` array of the working precision;
        ``out`` is real ``(batch, C_out, X)``."""
        if x.ndim != 3 or x.shape[1:] != (self._c_in, self._n):
            raise ValueError(
                f"x: expected (batch, {self._c_in}, {self._n}), "
                f"got {x.shape}"
            )
        batch = x.shape[0]
        xa = _operand(x, self._real, batch * self._c_in * self._n, "x")
        oa = _operand(out, self._real, batch * self._c_out * self._n,
                      "out")
        self._fn(xa, batch, oa, self._plan_addr)


class _Kernels:
    """ctypes bindings for one loaded kernel library.

    Every pointer crosses as a raw ``c_void_p`` address; each method
    checks its operands (dtype, C-contiguity, element count against the
    dims it passes) before calling in — see :func:`_operand`.
    """

    def __init__(self, lib_path: str, variant: str):
        lib = ctypes.CDLL(lib_path)
        self.path = lib_path
        self.variant = variant
        self._fn = {}
        vp, lg = ctypes.c_void_p, ctypes.c_long
        for dtype, suffix, ct in (
            (np.dtype(np.complex64), "f32", ctypes.c_float),
            (np.dtype(np.complex128), "f64", ctypes.c_double),
        ):
            signatures = {
                "stockham": [vp, vp, vp, vp, lg, lg,
                             ctypes.c_int, ct, ctypes.c_int, ct],
                "panel_contract": [vp, vp, vp] + [lg] * 4,
                "panel_gemm": [vp, vp, vp] + [lg] * 5,
                "decomp_reduce": [vp, vp, vp] + [lg] * 3,
                "expand_mul": [vp, vp, vp] + [lg] * 3,
                "fused1d": [vp, ctypes.c_int, lg, vp, vp],
                "pruned_rfft": [vp, vp, lg, vp, vp],
                "pruned_irfft": [vp, vp, lg, vp, vp],
                "sym1d": [vp, lg, vp, vp],
            }
            for name, argtypes in signatures.items():
                fn = getattr(lib, f"{name}_{suffix}")
                fn.argtypes = argtypes
                fn.restype = None
                self._fn[name, dtype] = fn

    def stockham(self, x, out, scratch, tw, rows: int, n: int,
                 div_by: float | None, mul_by: float | None) -> None:
        dt = _working_dtype(x, "x")
        size = rows * n
        self._fn["stockham", dt](
            _operand(x, dt, size, "x"), _operand(out, dt, size, "out"),
            _operand(scratch, dt, size, "scratch"),
            _operand(tw, dt, n - 1, "tw"), rows, n,
            int(div_by is not None), div_by if div_by is not None else 0.0,
            int(mul_by is not None), mul_by if mul_by is not None else 0.0,
        )

    def panel_contract(self, a, w, acc, bt: int, kt: int, m: int,
                       o: int) -> None:
        dt = _working_dtype(a, "a")
        self._fn["panel_contract", dt](
            _operand(a, dt, bt * kt * m, "a"), _operand(w, dt, kt * o, "w"),
            _operand(acc, dt, bt * o * m, "acc"), bt, kt, m, o,
        )

    def panel_gemm(self, a, w, acc, batch: int, c_in: int, m: int, o: int,
                   k_tb: int) -> None:
        if k_tb < 1:
            raise ValueError(f"k_tb must be positive, got {k_tb}")
        dt = _working_dtype(a, "a")
        self._fn["panel_gemm", dt](
            _operand(a, dt, batch * c_in * m, "a"),
            _operand(w, dt, c_in * o, "w"),
            _operand(acc, dt, batch * o * m, "acc"),
            batch, c_in, m, o, k_tb,
        )

    def decomp_reduce(self, y, wd, out, batch: int, p: int, q: int) -> None:
        dt = _working_dtype(y, "y")
        self._fn["decomp_reduce", dt](
            _operand(y, dt, batch * p * q, "y"),
            _operand(wd, dt, p * q, "wd"),
            _operand(out, dt, batch * q, "out"), batch, p, q,
        )

    def expand_mul(self, x, w, out, batch: int, s: int, q: int) -> None:
        dt = _working_dtype(x, "x")
        self._fn["expand_mul", dt](
            _operand(x, dt, batch * q, "x"), _operand(w, dt, s * q, "w"),
            _operand(out, dt, batch * s * q, "out"), batch, s, q,
        )

    def bind_fused1d(self, *, weight, tw_f, tw_i, wd_f, wd_i, gather,
                     fftbuf, scratch, acc, dec, c_in: int, c_out: int,
                     dim_x: int, modes: int, signal_tile: int, k_tb: int,
                     k_block: int) -> FusedDriver:
        """Check a staged fused 1-D pass's static operands once and bind
        them to the C driver (see ``fused1d_plan`` in ``_kernels.c``).
        ``wd_f``/``wd_i`` are ``None`` when ``modes == dim_x``."""
        if modes < 1 or modes & (modes - 1) or dim_x % modes:
            raise ValueError(
                f"modes={modes} must be a power of two dividing X={dim_x}"
            )
        if signal_tile < 1 or k_tb < 1 or k_block < k_tb or k_block % k_tb:
            raise ValueError(
                f"bad tiling signal_tile={signal_tile}, k_tb={k_tb}, "
                f"k_block={k_block}"
            )
        dt = _working_dtype(weight, "weight")
        p = dim_x // modes
        ws = signal_tile * max(k_block, c_out) * p * modes
        plan = _Fused1DPlan(
            c_in, c_out, dim_x, modes, signal_tile, k_tb, k_block,
            _operand(weight, dt, c_in * c_out, "weight"),
            _operand(tw_f, dt, modes - 1, "tw_f"),
            _operand(tw_i, dt, modes - 1, "tw_i"),
            _operand(wd_f, dt, p * modes, "wd_f") if p > 1 else None,
            _operand(wd_i, dt, p * modes, "wd_i") if p > 1 else None,
            _operand(gather, dt, ws, "gather"),
            _operand(fftbuf, dt, ws, "fftbuf"),
            _operand(scratch, dt, ws, "scratch"),
            _operand(acc, dt, signal_tile * c_out * modes, "acc"),
            _operand(dec, dt, signal_tile * k_block * modes, "dec")
            if p > 1 else None,
        )
        keep = (weight, tw_f, tw_i, wd_f, wd_i, gather, fftbuf, scratch,
                acc, dec)
        return FusedDriver(self, self._fn["fused1d", dt], dt, plan, keep)

    def bind_pruned_rfft(self, *, tw, u, v, n: int, part: int,
                         q: int) -> PrunedRealKernel:
        """Check a pruned R2C plan's ``decomp`` tables once and bind them
        to the C ``pruned_rfft`` kernel (see ``prfft_tables``)."""
        p = _check_pruned_real(n, part, q)
        dt = _working_dtype(u, "u")
        tables = _PrunedRFFTTables(
            n, part, q, _operand(tw, dt, q - 1, "tw"),
            _operand(u, dt, p * q, "u"), _operand(v, dt, p * q, "v"),
        )
        return PrunedRealKernel(self, self._fn["pruned_rfft", dt], dt,
                                tables, (tw, u, v), inverse=False)

    def bind_pruned_irfft(self, *, tw, ch, ct, wdh, wdt, n: int, part: int,
                          q: int) -> PrunedRealKernel:
        """Check a pruned C2R plan's ``decomp`` tables once and bind them
        to the C ``pruned_irfft`` kernel (see ``pirfft_tables``)."""
        s = _check_pruned_real(n, part, q)
        dt = _working_dtype(ch, "ch")
        tables = _PrunedIRFFTTables(
            n, part, q, _operand(tw, dt, q - 1, "tw"),
            _operand(ch, dt, part, "ch"), _operand(ct, dt, part - 1, "ct"),
            _operand(wdh, dt, s * q, "wdh"), _operand(wdt, dt, s * q, "wdt"),
        )
        return PrunedRealKernel(self, self._fn["pruned_irfft", dt], dt,
                                tables, (tw, ch, ct, wdh, wdt), inverse=True)

    def bind_sym1d(self, *, weight, fwd: PrunedRealKernel,
                   inv: PrunedRealKernel, ws, sk, acc, k_tb: int,
                   tile: int) -> SymDriver:
        """Check a staged symmetric 1-D pass's static operands once and
        bind them to the C driver (see ``sym1d_plan`` in ``_kernels.c``).
        ``fwd``/``inv`` are the two pruned real plans' bound kernels."""
        dt = _working_dtype(weight, "weight")
        if weight.ndim != 2:
            raise ValueError(f"weight: expected (C_in, C_out), got "
                             f"{weight.shape}")
        c_in, c_out = weight.shape
        if fwd.inverse or not inv.inverse:
            raise ValueError("fwd/inv: expected a pruned R2C and a pruned "
                             "C2R kernel, in that order")
        if fwd.kernels is not self or inv.kernels is not self:
            raise ValueError("fwd/inv: bound to another kernel library")
        if fwd._dtype != dt or inv._dtype != dt:
            raise ValueError(f"fwd/inv: expected {dt.name} kernels")
        n, m = fwd.tables.n, fwd.tables.part
        if (inv.tables.n, inv.tables.part) != (n, m):
            raise ValueError(
                f"fwd/inv: geometry (n={n}, part={m}) != "
                f"(n={inv.tables.n}, part={inv.tables.part})"
            )
        if k_tb < 1 or tile < 1:
            raise ValueError(f"bad tiling k_tb={k_tb}, tile={tile}")
        plan = _Sym1DPlan(
            c_in, c_out, k_tb, tile,
            _operand(weight, dt, c_in * c_out, "weight"),
            fwd.tables, inv.tables,
            _operand(ws, dt, 3 * tile * max(c_in, c_out) * (n // 2), "ws"),
            _operand(sk, dt, tile * c_in * m, "sk"),
            _operand(acc, dt, tile * c_out * m, "acc"),
        )
        keep = (weight, fwd, inv, ws, sk, acc)
        return SymDriver(self, self._fn["sym1d", dt], dt, plan, keep)


def _bits_equal(ref: np.ndarray, got: np.ndarray) -> bool:
    return ref.dtype == got.dtype and np.array_equal(
        ref.view(ref.real.dtype), got.view(got.real.dtype)
    )


#: The fused-driver probes: (label, batch, c_in, c_out, dim_x, modes,
#: k_tb, signal_tile, k_block, real input).  Tiny geometries, each
#: pinning down one branch of the driver's index arithmetic.
_FUSED_PROBES = (
    ("p==1", 2, 4, 3, 8, 8, 2, 4, 2, False),
    ("p>1", 2, 4, 3, 16, 4, 2, 4, 2, False),
    ("ragged tail", 2, 5, 3, 16, 4, 2, 4, 2, False),
    ("signal_tile<batch", 5, 3, 2, 16, 8, 2, 2, 2, True),
    ("k_block>k_tb", 3, 7, 3, 16, 4, 2, 2, 4, False),
)


def _stage_table(n: int, dtype, inverse: bool) -> np.ndarray:
    """The concatenated Stockham stage twiddles of a length-``n`` plan."""
    from repro.fft.compiled import CompiledFFTPlan

    return CompiledFFTPlan(n, dtype, inverse, backend="numpy").stage_table


def _fused_probe(k: _Kernels, dtype, rng, batch, c_in, c_out, dim_x,
                 modes, k_tb, signal_tile, k_block, real) -> bool:
    """The C driver against the frozen legacy fused loop."""
    from repro.core.legacy import fused_fft_gemm_ifft_1d
    from repro.fft.twiddle import decomposition_twiddles

    dtype = np.dtype(dtype)
    x = rng.standard_normal((batch, c_in, dim_x))
    if real:
        x = x.astype(_REAL_OF[dtype])
    else:
        x = (x + 1j * rng.standard_normal(x.shape)).astype(dtype)
    w = (rng.standard_normal((c_in, c_out))
         + 1j * rng.standard_normal((c_in, c_out))).astype(dtype)
    ref = fused_fft_gemm_ifft_1d(x, w, modes, k_tb=k_tb,
                                 signal_tile=signal_tile)
    p = dim_x // modes
    wd = [np.ascontiguousarray(decomposition_twiddles(
        dim_x, p, modes, inverse=inv).astype(dtype)) if p > 1 else None
        for inv in (False, True)]
    rows = signal_tile * max(k_block, c_out) * p
    driver = k.bind_fused1d(
        weight=w, tw_f=_stage_table(modes, dtype, False),
        tw_i=_stage_table(modes, dtype, True), wd_f=wd[0], wd_i=wd[1],
        gather=np.empty((rows, modes), dtype),
        fftbuf=np.empty((rows, modes), dtype),
        scratch=np.empty((rows, modes), dtype),
        acc=np.empty((signal_tile, c_out, modes), dtype),
        dec=np.empty(signal_tile * k_block * modes, dtype),
        c_in=c_in, c_out=c_out, dim_x=dim_x, modes=modes,
        signal_tile=signal_tile, k_tb=k_tb, k_block=k_block,
    )
    got = np.empty((batch, c_out, dim_x), dtype)
    driver(x, got)
    return _bits_equal(ref, got)


#: The pruned real-plan probes: (label, rows, n, part).  Each pins one
#: branch: a power-of-two part, a part below its q = next_pow2(part)
#: (the final slice of acc runs), a one-element tail product (NumPy's
#: scalar loop), and no rows at all.
_PRUNED_REAL_PROBES = (
    ("pow2 part", 3, 32, 4),
    ("ragged part", 2, 64, 5),
    ("one-element tail", 1, 32, 2),
    ("rows 0", 0, 16, 3),
)

#: The symmetric-driver probes: (label, batch, c_in, c_out, n, modes,
#: k_tb, batch_tile).  "ragged" has c_in % k_tb != 0 and a
#: non-power-of-two part; "batch_tile" a tile below the batch with a
#: ragged last tile.
_SYM_PROBES = (
    ("ragged", 2, 5, 3, 64, 5, 2, 0),
    ("batch_tile", 5, 4, 2, 32, 8, 3, 2),
    ("one-element tail", 1, 3, 1, 32, 2, 2, 0),
    ("batch 0", 0, 3, 2, 16, 3, 2, 0),
)


def _pruned_real_probe(k: _Kernels, dtype, rng, inverse, rows, n,
                       part) -> bool:
    """One pruned real plan's C kernel against the same plan's NumPy
    glue on a NumPy-backend plan-cache set."""
    from repro.fft.compiled import PlanCaches

    dtype = np.dtype(dtype)
    caches = PlanCaches(backend="numpy")
    if inverse:
        plan = caches.pruned_irfft(n, part, dtype)
        x = (rng.standard_normal((rows, part))
             + 1j * rng.standard_normal((rows, part))).astype(dtype)
        got = np.full((rows, n), np.nan, _REAL_OF[dtype])
    else:
        plan = caches.pruned_rfft(n, part, dtype)
        x = rng.standard_normal((rows, n)).astype(_REAL_OF[dtype])
        got = np.full((rows, part), np.nan, dtype)
    ref = plan.execute(x)
    kernel = plan.bound_kernel(k)
    kernel(x, got, np.empty(kernel.workspace_size(rows), dtype))
    return _bits_equal(ref, got)


def _sym_probe(k: _Kernels, dtype, rng, batch, c_in, c_out, n, modes,
               k_tb, batch_tile) -> bool:
    """The C ``sym1d`` driver, bound the way an executor binds it,
    against the plan chain of the same staging on the NumPy backend."""
    from repro.core.compiled import _StagedSymmetric
    from repro.fft.compiled import PlanCaches

    dtype = np.dtype(dtype)
    w = (rng.standard_normal((c_in, c_out))
         + 1j * rng.standard_normal((c_in, c_out))).astype(dtype)
    x = rng.standard_normal((batch, c_in, n)).astype(_REAL_OF[dtype])
    staged = _StagedSymmetric(w, (modes,), (n,), k_tb, dtype,
                              plans=PlanCaches(backend="numpy"),
                              batch_tile=batch_tile)
    ref = staged.run(x)  # the plan chain
    got = np.full((batch, c_out, n), np.nan, _REAL_OF[dtype])
    staged._bound_driver(k, batch)(x, got)
    return _bits_equal(ref, got)


def _probes(k: _Kernels):
    """Yield ``(name, passed)`` for every self-check probe, in order."""
    from repro.fft.legacy import _stockham_last_axis

    rng = np.random.default_rng(0xC0FFEE)
    for dtype, sfx in ((np.complex64, "f32"), (np.complex128, "f64")):
        cplx = lambda *s: (
            rng.standard_normal(s) + 1j * rng.standard_normal(s)
        ).astype(dtype)
        # A full length-8 FFT against the legacy NumPy stage loop, with
        # the chained /div_by, *mul_by scalings of the final stage.
        x = cplx(5, 8)
        ref = _stockham_last_axis(x, inverse=False)
        ref = ref / 8
        ref = ref * 0.5
        out = np.empty_like(x)
        k.stockham(x, out, np.empty_like(x), _stage_table(8, dtype, False),
                   5, 8, 8.0, 0.5)
        yield f"stockham {sfx}", _bits_equal(ref, out)
        # panel contract == acc += einsum
        a, w, acc0 = cplx(3, 4, 6), cplx(4, 5), cplx(3, 5, 6)
        ref = acc0 + np.einsum("bkm,ko->bom", a, w)
        got = acc0.copy()
        k.panel_contract(a, w, got, 3, 4, 6, 5)
        yield f"panel_contract {sfx}", _bits_equal(ref, got)
        # panel gemm == zeros, then the per-panel einsum loop (ragged
        # tail panel included)
        a, w = cplx(3, 7, 5), cplx(7, 4)
        ref = np.zeros((3, 4, 5), dtype)
        for k0 in range(0, 7, 3):
            ref += np.einsum("bkm,ko->bom",
                             np.ascontiguousarray(a[:, k0:k0 + 3]),
                             w[k0:k0 + 3])
        got = np.full((3, 4, 5), np.nan, dtype)
        k.panel_gemm(a, w, got, 3, 7, 5, 4, 3)
        yield f"panel_gemm {sfx}", _bits_equal(ref, got)
        # decomp reduce == einsum "...pk,pk->...k"
        y, wd = cplx(4, 3, 6), cplx(3, 6)
        ref = np.einsum("...pk,pk->...k", y, wd)
        got = np.empty((4, 6), dtype)
        k.decomp_reduce(y, wd, got, 4, 3, 6)
        yield f"decomp_reduce {sfx}", _bits_equal(ref, got)
        # expand mul == x[..., None, :] * w
        x2, w2 = cplx(4, 6), cplx(3, 6)
        ref = x2[..., None, :] * w2
        got = np.empty((4, 3, 6), dtype)
        k.expand_mul(x2, w2, got, 4, 3, 6)
        yield f"expand_mul {sfx}", _bits_equal(ref, got)
        for label, *geometry in _FUSED_PROBES:
            yield (f"fused1d {sfx} {label}",
                   _fused_probe(k, dtype, rng, *geometry))
        for inverse, kind in ((False, "pruned_rfft"),
                              (True, "pruned_irfft")):
            for label, *geometry in _PRUNED_REAL_PROBES:
                yield (f"{kind} {sfx} {label}",
                       _pruned_real_probe(k, dtype, rng, inverse,
                                          *geometry))
        for label, *geometry in _SYM_PROBES:
            yield (f"sym1d {sfx} {label}",
                   _sym_probe(k, dtype, rng, *geometry))


def _self_check(k: _Kernels) -> str | None:
    """Validate every kernel's FP semantics against NumPy on probe data.

    The promise of the compiled layer is byte identity with the NumPy
    path; any deviation (a toolchain that contracts differently, a NumPy
    build with different complex-multiply loops) must disable it.
    Returns the name of the first failing probe, or None when all pass.
    """
    for name, passed in _probes(k):
        if not passed:
            return name
    return None


def get_kernels() -> _Kernels | None:
    """The loaded, validated kernel bindings — or None (NumPy fallback)."""
    if _state["tried"]:
        return _state["kernels"]
    _state["tried"] = True
    if os.environ.get("REPRO_NO_CKERNELS"):
        _state["info"] = "disabled via REPRO_NO_CKERNELS"
        return None
    cc = _find_cc()
    if cc is None:
        _state["info"] = "no C compiler found"
        return None
    if os.environ.get("REPRO_CKERNELS_SANITIZE") and (
        "asan" not in os.environ.get("LD_PRELOAD", "")
    ):
        # dlopen-ing an ASan-instrumented library into a process whose
        # runtime initialised without ASan doesn't raise — ASan aborts
        # the whole interpreter.  Refuse up front and fall back to
        # NumPy (never to silently-unsanitized kernels).
        _state["info"] = (
            "REPRO_CKERNELS_SANITIZE=1 but no ASan runtime in LD_PRELOAD; "
            "run with LD_PRELOAD=$(gcc -print-file-name=libasan.so)"
        )
        return None
    for extra, tag in _flag_variants():
        lib_path = _compile(cc, extra, tag)
        if lib_path is None:
            continue
        try:
            kernels = _Kernels(lib_path, tag)
        except OSError:
            continue
        failed = _self_check(kernels)
        if failed is None:
            _state["kernels"] = kernels
            _state["info"] = f"loaded ({tag}) from {lib_path}"
            return kernels
        _state["info"] = (
            f"variant {tag} failed self-check probe {failed!r}"
        )
    return _state["kernels"]


def kernels_available() -> bool:
    """True when the C executor layer is active."""
    return get_kernels() is not None


def build_info() -> str:
    """Human-readable status of the kernel build (for benchmarks/debug)."""
    get_kernels()
    return _state["info"]


def _reset_for_tests() -> None:
    """Forget the loaded state so tests can exercise both paths."""
    _state.update(kernels=None, tried=False, info="not loaded")
