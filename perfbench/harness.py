"""Shared pieces of the benchmark: seeded inputs, oracles, statistics,
span tracing, the environment fingerprint and the backend guard.

Nothing here imports :mod:`repro` at module level: ``run.py`` points the
kernel build cache and the tune store into the checkout first, and only
then imports the library.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Relative error (max |out - ref| / max |ref|) a float32 output may
#: carry against the float64 oracle.  Stockham rounding grows with
#: log2(n); 2e-4 leaves two orders of margin at n = 1024.
ORACLE_RTOL = 2e-4


class BenchFailure(RuntimeError):
    """The run cannot produce trustworthy numbers (wrong backend, no
    kernels, a missing library): exit non-zero without a result."""


# ---------------------------------------------------------------------------
# Geometries and seeded inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Geo:
    """One served layer geometry: input shape, kept modes, convention."""

    name: str
    shape: tuple
    modes: tuple
    symmetric: bool = False

    @property
    def channels(self) -> int:
        return self.shape[1]

    @property
    def model_modes(self):
        return self.modes[0] if len(self.modes) == 1 else self.modes


@dataclass
class Mix:
    """Seeded weights and inputs for a list of geometries."""

    geos: list
    weights: list  # one complex64 (C, C) matrix per geometry
    inputs: list  # per geometry: a list of float32 input arrays
    stream: int = 0  # distinguishes mixes drawn from one seed

    def fresh(self) -> "Mix":
        """The same values at new addresses."""
        return Mix(self.geos, [w.copy() for w in self.weights],
                   [[x.copy() for x in xs] for xs in self.inputs],
                   self.stream)


def make_mix(seed: int, geos, inputs_per_geo: int, stream: int = 0) -> Mix:
    """Weights and inputs drawn from ``(seed, stream, geometry index)``:
    the same seed always gives byte-identical arrays."""
    weights, inputs = [], []
    for i, g in enumerate(geos):
        rng = np.random.default_rng([seed, stream, i])
        c = g.channels
        w = (rng.standard_normal((c, c))
             + 1j * rng.standard_normal((c, c))) / c
        weights.append(w.astype(np.complex64))
        inputs.append([
            rng.standard_normal(g.shape).astype(np.float32)
            for _ in range(inputs_per_geo)
        ])
    return Mix(list(geos), weights, inputs, stream)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def numpy_layer(geo: Geo, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Fourier layer written directly in NumPy, in the precision of
    its inputs: forward FFT, keep the low ``modes`` corner, mix channels
    with ``w``, zero-pad, inverse FFT.  C2C layers use fft/ifft over
    every spatial axis; symmetric ones rfft/irfft over the last."""
    b, c = x.shape[:2]
    spatial = x.shape[2:]
    axes = tuple(range(2, x.ndim))
    low = (slice(None), slice(None)) + tuple(slice(0, m) for m in geo.modes)
    sub = "xy"[:len(axes)]
    if geo.symmetric:
        xk = np.fft.rfftn(x, axes=axes)[low]
        full = spatial[:-1] + (spatial[-1] // 2 + 1,)
    else:
        xk = np.fft.fftn(x, axes=axes)[low]
        full = spatial
    yk = np.zeros((b, w.shape[1]) + full, np.result_type(xk, w))
    yk[low] = np.einsum(f"bi{sub},io->bo{sub}", xk, w)
    if geo.symmetric:
        return np.fft.irfftn(yk, s=spatial, axes=axes)
    return np.fft.ifftn(yk, axes=axes)


def oracle(geo: Geo, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reference output: ``engine="reference"`` (the package's staged
    Stockham path, in float64) for the paper's C2C layer; a float64
    NumPy rfft/irfft layer for the symmetric convention, which the
    reference engine does not implement."""
    if geo.symmetric:
        out = numpy_layer(geo, x.astype(np.float64), w.astype(np.complex128))
    else:
        from repro.api.ops import spectral_conv

        out = spectral_conv(
            x.astype(np.float64), w.astype(np.complex128), geo.modes,
            engine="reference",
        )
    # Kept in single precision: far finer than ORACLE_RTOL, half the memory.
    return out.astype(np.complex64 if np.iscomplexobj(out) else np.float32)


def close_to(out: np.ndarray, ref: np.ndarray) -> bool:
    out = np.asarray(out)
    if out.shape != ref.shape:
        return False
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(out - ref))) <= ORACLE_RTOL * scale


class Checker:
    """Counts attempted and failed operations.

    Every output for a key must be bit-identical to the first one seen
    (the whole stack is deterministic).  The first one is checked
    against its oracle by tolerance in :meth:`finish`, after the run's
    numbers are taken, so the oracle's time and memory stay out of them;
    a wrong first output then fails every operation that matched it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._first: dict = {}  # key -> [first output, oracle thunk, count]
        self._lock = threading.Lock()
        self.first_error: str | None = None

    def fail(self, why: str) -> None:
        with self._lock:
            self.failed += 1
            if self.first_error is None:
                self.first_error = why
                print(f"perfbench: operation failed: {why}", file=sys.stderr)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def check(self, key, out, ref=None, exact=None) -> None:
        """``exact``: the output must equal it bit for bit.  ``ref``: a
        thunk computing the oracle for the first output under ``key``."""
        out = np.asarray(out)
        if exact is not None:
            if out.shape != exact.shape or not np.array_equal(out, exact):
                self.fail(f"{key}: not bit-identical to the expected output")
            return
        first = self._first.get(key)
        if first is None:
            self._first[key] = [out.copy(), ref, 1]
        elif out.shape != first[0].shape or not np.array_equal(out, first[0]):
            self.fail(f"{key}: output changed between identical calls")
        else:
            first[2] += 1

    def finish(self) -> None:
        """Check every key's first output against its oracle."""
        for key, (out, ref, count) in self._first.items():
            if ref is not None and not close_to(out, ref()):
                for _ in range(count):
                    self.fail(f"{key}: differs from the oracle")
        self._first.clear()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linear interpolation."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 0.5)


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the ``q``-quantile of ``n`` samples."""
    return int(n - np.ceil(q * n))


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, np.float64)))))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux);
    ``children`` adds the largest reaped child's peak."""
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if children:
        mb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return mb


# ---------------------------------------------------------------------------
# Span tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: ``(span id, name, start, end, parent id, op id)``.

    Spans nest per thread.  A disabled tracer hands out one shared
    no-op context manager, so the untraced loops pay a method call and
    nothing else.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))
        self._tls = threading.local()
        self._null = _NullSpan()

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return self._null
        return self._span(name, op)

    @contextmanager
    def _span(self, name: str, op: int | None):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, op))

    def record(self, name: str, t0: float, t1: float,
               op: int | None = None) -> None:
        """A span measured elsewhere (e.g. due time to completion)."""
        if self.enabled:
            self.spans.append((next(self._ids), name, t0, t1, None, op))

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def dump(self, path: str, meta: dict) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as f:
            json.dump({
                "meta": meta,
                "spans": [dict(zip(keys, s)) for s in self.spans],
            }, f)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int | None:
    """Size of the last-level cache from sysfs, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "size")) as f:
                text = f.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            size = int(text.rstrip("KMG")) * mult
            best = size if best is None else max(best, size)
    except (OSError, ValueError):
        return None
    return best


def fingerprint() -> dict:
    from repro.fft._ckernels import build_info

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": build_info(),
        "llc_bytes": llc_bytes(),
    }


def build_kernels() -> float:
    """Compile (or load) the C kernels; returns seconds taken.  A build
    that fails would silently serve the NumPy fallback under
    ``backend="auto"``, which is a failed run here, not slow numbers."""
    from repro.fft._ckernels import build_info, get_kernels

    t0 = time.perf_counter()
    kernels = get_kernels()
    seconds = time.perf_counter() - t0
    if kernels is None:
        raise BenchFailure(f"C kernels unavailable: {build_info()}")
    return seconds


def require_kernels(session) -> None:
    """The session must resolve to the C kernels, not the fallback."""
    if session.plan_caches.kernels() is None:
        raise BenchFailure(
            "session resolved to the NumPy fallback; refusing to time it"
        )
