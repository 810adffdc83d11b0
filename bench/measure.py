"""Measurement helpers: percentiles, host-speed calibration, set-up
probes, CPU and memory accounting, and the host record.

Nothing here imports drlogit.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Tail percentiles are reported only when at least this many samples lie
# beyond them; fewer make the tail a reading of one or two outliers.
MIN_BEYOND = 10

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - math.ceil(q / 100.0 * n)


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused (ValueError) unless at least
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {beyond}")
    return float(sorted(values)[math.ceil(q / 100.0 * n) - 1])


# Calibration time that defines the reference host speed.  Gated times
# are scaled by CAL_REF_S / (calibration time measured next to them).
CAL_REF_S = 0.010


class Calibration:
    """A fixed loop that never touches drlogit: numpy vector work, float
    parsing and Python integer arithmetic, as in the fits, plus many numpy
    calls on 2-element arrays, as in the scalar kernel.  On a shared host
    the speed a process gets drifts by a third or more over minutes; timed
    next to the calls, this loop drifts with it, so a time scaled by
    `factor()` reads what it would on a host where the loop takes CAL_REF_S."""

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(20_000)
        self._a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        self._b = np.ones(6)
        self._cells = [repr(float(v)) for v in self._x[:3000]]
        self._small = [self._x[i:i + 2].copy() for i in range(50)]
        self.seconds()

    def seconds(self) -> float:
        np, x = self._np, self._x
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(10):
            acc += float((x * np.exp(-np.abs(x))).sum())
            acc += float(np.linalg.solve(self._a, self._b)[0])
        for cell in self._cells:
            acc += float(cell)
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(12):
            for v in self._small:
                a = np.atleast_1d(np.asarray(v, dtype=float))
                acc += float(a @ a) + float(np.column_stack([np.ones(1), a[None, :1]]).sum())
        return time.perf_counter() - t0

    def factor(self) -> float:
        return CAL_REF_S / self.seconds()


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(child_processes: int = 0) -> float:
    """Peak RSS of this process, plus `child_processes` times the largest
    peak of any reaped child (the pool workers of one run do the same
    work, so they peak alike)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child_processes * child) / 1024.0


def setup_seconds(src: Path, cal: Calibration, repeats: int = 11) -> list[tuple[float, float]]:
    """Wall time from spawning a fresh interpreter until `drlogit.cli` is
    imported, with the calibration factor measured just before; one pair
    per repeat.  A first untimed probe writes the bytecode caches, which a
    user's installed package already has."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import drlogit.cli\nimport time\nprint(repr(time.time()))"
    samples = []
    for i in range(repeats + 1):
        factor = cal.factor()
        t0 = time.time()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        if i:
            samples.append((float(out.strip().splitlines()[-1]) - t0, factor))
    return samples


def _blas_threads() -> str:
    """Ask the loaded OpenBLAS for its thread count; 'unknown' otherwise."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def host_record() -> dict:
    """nproc, interpreter, numpy and BLAS versions, and BLAS threads."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
