"""Percentiles from raw samples, and the host readings each run records.

Percentiles are computed here from every per-statement sample, never
from the program's 1-2-5 bucketed histograms.  Host readings (CPU
steal, load average, BLAS thread settings) are for noise forensics.
"""

from __future__ import annotations

import os
import platform
import resource
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

__all__ = [
    "TAIL", "TAIL_MIN_BEYOND", "percentile", "beyond", "tail_ok",
    "median", "steal_ticks", "loadavg", "host_info", "peak_rss_mb",
    "proc_cpu_s", "proc_peak_rss_mb",
]

TAIL = Fraction(9, 10)
"""The tail percentile every class reports (p90)."""

TAIL_MIN_BEYOND = 10
"""A tail is reported only when a run holds this many samples beyond it."""

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def percentile(samples: Sequence[float], q: Fraction) -> float:
    """Linear-interpolation percentile of the raw samples (0 <= q <= 1)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * Fraction(q)
    lo = int(pos)
    if lo + 1 >= len(ordered):
        return float(ordered[-1])
    frac = float(pos - lo)
    return float(ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac)


def beyond(n: int, q: Fraction) -> int:
    """Samples strictly past the interpolation point of percentile ``q``."""
    if n == 0:
        return 0
    return (n - 1) - int((n - 1) * Fraction(q))


def tail_ok(n: int, q: Fraction = TAIL) -> bool:
    """Whether ``n`` samples support reporting percentile ``q``."""
    return beyond(n, q) >= TAIL_MIN_BEYOND


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, Fraction(1, 2))


def steal_ticks() -> Optional[int]:
    """Aggregate CPU steal ticks from ``/proc/stat`` (``None`` off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def loadavg() -> Optional[List[float]]:
    """1/5/15-minute load averages."""
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def host_info() -> Dict[str, object]:
    """What the noise forensics need to know about the host and runtime."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {
            name: os.environ.get(name, "unset") for name in BLAS_ENV
        },
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB (``ru_maxrss`` is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another live process so far."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[11], fields[12] are utime, stime (after pid and comm)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
