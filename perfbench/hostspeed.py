"""Host speed, measured by fixed yardsticks timed between timed calls.

The machine the benchmark was built on shares its host, whose speed
drifts by a third within a minute and between runs, so raw timings of two
runs of the same code differ by more than any useful bound. Each timed
call is therefore divided by the time of a yardstick run just before and
just after it, and multiplied by the yardstick's time on the reference
host: the result is the call's time in seconds at the reference host's
speed.

The host does not slow every kind of work alike, so each kind of call has
its own yardstick:

- `loop()`, for calls in process: pure-Python arithmetic, small-array
  numpy calls and a small symmetric eigensolve, the mix of the narrow
  calls;
- `dense()`, for calls dominated by a dense eigensolve of a matrix larger
  than the L2 cache (the Jacobian at n >= 512): an eigensolve at n=512;
- a fresh process that imports numpy (run.py), for fresh processes, whose
  start-up and imports suffer from the host's load in their own way.

No yardstick touches softlip, so a change to the package moves the calls
and not the yardsticks.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable

# Before numpy loads: a 2-thread OpenBLAS pool sometimes stays in a slow
# mode for the life of a process (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# Bound here, so the traced run's wrapper on numpy.linalg never sees them.
from numpy.linalg import eigvalsh  # noqa: E402

# Median times on the reference host (2-vCPU VM, Python 3.11.7, numpy
# 2.4.6, OpenBLAS 0.3.31 on one thread) of one `loop()`, one `dense()` and
# one fresh `python3 -c "import numpy"`.
LOOP_REFERENCE_S = 0.0037
DENSE_REFERENCE_S = 0.016
PROCESS_REFERENCE_S = 0.15
#: In-process calls run back to back for at least this long between loops.
EVERY_S = 0.05

_rng = np.random.default_rng(20251023)
_SMALL = _rng.standard_normal((48, 48))
_SMALL = _SMALL + _SMALL.T
_VEC = _rng.standard_normal(32)


@functools.cache
def _large() -> np.ndarray:
    """Made on first use, so workloads without dense calls do not carry it."""
    m = np.random.default_rng(20251024).standard_normal((512, 512))
    return m + m.T


def loop() -> None:
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    for _ in range(200):
        w = np.exp(_VEC - _VEC.max())
        w /= w.sum()
        s += float(np.abs(w).sum())
    for _ in range(10):
        s += float(eigvalsh(_SMALL)[-1])


def dense() -> None:
    eigvalsh(_large())


def timer(fn: Callable[[], None]) -> Callable[[], float]:
    def seconds() -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    return seconds


class Scaler:
    """Rescales raw call times to the reference host's speed.

    Calls are timed in segments of at least `every_s` (one call if 0); the
    yardstick runs before the first segment and after each one. Every call
    of a segment is scaled by `reference_s` over the mean of the
    yardsticks on either side.
    """

    def __init__(self, yardstick: Callable[[], float] = timer(loop),
                 reference_s: float = LOOP_REFERENCE_S, every_s: float = EVERY_S):
        self.yardstick = yardstick
        self.reference_s = reference_s
        self.every_s = every_s
        yardstick()  # the first run pays for first-call set-up and cold caches
        self.last = yardstick()
        self.pending: list[tuple[list, int]] = []  # (list, index) to scale
        self.pending_s = 0.0
        self.yardsticks: list[float] = [self.last]

    def add(self, seconds: float, into: list) -> None:
        """Append a raw call time to `into`; it is scaled when its segment closes."""
        into.append(seconds)
        self.pending.append((into, len(into) - 1))
        self.pending_s += seconds
        if self.pending_s >= self.every_s:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = self.yardstick()
        self.yardsticks.append(now)
        factor = self.reference_s / ((self.last + now) / 2.0)
        for into, k in self.pending:
            into[k] *= factor
        self.last = now
        self.pending = []
        self.pending_s = 0.0

    def restart(self) -> None:
        """Open the next segment now, after time spent outside this scaler."""
        if self.pending:
            self.flush()  # its closing yardstick is as fresh as a new one
        else:
            self.last = self.yardstick()
            self.yardsticks.append(self.last)
