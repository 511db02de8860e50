"""Host-speed probes and a code-kind profile sampled during every timed region.

On a shared host the same code can run up to twice as slowly for seconds
to minutes at a time, and interpreter-bound code slows down more than code
inside long C calls (numpy). While a region is timed, a SIGALRM timer on
the benchmark's own thread fires every INTERVAL_S seconds. Each tick does
two things:

- It classifies the code the region was running. CPython runs a signal
  handler at the next bytecode boundary, so a tick served more than
  C_CALL_S after it fell due landed in a C call (numpy, file I/O), and one
  served at once landed in interpreted code. Ticks that fell due while the
  handler was blocked count as C ticks too.
- It runs two small fixed probes: a dict built from a few thousand
  tuples (interpreter bound, with a working set of a few hundred KB, as
  real interpreted code has) and a small pairwise-L1 reduction (numpy
  bound). Neither uses l1cert code, so a faster l1cert leaves them
  unchanged. Each probe runs once untimed before its timed run: the op
  has just evicted the probe's code and data from the caches, and a cold
  probe would read slower after an op with a larger memory footprint.

A region's scaled time is its wall time less the probe time, split by the
region's own share of interpreter ticks, each part divided by the slowdown
of its probe (median probe time over the reference time). The share is
measured in every region, so a change that moves an op from interpreted
code into numpy is scaled by the numpy probe from then on. Scaled times
are seconds at the reference speed: PYTHON_REF_S and NUMPY_REF_S are the
median probe times of one `calibrate.py` run.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
C_CALL_S = 100e-6
# Medians printed by `python3 perfbench/calibrate.py --seconds 120` (README.md).
PYTHON_REF_S = 462e-6
NUMPY_REF_S = 374e-6

_POINTS = np.random.default_rng(0).standard_normal((48, 8))
_ROWS = [(k, k % 13, float(k)) for k in ((i * 7919) % 100003 for i in range(3000))]


def _python_work() -> None:
    table: dict[int, float] = {}
    for key, group, value in _ROWS:
        table[key] = table.get(group, 0.0) + value


def _numpy_work() -> None:
    for _ in range(3):
        np.abs(_POINTS[:, None, :] - _POINTS[None, :, :]).sum(axis=-1).argmax()


def _warm_time(work) -> float:
    work()
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def python_probe() -> float:
    return _warm_time(_python_work)


def numpy_probe() -> float:
    return _warm_time(_numpy_work)


class Speed:
    """Probe samples and code-kind ticks of one timed region."""

    def __init__(self) -> None:
        self.python: list[float] = []
        self.numpy: list[float] = []
        self.python_ticks = 0
        self.c_ticks = 0
        self.probe_s = 0.0
        self.last_due = time.perf_counter()

    def tick(self, signum=None, frame=None) -> None:
        now = time.perf_counter()
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        late = interval - remaining if interval else 0.0  # since the latest tick fell due
        due = now - late
        ticks = max(1, round((due - self.last_due) / INTERVAL_S))
        if ticks > 1 or late > C_CALL_S:
            self.c_ticks += ticks
        else:
            self.python_ticks += 1
        self.last_due = due
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.python.append(python_probe())
        self.numpy.append(numpy_probe())
        self.probe_s += time.perf_counter() - t0

    @property
    def python_share(self) -> float:
        """Share of the region's ticks that landed in interpreted code (1 with no ticks)."""
        ticks = self.python_ticks + self.c_ticks
        return self.python_ticks / ticks if ticks else 1.0

    def scaled(self, wall_s: float) -> float:
        """`wall_s` of this region, less probe time, in seconds at the reference speed."""
        if not self.python:
            self.sample()
        python_slowdown = statistics.median(self.python) / PYTHON_REF_S
        numpy_slowdown = statistics.median(self.numpy) / NUMPY_REF_S
        w = self.python_share
        return (wall_s - self.probe_s) * (w / python_slowdown + (1.0 - w) / numpy_slowdown)


@contextlib.contextmanager
def sampling():
    """Sample host speed and code kind until the block ends; yields the Speed record."""
    speed = Speed()
    previous = signal.signal(signal.SIGALRM, speed.tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield speed
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
