"""A fixed probe workload that measures the machine's current speed.

On a shared 2-core Linux machine, the same code ran up to 45% faster or
slower from one minute to the next: a fixed loop timed in 5 s
chunks ranged from 64 ms to 93 ms.  Each verb process therefore times a small
probe workload every PROBE_INTERVAL_S of wall time while its verb runs (from a
SIGALRM handler), plus a few probes right before and after the verb.  The
runner subtracts the probes' own time from the verb's time and divides the
rest by the slowdown factor ``median probe time / NOMINAL_S``.

The probe never touches mgtstack, so no change to the program can move it.
It mixes the kinds of work the verbs do: integer and float loops, dict
updates over string keys and numpy sorting.  It allocates under 1 MB, so it
does not move the verb process's peak RSS.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.001  # median probe time on a nominal machine
PROBE_INTERVAL_S = 0.05
EDGE_PROBES = 5  # probes right before and right after the verb

_WORDS = [f"w{(i * 7919) % 1543}x{i % 37}" for i in range(300)]
_ARRAY = np.random.default_rng(2).random(4000)


def probe_work() -> float:
    acc = 0
    for i in range(5000):
        acc += i * i
    total = 0.0
    for i in range(1, 2000):
        total += math.log(i)
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    total += float(np.argsort(_ARRAY, kind="mergesort")[0])
    return total + acc + len(counts)


class SpeedProbe:
    """Context manager that probes the machine's speed around and during a block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _probe(self, *_) -> None:
        started = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(EDGE_PROBES):
            self._probe()
        self._edge = len(self.samples)
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.samples[self._edge :])
        for _ in range(EDGE_PROBES):
            self._probe()


def speed_factor(samples: list[float]) -> float:
    """Current slowdown against the nominal machine (> 1 means slower)."""
    return statistics.median(samples) / NOMINAL_S
