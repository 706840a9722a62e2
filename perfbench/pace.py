"""Core-speed sampling inside a benchmark child.

On a shared host a core's speed changes while a child runs: the slow state
takes about 1.6 times as long as the fast one, and the share of slow time
changes from minute to minute.  So a child's wall time alone says as much
about the host as about the program.  `start` makes the child run a fixed
pure-Python probe every INTERVAL_S of its CPU time, on its own core, and
write each probe's duration when it exits.  `scaled` turns the child's wall
time into its time at the reference speed, at which the probe takes
REFERENCE_S.  Standard library only, so run.py can import it without numpy.
"""

from __future__ import annotations

import atexit
import json
import signal
import time

INTERVAL_S = 0.025
# The probe's time on a core in the fast state of the host the benchmark
# was written on (Intel Xeon, 2 vCPUs, Python 3.11.7): the 5th percentile of
# 5689 samples taken in two flow-sphere-u2 runs.  The slow state's samples
# took 205 to 245 microseconds.
REFERENCE_S = 0.000132


def probe() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    begin = time.perf_counter()
    table = {}
    for i in range(1500):
        table[i & 63] = i * i % 7
    return time.perf_counter() - begin


def start(path: str) -> None:
    """Sample the core's speed until exit, then write the samples to `path`."""
    samples: list[float] = []
    signal.signal(signal.SIGPROF, lambda signum, frame: samples.append(probe()))
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def write() -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        with open(path, "w") as handle:
            json.dump(samples, handle)

    atexit.register(write)


def read(path: str) -> list[float]:
    try:
        with open(path) as handle:
            samples = json.load(handle)
    except (OSError, ValueError):
        return []
    return samples if isinstance(samples, list) else []


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference speed the child's core ran."""
    return sum(samples) / len(samples) / REFERENCE_S


def scaled(wall_s: float, samples: list[float]) -> float:
    """A child's wall time without its probes, at the reference speed."""
    return (wall_s - sum(samples)) / slowdown(samples)
