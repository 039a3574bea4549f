"""Host-speed probe shared by the set-up and plain-pass timings.

On a shared host the speed of the same pure-Python code drifts by up to
~30% within seconds.  The benchmark times this fixed loop right before
and after each timed step and scales the step to the reference host
speed: on the 2-core container the benchmark was built on, the loop
takes ``REF_S``.  README.md ("Host-speed scaling") gives the evidence.
"""

from __future__ import annotations

import statistics
import time

ITERS = 60_000
REPEATS = 3
REF_S = 0.0057


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(ITERS):
        s += i * i % 7
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the fixed loop takes now: the median of a few repeats,
    so one interrupt cannot skew the scale of a long job."""
    return statistics.median(_loop() for _ in range(REPEATS))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probes either side."""
    return seconds * REF_S * 2 / (before + after)
