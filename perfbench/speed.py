"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared host the time a piece of Python takes drifts by a quarter or more
over minutes, with whatever else the host runs: on a shared 2-core host a
fixed loop took anywhere from 43 to 88 ms within one minute, and CPU time
drifted with wall time. Op times are therefore rescaled to reference seconds:
the time the work would have taken on a machine where one `_loop` takes
REFERENCE_LOOP_S. The loop is timed right before and right after each op, for
DUTY of the op's duration, and the op is rescaled by the mean of the two.

The loop is the benchmark's yardstick: it must stay the same on every commit
the benchmark compares.
"""

from __future__ import annotations

import math
import time

REFERENCE_LOOP_S = 0.004
DUTY = 0.1


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _gaussian(i: int) -> float:
    u = (_mix(i) >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(1.0 - u)) * math.cos(6.283185307179586 * u)


def _loop() -> float:
    """Hashing, Box-Muller, small tuples and a trimmed mean: the same kinds of
    work the package does per sample."""
    rows = [tuple(_gaussian(i * 8 + c) for c in range(8)) for i in range(300)]
    acc = 0.0
    for row in rows:
        acc += sum(sorted(row)[1:-1]) / 6.0
    return acc


def loop_seconds(budget_s: float) -> float:
    """Mean duration of one loop, repeated until budget_s has passed (at
    least once)."""
    count = 0
    start = time.perf_counter()
    while True:
        _loop()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / count


class Yardstick:
    """Rescales consecutive pieces of timed work to reference seconds."""

    def __init__(self):
        self._last = loop_seconds(0.05)

    def rescale(self, seconds: float) -> float:
        after = loop_seconds(DUTY * seconds)
        speed = (self._last + after) / 2.0
        self._last = after
        return seconds * REFERENCE_LOOP_S / speed
