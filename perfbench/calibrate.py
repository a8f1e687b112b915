"""A fixed reference routine that measures how fast this machine runs right now.

On a shared host the speed a process gets can change by 2x within seconds,
as other guests load the same cores, and the slow and fast phases last from
seconds to minutes.  Wall-clock task times then measure the neighbours as
much as the program.  The benchmark therefore runs ``spin`` between tasks and
scales each task's wall time by ``REF_S / spin time`` next to it: the result
is in *reference seconds*, the time the task takes when ``spin`` takes
``REF_S`` seconds.  Slow phases stretch a task and the spins beside it alike,
so the ratio, and its median over a run, stays put.

``spin`` imitates netgoods' hot path (Python loops of scalar numpy calls and
float arithmetic, as in the per-player bisections) without calling netgoods,
so a faster or slower netgoods never changes it.
"""

from __future__ import annotations

import time

import numpy as np

#: spin's duration on the reference machine at its full speed, in seconds
REF_S = 0.1
_REPS = 3000


def spin() -> float:
    """A fixed amount of interpreter and scalar-numpy work; returns a checksum."""
    acc = 0.0
    for r in range(_REPS):
        a, b = 0.0, 1.0
        shift = 0.1 * (r % 7)
        for _ in range(8):
            m = 0.5 * (a + b)
            k = np.asarray(m + shift, dtype=float)
            slope = float(np.where(k <= 2.0, 5.0 - 2.0 * k, 0.0)) - float(np.asarray(0.8 * m))
            if slope <= 2.5:
                b = m
            else:
                a = m
        acc += a
    return acc


def spin_s() -> float:
    """Seconds one ``spin`` takes now."""
    start = time.perf_counter()
    spin()
    return time.perf_counter() - start
