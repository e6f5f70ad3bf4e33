"""How fast the core runs: a fixed loop of the benchmark's own.

On a shared host a core runs this loop, and the program, about 1.4 times
slower while another tenant runs on its hyperthread sibling; this switches
every few seconds, independently on each core, and moved every CPU-time
median of the benchmark by up to 17 % between two sets of runs of the same
code.  The benchmark pins itself to one core, times the loop there next to
what it measures, and multiplies each CPU or set-up time by SPEED_REF_S over
the loop's time, so that its figures follow the program rather than the
neighbours.  The loop allocates nothing the garbage collector tracks and
touches a table of a few hundred kB, so the program's heap does not change
its time.
"""

from __future__ import annotations

import os
import statistics
import time

SPEED_TABLE = {i: i * 7919 % 10007 for i in range(4096)}
SPEED_REF_S = 0.35e-3  # the loop's CPU time on an uncontended core of the BENCH_0 machine
SPEED_EVERY_S = 0.02  # CPU seconds of ops between two timings of the loop


def speed_loop_s() -> float:
    """CPU seconds of the fixed loop, the median of three timings."""
    samples = []
    for _ in range(3):
        c0 = time.process_time()
        acc = 0
        for i in range(0, 200000, 100):
            acc = (acc * 3 + SPEED_TABLE[i * 31 % 4096] + i) % 65521
        samples.append(time.process_time() - c0)
    return statistics.median(samples)


def pin_one_core() -> None:
    """Run this process, and the processes it starts, on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
