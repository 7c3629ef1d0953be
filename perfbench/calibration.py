"""The calibration loop behind the benchmark's reference seconds.

On a shared host the same Python code runs tens of percent faster or
slower from minute to minute.  :func:`sample` times a fixed
interpreter-bound loop; it is the benchmark's own code, so it runs the
same on every commit, and its time tracks how fast the machine runs
Python at that moment.  It lives in its own module so that pool workers
can run it by name.

The loop reacts about twice as strongly as the trials do: over one set of
runs its time swung by 35–60% while trial times moved by 0–25%.
:func:`scale` therefore corrects by the square root of the measured
ratio.  Over four sets of 7–10 seeds, that gave the smallest worst-case
spread between seeds: no correction and full correction each reached
about 30% on some workload, the square root reached 18%.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Iterations of the loop.
ITERS = 60_000
#: Loop time of the reference machine, in seconds.
REF_S = 0.1


def sample(_: object = None) -> float:
    """Seconds for one run of the loop (heap, dict and integer work)."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, int]] = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for i in range(ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x, i))
        table[i & 1023] = (x, i)
        if i & 1:
            pop(heap)
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that turns measured seconds into reference seconds."""
    return (REF_S / statistics.median(samples)) ** 0.5
