"""A fixed piece of reference work, timed next to each measured call.

On a shared host the speed of a core changes for stretches of under a
second to minutes, by up to 1.9x, because of work outside the benchmark's
process (see README.md, "Why times are taken against reference work"). Such
a stretch slows the reference work as much as the call next to it. Each
gated time is therefore reported as its ratio to the reference work timed
beside it, scaled by REFERENCE_S: seconds at the speed at which the
reference work takes REFERENCE_S.

The reference work does not call summit, so a change to summit moves only
the measured side of the ratio. It mixes what summit's engines do in pure
Python: heap pushes and pops of (float, tuple) entries, float additions,
list building, a sort and `math.log`.
"""

from __future__ import annotations

import heapq
import math
import random
from time import perf_counter

# Nominal time of one reference pass: about its time on the 2-core VM on
# which the benchmark was tuned, at full speed.
REFERENCE_S = 0.002

_rng = random.Random(20190701)
_VALUES = [_rng.random() for _ in range(1600)]


def _reference_work() -> int:
    heap: list[tuple[float, tuple[int, int]]] = []
    for i, x in enumerate(_VALUES):
        heapq.heappush(heap, (-x, (i, i >> 3)))
    sums = []
    while len(heap) > 800:
        value, (i, j) = heapq.heappop(heap)
        sums.append(math.log(1.0 - value) + _VALUES[j])
    sums.sort(reverse=True)
    return len(sums)


def reference_time() -> float:
    """Wall time of one pass of the reference work."""
    start = perf_counter()
    _reference_work()
    return perf_counter() - start
