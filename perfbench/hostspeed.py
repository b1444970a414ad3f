"""How fast the host runs right now, from a fixed pure-Python workload.

The benchmark runs on a few cores of a shared host whose speed moves by
up to 40% over minutes, as other guests come and go: the fastest
repetition of a 30-second window took anywhere from 0.51 to 0.72 s for
the same ``tours`` run.  Counting more repetitions does not remove
that; timing a fixed workload beside the program does, because the
host slows both alike (on the 2-core Xeon VM the benchmark was built
on, the median run times of windows of 15 ``tours`` repetitions ranged
over 0.28 of their median unscaled and over 0.09 scaled).

:func:`calibrate` builds, pickles, unpickles and counts plain objects —
the kind of interpreter work the program does — with no code of the
program.  Each repetition runs it before and after its timed phases,
and ``run.py`` scales the wall-clock durations of the batch workloads'
repetitions by ``NOMINAL_S`` over the mean of the two: they read as
seconds on a host where the calibration takes ``NOMINAL_S``.  A slower
program is slower next to the same calibration, so it still shows.
"""

from __future__ import annotations

import pickle
import time

#: Seconds :func:`calibrate` took on the 2-core Xeon VM the benchmark
#: was built on, in a quiet period.  It only sets the unit of the
#: scaled figures.
NOMINAL_S = 0.1


class _Item:
    def __init__(self, i: int):
        self.i = i
        self.name = f"n{i}"
        self.tags = [i, i + 1]


def calibrate() -> float:
    """Wall seconds of one fixed batch of interpreter work."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(4):
        items = pickle.loads(pickle.dumps([_Item(i) for i in range(4000)]))
        for item in items:
            counts[item.name] = counts.get(item.name, 0) + len(item.tags)
        sorted(counts, key=counts.get)
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """The factor that turns this host's seconds into nominal ones."""
    return NOMINAL_S / (sum(samples) / len(samples))
