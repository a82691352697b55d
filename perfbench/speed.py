"""Machine speed, measured with a fixed reference computation.

The shared 2-core machine this benchmark was tuned on changes speed by
20-60% for seconds to minutes at a time, in CPU time as much as in wall
time.  So every timed invocation is paired with a reference computation that
touches no opscale code (JSON decoding, small LAPACK calls and interpreted
Python: the mix the program runs), and its duration is scaled by the
reference's nominal time over the reference's local median.  That is the
time the invocation would take at the nominal speed.  A change to the
program moves the scaled time as much as the wall time; a change of machine
speed moves it far less.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.0045   # the reference's median time on that machine
WINDOW = 2           # references on each side in a job's local median

_rng = np.random.default_rng(0)
_G = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _G + _G.conj().T
_DOC = json.dumps({"re": _rng.standard_normal((40, 40)).tolist(),
                   "im": _rng.standard_normal((40, 40)).tolist()})


def reference() -> float:
    """Seconds taken by the reference computation, once."""
    start = time.perf_counter()
    json.loads(_DOC)
    for _ in range(10):
        np.linalg.eigh(_H)
    total = 0
    for i in range(15000):
        total += i * i % 7
    return time.perf_counter() - start


def sample(n: int = 5) -> tuple[float, float]:
    """(median of n references after one warm-up, seconds spent on all)."""
    start = time.perf_counter()
    reference()
    median = statistics.median(reference() for _ in range(n))
    return median, time.perf_counter() - start


def local_medians(refs, window: int = WINDOW) -> list[float]:
    """Each reference replaced by the median of its window."""
    return [statistics.median(refs[max(0, i - window):i + window + 1])
            for i in range(len(refs))]
