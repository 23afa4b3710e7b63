"""A fixed reference loop that measures how fast the host runs right now.

    python3 perfbench/reference.py    # prints the loop's time in seconds

On a shared host the same work can take 1.7 times as long for tens of seconds
while other tenants run. run.py runs this script between repetitions and
scales each repetition's timings by ``NOMINAL_S / reference``, the reference
being the mean of the runs just before and just after it. A timing so reads
as if the loop had taken NOMINAL_S (in run.py) seconds. It runs in its own
process so that neither its table nor numpy enlarge the benchmark process,
whose memory high-water mark every child inherits until it execs.

The loop mimics the training hot path without calling swarmherd: a
multinomial split of a 4-vector, a reward dot product, a mixed-radix state
index, a row argmax and a TD write into a table of the headline size. It must
stay frozen: changing it rescales every timing metric of the benchmark.
"""

from __future__ import annotations

import time

import numpy as np

_ITERATIONS = 4000
_SPLIT = np.array([0.1, 0.1, 0.8])
_TARGET = np.array([0.1, 0.4, 0.4, 0.1])
_START = np.array([40, 10, 10, 40])
_TABLE = np.zeros((11 ** 4 * 4, 5))


def reference_seconds() -> float:
    """Seconds the loop takes now; the same work on every call."""
    table = _TABLE
    table.fill(0.0)  # also faults every page in before the clock starts
    rng = np.random.default_rng(0)
    x = _START
    s = 0
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        v = i & 3
        draw = rng.multinomial(int(x[v]), _SPLIT)
        y = x.copy()
        y[v] = draw[-1]
        y[(v + 1) & 3] += draw[0]
        y[(v + 2) & 3] += draw[1]
        diff = y / 100 - _TARGET
        r = -float(np.dot(diff, diff))
        idx = 0
        for k in range(3, -1, -1):
            idx = idx * 11 + min(int(10 * float(y[k]) / 100 + 0.5), 10)
        s2 = v + 4 * idx
        row = table[s2]
        best = row[0]
        for a in range(1, 5):
            if row[a] > best:
                best = row[a]
        table[s, v] += 0.3 * (r + 0.9 * best - table[s, v])
        s = s2
        x = y if y.min() > 0 else _START
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(reference_seconds())
