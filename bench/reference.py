"""Reference kernel: how fast the shared host runs at this moment.

On a small shared host the same protocol run can take twice as long from
one half-minute to the next, in CPU time as well as wall time, because the
cores themselves slow down. The benchmark therefore times this fixed kernel
next to every run and reports each time at a reference speed:

    reported = raw seconds * REFERENCE_S / (kernel seconds measured now)

The kernel is independent of the program under test, so a change to the
program moves the reported time and a change of host speed does not. The
kernel mixes the kinds of work the program does: small numpy reductions,
seeded generators and Python dict updates.

Do not change `reference_work` or REFERENCE_S: either rescales every timed
metric, and figures from before and after stop being comparable.
"""

from __future__ import annotations

import time

import numpy as np

# Typical time of one reference_work() on a 2-core Xeon VM at
# 2.0 GHz, so reported times read close to raw ones on that host.
REFERENCE_S = 0.0183


def reference_work() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    for row in rng.standard_normal((150, 5)):
        q25, q75 = np.quantile(row, [0.25, 0.75])
        acc += float(np.median(row)) - 0.5 * float(q75 - q25)
    for i in range(150):
        acc += float(np.random.default_rng([1, 2, i]).standard_normal())
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + counts[0]


def host_speed(repeats: int = 3) -> float:
    """REFERENCE_S over the mean of `repeats` kernel timings; below 1 when
    the host runs slower than the reference."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return REFERENCE_S * repeats / (time.perf_counter() - start)
