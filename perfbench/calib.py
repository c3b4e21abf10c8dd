"""Machine-speed probe: a fixed pure-Python kernel of a few milliseconds,
timed again and again while an op runs, so that op times can be scaled
to a reference speed.

The 2-core VMs this benchmark runs on switch between a fast and a slow
speed, about 1.7x apart, every few seconds, for reasons invisible from
inside (other tenants of the host; CPU time matches wall time).  An op
of a few seconds catches a different mix of the two each time, and a
run of 25 s cannot average it out.  So every untraced op interpreter
times `kernel` five times after import, then every INTERVAL_S of wall
time from a timer signal while the op runs.  If the kernel took k
seconds in a sample, the machine ran at PROBE_REF_S / k of the reference
speed then; an op's time multiplied by the mean of that ratio over its
samples is the time the op would take at the reference speed.

The kernel does the work semibasis spends most of its time on, Gaussian
elimination over F_p on small matrices, without importing it, so a
change to semibasis cannot move it.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from statistics import mean

# The kernel's median time, in seconds, over the runs the bounds were
# set from (2-core VM, Python 3.11).
PROBE_REF_S = 0.0034
INTERVAL_S = 0.1
SETUP_SAMPLES = 5

P_SMALL, P_MID = 7, 10007
_rng = random.Random(0)
SMALL = [[_rng.randrange(P_SMALL) for _ in range(6)] for _ in range(6)]
MID = [[_rng.randrange(P_MID) for _ in range(40)] for _ in range(12)]


def rank_mod(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kernel() -> int:
    return sum(rank_mod(SMALL, P_SMALL) for _ in range(40)) + rank_mod(MID, P_MID)


def speed(samples: list[float]) -> float:
    """How many times faster than the reference the machine ran, on
    average over the wall time the samples were spread over."""
    return mean(PROBE_REF_S / s for s in samples)


class Sampler:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_) -> None:
        # with the collector paused, so that the op's heap stays out
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)
        if enabled:
            gc.enable()

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.samples
