"""Times in seconds at a fixed reference speed of the processor.

On the 2-vCPU virtual machine the benchmark was written on, the cores are
shared with other tenants: the same Python loop runs about 1.6 times slower
whenever the other hardware thread of its core is busy, and that state
flips every few seconds.  The two vCPUs flip independently of each other,
and CPU time grows with wall time, so neither the other vCPU nor the
process clock can correct for it.  Over eight 30-second runs of the
big-fibres workload, its wall time, each operation the fastest of its
passes, spread by 22% (quartile distance over median).

So each pass samples the speed it is given while it runs.  A SIGALRM timer
runs a fixed reference chunk, the benchmark's own MVP simulator on fixed
vectors, in the pass's own thread every INTERVAL_S.  An operation's time
is then its wall time outside those chunks, each stretch scaled by
REFERENCE_S / (the chunk time measured around it): the time the operation
would take on a core as fast as the one the chunk measured REFERENCE_S on.
In 90 s of repeats of `mvpark table bipartite --max-m 7 --max-n 6`, the
wall time varied by 6.9% (coefficient of variation) and the scaled time
by 1.2%.  The chunk calls
nothing in mvparking, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_right
from time import perf_counter

from oracles import mvp_outcome

INTERVAL_S = 0.02
# The chunk's time on the host above while the other hardware thread of its
# core was idle; while that thread was busy it took about 0.26 ms.  Scaled
# times are therefore close to wall times on a core of one's own.
REFERENCE_S = 0.17e-3
VECTORS = [tuple(random.Random(k).randint(1, 10) for _ in range(10)) for k in range(100)]


def chunk() -> tuple[float, float]:
    """(start, end) of one run of the reference chunk."""
    start = perf_counter()
    for p in VECTORS:
        mvp_outcome(p)
    return start, perf_counter()


def scale(chunks: int = 9, warm_up: int = 3) -> float:
    """REFERENCE_S over the median of a few chunk times measured now.  The
    first chunks of a fresh interpreter run slower, before the interpreter
    has specialised the chunk's code, so they are not counted."""
    times = [end - start for start, end in (chunk() for _ in range(warm_up + chunks))]
    return REFERENCE_S / statistics.median(times[warm_up:])


class SpeedSampler:
    """Run the reference chunk every INTERVAL_S while the `with` block runs;
    afterwards `seconds(start, end)` converts a perf_counter interval inside
    the block into seconds at the reference speed."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.weights: list[float] = []

    def _sample(self, _signum=None, _frame=None) -> None:
        start, end = chunk()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> SpeedSampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        # A chunk hit by an interrupt reads slow; the median of three
        # neighbouring chunks keeps one such chunk from scaling its stretch.
        times = [end - start for start, end in zip(self.starts, self.ends)]
        self.weights = [REFERENCE_S / statistics.median(times[max(k - 1, 0):k + 2])
                        for k in range(len(times))]

    def seconds(self, start: float, end: float) -> float:
        """The time of [start, end] outside the chunks, each stretch between
        two chunks scaled by the weight of the chunk before it."""
        k = max(bisect_right(self.starts, start) - 1, 0)
        total = 0.0
        while k < len(self.starts) and self.ends[k] < end:
            lo = max(start, self.ends[k])
            hi = min(end, self.starts[k + 1]) if k + 1 < len(self.starts) else end
            if hi > lo:
                total += (hi - lo) * self.weights[k]
            k += 1
        return total
