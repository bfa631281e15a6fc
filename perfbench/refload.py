"""A fixed reference load that measures how fast the host is, while it runs.

The benchmark's host is a shared virtual machine whose speed drifts: the same
code takes up to 1.8 times as long for stretches of seconds to minutes, in
CPU time as well as wall time, with no steal time reported.  A run that falls
in a slow stretch reads slow however its own samples are summarised.

``chunk`` does the three kinds of work the library's hot paths do (integer
arithmetic with dict stores, hashing tuples into sets, numpy gathers through
a small table) in fixed amounts that do not depend on taumonoid.  A
``Sampler`` runs one chunk from a timer signal every ``INTERVAL_S`` while a
pass runs, so the host's speed is known at every moment of the pass, inside
long operations too.  An interval's time is then reported at the reference
speed: its own time, less the chunks run inside it, times ``NOMINAL_S`` over
the mean chunk time around it.  Because the reference never calls the
library, a change to the library moves only the interval's own time.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# about the mean chunk time inside a pass on a 2-CPU Intel Xeon virtual
# machine in its fast state; any fixed value would do, it only sets the
# scale of the reported times
NOMINAL_S = 0.0005
INTERVAL_S = 0.005
# the speed of an interval is the mean of at least this many chunks
# around it, so that short intervals are not judged by one chunk
MIN_CHUNKS = 16

_RNG = np.random.default_rng(20090606)
_TABLE = _RNG.integers(0, 64, size=(64, 64), dtype=np.int32)
_COLUMN = _RNG.integers(0, 64, size=1 << 11, dtype=np.int32)
_WORD = tuple((chr(97 + i % 4), i % 3 == 0) for i in range(12))


def chunk() -> None:
    """One fixed piece of reference work (about half a millisecond)."""
    acc, store = 0, {}
    for i in range(1000):
        acc += i * i % 7
        store[i % 512] = acc
    seen = set()
    for i in range(200):
        w = _WORD[i % 5:] + _WORD[:i % 5]
        if w not in seen:
            seen.add(w)
        store.get(w)
    v = np.zeros(len(_COLUMN), dtype=np.int32)
    for _ in range(8):
        v = _TABLE[v, _COLUMN]


class Sampler:
    """Runs ``chunk`` every ``INTERVAL_S`` of wall time from SIGALRM."""

    def __init__(self):
        self.starts: list = []       # perf_counter at each chunk's start
        self.ends: list = []
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop, once at least ``MIN_CHUNKS`` chunks have run."""
        while len(self.starts) < MIN_CHUNKS:
            time.sleep(INTERVAL_S)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:           # a late tick while the last chunk still runs
            return
        self._busy = True
        t0 = time.perf_counter()
        chunk()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._busy = False

    def chunk_time(self, t0: float, t1: float) -> float:
        """Time spent in chunks that started inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def speed(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the mean chunk time around [t0, t1].

        The chunks that started inside the interval, or the ``MIN_CHUNKS``
        nearest its middle when fewer did.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi - lo < MIN_CHUNKS:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_CHUNKS // 2, len(self.starts) - MIN_CHUNKS))
            hi = min(len(self.starts), lo + MIN_CHUNKS)
        if hi <= lo:
            raise RuntimeError("no reference chunk ran")
        mean = sum(self.ends[i] - self.starts[i] for i in range(lo, hi)) / (hi - lo)
        return NOMINAL_S / mean

    def reference_time(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] less its chunks, at the reference speed, in s."""
        return (t1 - t0 - self.chunk_time(t0, t1)) * self.speed(t0, t1)
