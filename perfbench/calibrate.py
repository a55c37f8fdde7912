"""Host-speed calibration for the timed spans.

On a shared host the speed of a virtual CPU drifts by up to ~50% between
periods that last from about a second to minutes, in CPU time as much as
in wall time (it is not steal time).  So every timed span is paired with
a measure of the host's speed while it ran: `chunk()`, a fixed piece of
pure-Python work (integer arithmetic and stores into a small dict) that
does not touch miflab, is timed EDGE_CHUNKS times right before the span,
once every INTERVAL_S during it (from a SIGALRM handler, so the samples
follow a slow period that starts or ends inside a long span) and
EDGE_CHUNKS times right after it.  The time spent in the chunks inside
the span is taken out of it.  run.py rescales each span to the host
speed at which one chunk takes `REFERENCE_S`:

    normalized = raw * REFERENCE_S / mean(chunk durations)

A change to miflab changes the raw time and not the chunk, so it moves
the normalized time by the same factor.  `REFERENCE_S` is about what one
chunk takes on an unloaded 2-vCPU VM with Python 3.11, so normalized and
raw seconds are of the same size.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.0005
INTERVAL_S = 0.1
EDGE_CHUNKS = 20


def chunk() -> int:
    s = 0
    seen: dict = {}
    for i in range(3000):
        s += i * i % 7
        seen[i * 7919 % 4099] = s
    return s


def timed_chunks(n: int = EDGE_CHUNKS) -> float:
    """Mean duration of `n` chunks run back to back."""
    start = time.perf_counter()
    for _ in range(n):
        chunk()
    return (time.perf_counter() - start) / n


class Sampler:
    """Chunk timings before, during and after one span.

        sampler = Sampler()
        t0 = sampler.start()
        ...                      # the span
        seconds = sampler.stop(t0)
        sampler.unit_s           # mean chunk duration
    """

    def __init__(self):
        self.durations: list[float] = []
        self._inside = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        chunk()
        took = time.perf_counter() - start
        self.durations.append(took)
        self._inside += took

    def start(self) -> float:
        for _ in range(EDGE_CHUNKS):
            self._tick()
        self._inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return time.perf_counter()

    def stop(self, started: float) -> float:
        """End the span begun at `started`; return its length without the
        chunks that ran inside it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - started - self._inside
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_CHUNKS):
            self._tick()
        return seconds

    @property
    def unit_s(self) -> float:
        return statistics.fmean(self.durations)
