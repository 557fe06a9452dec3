"""A fixed amount of the benchmark's own work, timed to rescale op times.

The machine this benchmark runs on changes speed by up to a half for
seconds to minutes at a time, as neighbours load shared cores.  So ops are
timed against this yardstick and reported at yardstick speed: an op of wall
time ``t`` counts as ``t * YARDSTICK_MS / y``, where ``y`` is the median
yardstick time sampled while the op ran and shortly before and after.  The
yardstick never calls the program, so a change to the program cannot change
it.

The yardstick sorts a fixed list of 3000 integer triples.  Its time grows
with the machine's load in proportion to the program's op times (a log-log
slope near 1 on the ``corpus``, ``moved`` and ``search`` ops).  A tight
loop of small-dict polynomial arithmetic does not do: against it the ops
slow down only about 0.7 times as much in log terms, so rescaled ops would
read several per cent slower whenever the machine is fast.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

# Nominal yardstick time: a rescaled time reads as wall time on a machine on
# which the yardstick takes exactly this long (about this machine's speed
# when its neighbours are idle).
YARDSTICK_MS = 2.2

SAMPLE_INTERVAL_S = 0.05  # wall time between yardstick samples
WINDOW_MARGIN_S = 1.0  # an op's yardstick is the median of samples this close to it

_rng = random.Random(0)
_TRIPLES = [(_rng.randrange(1 << 30), _rng.randrange(1 << 20), _rng.randrange(99))
            for _ in range(3000)]


def yardstick_s() -> float:
    """Wall seconds for one fixed batch of sorts."""
    t0 = time.perf_counter()
    for _ in range(3):
        sorted(_TRIPLES)
    return time.perf_counter() - t0


class Sampler:
    """Times the yardstick every ``SAMPLE_INTERVAL_S`` of wall time from a
    SIGALRM handler, so an op is sampled while it runs.  ``spent_s`` is the
    total time spent in the handler, which callers subtract from their op
    times.

    The cyclic garbage collector is off while the yardstick runs.  Otherwise
    the yardstick's allocations could set off a collection of the program's
    objects, and that cost, which belongs to the program, would be moved out
    of the op and into the divisor.
    """

    def __init__(self) -> None:
        self.samples: list = []  # (perf_counter at start, yardstick seconds)
        self.spent_s = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            y = yardstick_s()
        finally:
            if gc_was_on:
                gc.enable()
        self.samples.append((t0, y))
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def yard_s(self, t0: float | None = None, t1: float | None = None) -> float:
        """Median yardstick time sampled within ``WINDOW_MARGIN_S`` of
        [t0, t1], or over the whole sampling when no interval is given."""
        ys = [y for t, y in self.samples
              if t0 is None or t0 - WINDOW_MARGIN_S <= t <= t1 + WINDOW_MARGIN_S]
        return statistics.median(ys or [y for _, y in self.samples])
