"""Machine-speed probe used to scale the benchmark's times.

On a machine shared with other tenants the same Python code runs up to
about 1.6 times slower for seconds or minutes at a time, depending on what
the neighbours do with the shared cores, caches and memory.  The benchmark
therefore times a fixed reference loop between its timed operations (and,
in long ones, every quarter second during them) and reports each
operation's time scaled to a nominal speed:

    scaled = raw * NOMINAL_S / median(reference loop times within WINDOW_S
                                      of the operation)

so a value reads as the time the operation would take when the reference
loop takes NOMINAL_S.  Times of whole interpreter runs (set-up, CLI
commands) depend on process start-up more than on the loop, so run.py
scales them the same way by the time of `python3 -s -c pass` instead.
Raw times are kept in the results file.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Reference loop time on an otherwise idle core of the baseline machine
# (2 vCPUs, Python 3.11.7); it fixes the scale, not the comparison.
NOMINAL_S = 0.0025
WINDOW_S = 1.0

# A working set larger than a core's L2 cache, and Fraction polynomials: the
# slow phases come from cache and memory contention as much as from the core,
# and hit the package's rational arithmetic hardest.
_MASK = (1 << 16) - 1
_TABLE = [(i * 7919) % 100003 for i in range(_MASK + 1)]
_POLY = tuple(Fraction(i + 1, 2 * i + 3) for i in range(6))


def probe() -> float:
    """Seconds taken by the reference loop: dependent reads across a large
    table, dict stores of tuples, and products of Fraction polynomials."""
    t0 = time.perf_counter()
    table: dict[tuple, int] = {}
    j = 0
    for i in range(3000):
        j = _TABLE[(j * 40503 + i) & _MASK]
        table[(j & 1023, i & 3)] = j
    for _ in range(8):
        poly = _POLY
        for _ in range(2):
            prod = [Fraction(0)] * (2 * len(poly) - 1)
            for i, x in enumerate(poly):
                for k, y in enumerate(poly):
                    prod[i + k] += x * y
            poly = tuple(prod[:len(_POLY)])
    return time.perf_counter() - t0


class SpeedLog:
    """Timestamped reference probes of one process.  `reference` is the
    probe to time (default: the loop above) and `nominal` its time at the
    nominal speed."""

    def __init__(self, reference=probe, nominal: float = NOMINAL_S):
        self.reference = reference
        self.nominal = nominal
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        stamp = time.monotonic()
        self.probes.append((stamp, self.reference()))

    def probe_seconds(self) -> float:
        return sum(d for _, d in self.probes)

    def factor(self, start: float, end: float) -> float:
        """Scale factor for an operation that ran from start to end
        (time.monotonic stamps)."""
        near = [d for t, d in self.probes
                if start - WINDOW_S <= t <= end + WINDOW_S]
        return self.nominal / statistics.median(
            near or [d for _, d in self.probes])

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end without the probes in between, each
        stretch between two probes scaled by its own factor: the speed can
        change within a long span."""
        total, t = 0.0, start
        for stamp, seconds in self.probes + [(end, 0.0)]:
            if start <= stamp <= end:
                total += max(0.0, stamp - t) * self.factor(t, stamp)
                t = stamp + seconds
        return total
