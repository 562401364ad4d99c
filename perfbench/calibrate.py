"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core machine the same code ran 25-60% slower or faster from
one minute to the next, and every workload moved together.  A fixed
pure-Python kernel that shares no code with the library slows down with it
(correlation 0.8-0.9 over 5 s windows).  The loop runs the kernel after
every ``run.WINDOW_S`` of timed work, outside the timed calls, and scales
each item's time by ``REFERENCE_S / kernel time`` around it, so times are
reported in reference seconds: seconds on a machine where the kernel takes
``REFERENCE_S``.  Raw times are kept in each run's detail file.
"""

from __future__ import annotations

from time import perf_counter

# About the kernel's median on the 2-core x86-64 machine, Python 3.11, on
# which the benchmark was defined.  Any fixed value works; it sets the scale.
REFERENCE_S = 0.028

# A fixed 12-vertex graph as neighbour bitmasks.
_MASKS = (
    0b000010010110, 0b000100001001, 0b001000100001, 0b010001000001,
    0b100000000100, 0b000001001010, 0b000000100001, 0b000000010100,
    0b000100000000, 0b010000100010, 0b000010000100, 0b101000001000,
)


def _kernel() -> int:
    """Bitmask component search over vertex subsets, with dict and frozenset
    building: the kinds of work the library's layers do."""
    masks = _MASKS
    table = {}
    total = 0
    for avail in range(1, 1 << 12):
        a = avail
        comps = 0
        while a:
            comp = frontier = a & -a
            while frontier:
                nxt = 0
                t = frontier
                while t:
                    b = t & -t
                    t ^= b
                    nxt |= masks[b.bit_length() - 1]
                frontier = nxt & a & ~comp
                comp |= frontier
            a &= ~comp
            comps += 1
        table[avail] = frozenset((comps, avail.bit_count(), avail & 7))
        total += comps
    return total + len(set(table.values()))


class Calibration:
    """Kernel timings taken between windows of timed work."""

    def __init__(self):
        self.samples: list[float] = []
        _kernel()  # the first call pays for warming up; keep it out of samples

    def sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        _kernel()
        self.samples.append(perf_counter() - t0)

    @property
    def window(self) -> int:
        """Index of the window that timed work done now belongs to."""
        return len(self.samples) - 1

    def factor(self, window: int) -> float:
        """Reference seconds per second for work in ``window``, from the
        kernel timings taken before and after it."""
        around = self.samples[window : window + 2]
        return REFERENCE_S * len(around) / sum(around)
