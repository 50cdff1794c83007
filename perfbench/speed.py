"""Reference-speed scaling of measured times.

On a shared virtual machine the speed of a vCPU is not constant.  A
fixed pure-Python loop here takes from 1x to 2x its best time, with slow
spells of ~100 ms, and its one-second median drifts by a third over
minutes as neighbours come and go; at other times the interpreter keeps
its speed while reads from the shared cache slow by 1.4x.  A benchmark
that reports plain wall time on such a machine measures the neighbours
as much as the program.

So each process that hosts the program creates a :class:`Probe` before
its set-up and times it between the operations it measures: before
every in-process tick, and every 100 ms in the service host.  The probe
is a fixed piece of work of both kinds — the interpreter loop and random
reads from an 8 MiB table — and every time figure is reported in
*reference* units: the measured time scaled by
``REFERENCE_PROBE_S / probe time``.  A rate is divided by the same
factor.  A reference millisecond is what the machine does in a
millisecond when the probe takes :data:`REFERENCE_PROBE_S`.  The
human-readable lines of a run print the median probe time, so wall
figures can be recovered.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from perfbench import stats

#: Iterations of the interpreter loop.
SPIN_LOOPS = 10_000

#: Entries (float64) of the table the probe reads, and reads per probe.
#: The table is larger than a core's L2 cache, so the reads go to the
#: shared cache, where neighbours compete.
TABLE_ENTRIES = 1 << 20
TABLE_READS = 100_000

#: Seconds the probe takes on the reference machine.
REFERENCE_PROBE_S = 0.001

#: Probes taken right after a set-up, to scale the set-up time.
SETUP_PROBES = 30

#: Units of times (multiplied by the factor) and of rates (divided by it);
#: figures in other units are left alone.
TIME_UNITS = frozenset({"ms", "s"})
RATE_UNITS = frozenset({"1/s"})


def spin() -> float:
    """Seconds the interpreter loop takes right now."""
    started = perf_counter()
    total = 0
    for value in range(SPIN_LOOPS):
        total += value
    return perf_counter() - started


class Probe:
    """The calibration work of one process.

    Create it before the set-up it is to scale: its table then stays
    resident from start to end, so the process's peak RSS is the
    program's plus exactly :attr:`nbytes`.
    """

    def __init__(self) -> None:
        self._table = np.arange(TABLE_ENTRIES, dtype=np.float64)
        self._reads = np.random.default_rng(0).integers(0, TABLE_ENTRIES, TABLE_READS)

    @property
    def nbytes(self) -> int:
        """Bytes the probe holds."""
        return self._table.nbytes + self._reads.nbytes

    def time(self) -> float:
        """Seconds the probe takes right now."""
        loop = spin()
        # A first, untimed pass brings the table back into the shared
        # cache, so how much of it the program evicted does not count.
        self._table.take(self._reads)
        started = perf_counter()
        self._table.take(self._reads)
        return loop + perf_counter() - started

    def times(self, count: int) -> List[float]:
        """*count* consecutive :meth:`time` readings."""
        return [self.time() for _ in range(count)]


def factor(probe_s: float) -> float:
    """Scale from measured to reference time when the probe takes *probe_s*."""
    return REFERENCE_PROBE_S / probe_s


def window_factor(timings: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """:func:`factor` of the median of the timings ``(taken at, seconds)``
    taken between *start* and *end*, or of all of them when none was."""
    inside = [seconds for at, seconds in timings if start <= at <= end]
    return factor(stats.median(inside or [seconds for _, seconds in timings]))


def scale(values: Dict[str, float], spec, by: float) -> Dict[str, float]:
    """*values* in reference units: times times *by*, rates over *by*.

    *spec* is a list of ``(name, unit)``; names it lacks are copied.
    """
    units = dict(spec)
    scaled = {}
    for name, value in values.items():
        unit = units.get(name)
        if unit in TIME_UNITS:
            value = value * by
        elif unit in RATE_UNITS:
            value = value / by
        scaled[name] = value
    return scaled
