"""Host-speed correction for timings on a machine whose speed drifts.

On a shared 2-vCPU host the same pure-Python work was measured taking
0.26 s for minutes, then 0.16 s for minutes, then 0.28 s.  Raw times of
runs made minutes apart then differ by far more than any bound worth
checking.  So every timing is taken together with samples of a fixed
reference computation, and is reported scaled to a nominal host:

    corrected = measured * NOMINAL_REF_S / median(reference samples)

The reference runs in the same process as the work it corrects, while that
work runs (a ``SIGALRM`` sample every ``PERIOD_S``), plus a few samples
before and after.  Each timed interval is corrected by the samples taken
during it, or by the ``NEAREST`` samples when it is shorter than that, so
that a speed change within a run is followed.  The time the samples take
is kept in ``spent`` so that timed code can take it out of its own
measurements.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from dataclasses import dataclass

#: Seconds one reference chunk takes on the nominal host.  Corrected times
#: are "seconds on a host where reference_chunk() takes this long".
NOMINAL_REF_S = 0.0028
PERIOD_S = 0.2
BRACKET = 5  # samples taken before and after the timed work
NEAREST = 9  # fewest samples that correct one interval


@dataclass(frozen=True, slots=True)
class _Subset:
    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(self.bits)


_FAMILY = sorted({(a | b) & 0xFF for a in range(0, 256, 7) for b in (1, 2, 4, 8, 16)})


def reference_chunk():
    """Fixed pure-Python work of the kind fintop does: frozen slotted
    instances, tuples, sorting, set membership and pairwise bit checks, and
    a least relabeling over permutations.  A tight integer loop tracked the
    host's speed worse: it sped up more than fintop did in fast phases."""
    members = tuple(_Subset(m, 8) for m in _FAMILY)
    masks = {m.bits for m in members}
    missing = 0
    for i, a in enumerate(members[:40]):
        for b in members[i + 1 : i + 20]:
            missing += (a.bits & b.bits not in masks) + (a.bits | b.bits not in masks)
    best = None
    for perm in itertools.permutations(range(5)):
        cand = tuple(
            sorted(sum(1 << perm[p] for p in range(5) if m >> p & 1) for m in _FAMILY[:12])
        )
        if best is None or cand < best:
            best = cand
    return missing, best


def sample() -> float:
    t0 = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Multiply a measured time by this to get the corrected time."""
    return NOMINAL_REF_S / statistics.median(samples)


class HostSpeed:
    """Samples the reference before, during (periodically) and after a
    ``with`` block, and corrects intervals timed inside it."""

    def __init__(self, periodic: bool = True) -> None:
        self.periodic = periodic
        self.starts: list[float] = []  # ascending
        self.samples: list[float] = []
        self.spent = 0.0

    def _record(self) -> float:
        start = time.perf_counter()
        took = sample()
        self.starts.append(start)
        self.samples.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        self.spent += self._record()

    def __enter__(self) -> "HostSpeed":
        for _ in range(BRACKET):
            self._record()
        if self.periodic:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        for _ in range(BRACKET):
            self._record()

    def corrected(self, took: float, start: float, end: float) -> float:
        """``took`` seconds measured between ``start`` and ``end``, corrected
        by the samples in that interval, or the nearest NEAREST ones."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = lo + NEAREST
        return took * factor(self.samples[lo:hi])
