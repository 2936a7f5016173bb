"""Sample statistics and op accounting for the benchmark.

Kept free of any scatterlab import so the rules can be tested alone.
"""

import bisect
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value, samples beyond).  With n sorted samples the
    value is the one at rank n - beyond, so exactly `beyond` samples lie past
    it and the percentile is 100 * (n - beyond) / n.  Runs too short to leave
    `beyond` samples past any rank fall back to the median, and the count
    printed beside it says how many samples lie past that.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n > beyond:
        rank = n - beyond
        return 100.0 * rank / n, ordered[rank - 1], beyond
    rank = (n + 1) // 2
    return 100.0 * rank / n, ordered[rank - 1], n - rank


@dataclass
class Tally:
    """Outcome of every attempted op.

    An op fails when it raises, or gives an output its check rejects.  Such
    a failure on an input the program must accept makes the run incorrect.
    Inputs the program must refuse (malformed documents) fail the same way
    when they are not refused with a typed error, but that is the program's
    known robustness gap, counted in `failed` and not held against
    `correct`.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    first_wrong: Optional[str] = None

    def record(self, problem: Optional[str], refusal_expected: bool) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        reason = problem.split(":", 1)[0]
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if not refusal_expected:
            self.wrong += 1
            if self.first_wrong is None:
                self.first_wrong = problem

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class LatencySummary:
    ops: int
    inputs: int
    ops_per_s: float
    p50_ms: float
    tail_pct: float
    tail_ms: float
    tail_beyond: int


def summarize(by_input: Sequence[Sequence[float]]) -> LatencySummary:
    """Throughput, and median and tail latency in ms, from each pool
    input's op times.

    Throughput is every op over the summed time of every op, so a cost the
    program pays on only some passes (a first pass that warms a cache, a
    collection of its own garbage) counts in full.  The latency percentiles
    are taken over each input's median time, so a passing stall on one op
    moves neither of them and their sample count is the pool size whatever
    the number of passes.
    """
    per_input = [statistics.median(v) for v in by_input]
    pct, value, beyond = tail_percentile(per_input)
    ops = sum(len(v) for v in by_input)
    return LatencySummary(
        ops=ops,
        inputs=len(per_input),
        ops_per_s=ops / sum(sum(v) for v in by_input),
        p50_ms=statistics.median(per_input) * 1e3,
        tail_pct=pct,
        tail_ms=value * 1e3,
        tail_beyond=beyond,
    )


# --- machine-speed scaling ---------------------------------------------------
#
# On a shared machine the speed of the same Python code drifts by 20-40%
# over seconds to minutes.  A fixed reference kernel, timed between ops,
# drifts with it, so each op's wall time is scaled by REFERENCE_S over the
# kernel's time around that op: the figures read as on a machine where the
# kernel takes REFERENCE_S.  The kernel is the benchmark's own code and does
# not change with the program under test; the cyclic collector is off while
# it runs, so a collection of the program's garbage is never charged to it.

REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.15


def reference_kernel() -> int:
    """Deterministic pure-Python work: tuple sorting, dict and set churn."""
    keys = sorted(((i * 7919) % 251, (i * 104729) % 13, i % 7) for i in range(2000))
    table: Dict[tuple, int] = {}
    for k in keys:
        table[k[:2]] = table.get(k[:2], 0) + k[2]
    groups: Dict[int, set] = {}
    for (a, b), v in table.items():
        groups.setdefault(b, set()).add((a, v))
    frozen = [frozenset(g) for g in groups.values()]
    return sum(len(x & y) for x in frozen for y in frozen)


class SpeedMeter:
    """Times the reference kernel through a run and scales intervals by it."""

    def __init__(self, clock=time.perf_counter, kernel=reference_kernel):
        self.clock = clock
        self.kernel = kernel
        self.at: List[float] = []  # midpoint of each kernel run
        self.took: List[float] = []

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            self.kernel()
            end = self.clock()
        finally:
            if collecting:
                gc.enable()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def maybe_sample(self) -> None:
        if not self.at or self.clock() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of the
        interval, or of the two samples nearest it when none is that close."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < 2:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo, hi = max(0, mid - 1), min(len(self.at), mid + 1)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
