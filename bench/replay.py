"""Kernel replay probes for the two layers the workloads reach only through
other layers: ordinal arithmetic and interval-tree navigation.

Each probe replays one kernel over operands taken from the workload's own
inputs and outputs, and reports the median time per call over a few
repeats, the probe loop's own call overhead (about 0.1 us) included.  A
fresh tree per call gives the cold figure; one tree that has already
answered every query gives the warm one.
"""

import random
import statistics
import time
from typing import Callable, Dict, List, Sequence

REPEATS = 5
ORDINAL_PAIRS = 4000


def _per_call(prepare: Callable[[], Sequence], call: Callable) -> float:
    """Median over REPEATS of the time per call of `call` on each argument
    tuple from `prepare()`, which runs untimed."""
    times = []
    for _ in range(REPEATS):
        args = prepare()
        start = time.perf_counter()
        for a in args:
            call(*a)
        times.append((time.perf_counter() - start) / len(args))
    return statistics.median(times)


def ordinal_probes(sl, ordinals: List, seed: int) -> Dict[str, float]:
    rng = random.Random(seed)
    pairs = [(rng.choice(ordinals), rng.choice(ordinals)) for _ in range(ORDINAL_PAIRS)]
    return {
        "ordinals.lt.ns": _per_call(lambda: pairs, lambda a, b: a < b) * 1e9,
        "ordinals.eq.ns": _per_call(lambda: pairs, lambda a, b: a == b) * 1e9,
        # hashes are cached on the object, so hash fresh equal copies
        "ordinals.hash.ns": _per_call(lambda: [(sl.Ordinal(a.terms),) for a, _ in pairs], hash) * 1e9,
        "ordinals.add.ns": _per_call(lambda: pairs, lambda a, b: a + b) * 1e9,
    }


def interval_probes(sl, levels: List, pairs: List, params) -> Dict[str, float]:
    warm = sl.IntervalTree(params)
    for alpha in levels:
        warm.orbit(alpha)
    for alpha, beta in pairs:
        warm.j_and_J(alpha, beta)
    once = [(alpha,) for alpha in levels]
    return {
        "intervals.orbit.us_cold": _per_call(
            lambda: [(sl.IntervalTree(params), alpha) for alpha in levels], lambda t, a: t.orbit(a)
        ) * 1e6,
        "intervals.orbit.us_warm": _per_call(lambda: once, warm.orbit) * 1e6,
        "intervals.j_and_J.us_warm": _per_call(lambda: pairs, warm.j_and_J) * 1e6 if pairs else 0.0,
        "intervals.path.us_warm": _per_call(lambda: once, warm.path) * 1e6,
    }
