"""The benchmark's four output digests at seed 5, and the pipeline's at a
second seed.

Each workload's input pool is built with the package this session has
already imported and run once through `bench/run.py`'s `Checker`, the
judge of a benchmark run: every op must pass its check, and the digest of
the outputs must match the one every benchmark run at that seed prints.  A
change that moves a digest changes what the library computes; the second
pipeline seed catches a change that shows only on other pairs.
"""

import sys
from pathlib import Path

import pytest

import scatterlab
import scatterlab.cli  # noqa: F401  (the documents workload calls sl.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGESTS = {
    "pipeline": "7f9a75d1706c749b",
    "schedule": "0e2a5bef5f695e6e",
    "search": "d132807404d2afb0",
    "documents": "4c74e7ee1f1406e4",
}


# the pipeline digest at a second seed, so that a change which shows only
# on pairs that seed 5 does not draw still moves a pinned digest
PIPELINE_SEED_11 = "f3db7772e8bd725e"


def one_pass_digest(name, seed, tmp_path):
    wl = WORKLOADS[name](scatterlab, seed, tmp_path)
    check = run.Checker(wl)
    problems = []
    for index, item in enumerate(wl.pool):
        try:
            out = wl.run(item)
        except Exception as err:  # judged by the checker, as in a run
            out = err
        problem = check(index, item, out)
        if problem is not None:
            problems.append((index, item.kind, problem))
    assert problems == []
    assert len(check.seen) == len(wl.pool)
    return check.digest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_one_pass_reproduces_the_pinned_digest(name, tmp_path):
    assert one_pass_digest(name, 5, tmp_path) == DIGESTS[name]


def test_the_pipeline_digest_holds_at_a_second_seed(tmp_path):
    assert one_pass_digest("pipeline", 11, tmp_path) == PIPELINE_SEED_11
