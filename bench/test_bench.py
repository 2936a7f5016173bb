"""Tests for the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from stats import REFERENCE_S, SpeedMeter, Tally, summarize, tail_percentile  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_values  # noqa: E402


# --- tail percentile ----------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # shuffled order must not matter
    samples.reverse()
    pct, value, beyond = tail_percentile(samples)
    assert (pct, value, beyond) == (90.0, 90, 10)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_climbs_with_the_sample_count():
    pct, value, beyond = tail_percentile(range(1000))
    assert (pct, value, beyond) == (99.0, 989, 10)
    pct, value, beyond = tail_percentile(range(11))
    assert beyond == 10 and value == 0 and pct == pytest.approx(100 / 11)


def test_tail_falls_back_to_the_median_on_short_runs():
    pct, value, beyond = tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (value, beyond) == (3.0, 2)
    assert pct == 60.0
    with pytest.raises(ValueError):
        tail_percentile([])


def test_summary_takes_percentiles_over_input_medians():
    # input 0 stalls once; its median, and so the tail, ignores the stall
    by_input = [[0.010, 0.010, 0.500]] + [[0.001 * k] * 3 for k in range(1, 20)]
    lat = summarize(by_input)
    assert lat.ops == 60 and lat.inputs == 20
    assert lat.tail_beyond == 10 and lat.tail_ms == pytest.approx(10.0)


def test_throughput_counts_every_op_of_every_pass():
    # a stall on one pass in three slows throughput by its full cost
    steady = [[0.010] * 3 for _ in range(20)]
    stalled = [[0.010, 0.010, 0.310]] + steady[1:]
    assert summarize(steady).ops_per_s == pytest.approx(60 / 0.6)
    assert summarize(stalled).ops_per_s == pytest.approx(60 / 0.9)
    assert summarize(stalled).p50_ms == summarize(steady).p50_ms


# --- failed-op accounting -----------------------------------------------------


def test_failed_ratio_counts_every_failure_against_attempts():
    tally = Tally()
    for _ in range(7):
        tally.record(None, refusal_expected=False)
    tally.record("uncaught: IndexError", refusal_expected=True)
    tally.record("refusal-missed: exit 1", refusal_expected=True)
    assert (tally.attempted, tally.failed) == (9, 2)
    assert tally.failed_ratio == pytest.approx(2 / 9)
    assert tally.correct  # missed refusals are the known robustness gap
    tally.record("wrong: amalgam is not below both members", refusal_expected=False)
    assert (tally.attempted, tally.failed) == (10, 3)
    assert not tally.correct
    assert tally.first_wrong.startswith("wrong: amalgam")
    assert tally.reasons == {"uncaught": 1, "refusal-missed": 1, "wrong": 1}


def test_checker_flags_an_output_that_changes_between_passes():
    class Echo:
        def canon(self, item, out):
            return str(out)

        def check(self, item, out):
            return None if out == "good" else "wrong: bad"

    class Item:
        refusal = False

    check = run.Checker(Echo())
    assert check(0, Item(), "good") is None
    assert check(0, Item(), "good") is None
    assert check(0, Item(), "other").startswith("wrong: output differs")
    assert check(1, Item(), "bad") == "wrong: bad"
    assert check(1, Item(), "bad") == "wrong: bad"  # a repeat stays failed
    assert check(2, Item(), KeyError("x")) == "raised: KeyError"


# --- speed scaling ------------------------------------------------------------


def test_speed_meter_scales_by_the_local_reference_time():
    now = [0.0]
    durations = iter([REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S])

    def kernel():
        now[0] += next(durations)

    meter = SpeedMeter(clock=lambda: now[0], kernel=kernel)
    meter.sample()
    meter.sample()
    now[0] = 10.0
    meter.sample()
    meter.sample()
    # near the fast samples an op keeps its time, near the slow ones it halves
    assert meter.scaled(0.1, 0.2) == pytest.approx(0.1)
    assert meter.scaled(10.05, 10.15) == pytest.approx(0.05)
    # far from every sample, the two nearest decide
    assert meter.factor(5.0, 5.1) == pytest.approx(REFERENCE_S / (1.5 * REFERENCE_S))


# --- tracing ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """Each workload as measured, with its pool cut to one input of each
    kind."""
    work = tmp_path_factory.mktemp("bench")
    sl = run.load_library()
    out = {}
    for name, workload in run.WORKLOADS.items():
        wl = workload(sl, 3, work)
        kept = {}
        for item in wl.pool:
            kept.setdefault(item.kind, item)
        wl.pool = list(kept.values())
        out[name] = (sl, wl)
    return out


def test_untraced_run_records_no_spans(small):
    sl, wl = small["pipeline"]
    tracer = Tracer()
    tracer.bind(run.library_modules(sl))
    tally = Tally()
    run.measure(wl, run.Checker(wl), tally, seconds=0.0)
    assert tracer.spans == [] and tracer.counts == {}
    assert tally.attempted == run.MIN_PASSES * len(wl.pool) and tally.failed == 0
    assert not hasattr(sl.validate, "__wrapped__")


def test_traced_op_records_nested_spans_and_uninstalls(small):
    sl, wl = small["pipeline"]
    tracer = Tracer()
    tracer.bind(run.library_modules(sl))
    item = next(it for it in wl.pool if it.kind != "omega")
    tracer.install(0)
    try:
        wl.run(item)
    finally:
        tracer.uninstall()
    assert not hasattr(sl.validate, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names.count("amalgam.push_down") == 2 and "amalgam.pull_back" in names
    pull = names.index("amalgam.pull_back")
    nested = [s for s in tracer.spans if s.parent == pull]
    assert any(s.name == "conditions.validate" for s in nested)
    own = tracer.self_time()
    assert 0 <= own["amalgam.pull_back"] < tracer.busy()["amalgam.pull_back"]
    values = layer_values(tracer)
    assert values["conditions.validate.calls"] == tracer.calls()["conditions.validate"]
    assert values["amalgam.push_down.busy_s"] > 0


def test_every_workload_passes_its_checks(small):
    for name, (sl, wl) in small.items():
        tally = Tally()
        check = run.Checker(wl)
        run.measure(wl, check, tally, seconds=0.0)
        assert tally.correct, (name, tally.first_wrong)
        assert len(check.seen) == len(wl.pool)
        if name != "documents":
            assert tally.failed == 0, (name, tally.reasons)


def test_malformed_documents_are_the_same_on_every_seed(tmp_path):
    sl = run.load_library()
    texts = []
    for seed in (1, 2):
        wl = run.WORKLOADS["documents"](sl, seed, tmp_path / str(seed))
        bad = [it for it in wl.pool if it.refusal]
        assert len(bad) == wl.BLOCKS
        docs = [next(Path(a) for a in it.data[0] if Path(a).name.startswith("doc")) for it in bad]
        texts.append(sorted((it.kind, it.data[0][0], doc.read_text()) for it, doc in zip(bad, docs)))
    assert texts[0] == texts[1]


def test_traced_run_reports_every_layer_metric(small):
    sl, wl = small["documents"]
    values, tracer = run.traced_run(sl, wl, run.Checker(wl), Tally(), seed=3)
    assert {m for m, _, _, _ in LAYER_METRICS} <= set(values)
    assert values["cli.validate.busy_s"] > 0 and values["ordinals.lt.ns"] > 0
    assert values["cli.exit2"] + values["cli.uncaught"] > 0
    assert {s.op for s in tracer.spans} == set(range(len(wl.pool)))


# --- the benchmark's declaration ---------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
