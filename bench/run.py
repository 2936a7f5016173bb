"""Run the scatterlab benchmark.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Workloads are pipeline, schedule, search and documents; `all` runs each in
turn, each in a child process of its own so that every workload's peak RSS
is its own.  Every workload is a closed loop with one caller and no
threads: the next op starts when the previous one returns.

--trace 0 measures the end-to-end metrics with nothing installed, cycling
through the workload's input pool in whole passes, at least three, until
--seconds have passed.  --trace 1 is the separate traced run: each
input runs once untraced and once traced (alternating which goes first),
which gives the per-layer metrics, the tracing overhead, and a span file
under .bench_out/.  Either way every op's output is checked outside the
timed region.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from replay import interval_probes, ordinal_probes  # noqa: E402
from stats import REFERENCE_S, SpeedMeter, Tally, summarize  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
SETUP_SAMPLES = 5  # reference kernel runs before and after each set-up
MIN_PASSES = 3

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_library():
    """Import scatterlab afresh from the checkout's src/ directory."""
    src = ROOT / "src"
    for name in [m for m in sys.modules if m.split(".")[0] == "scatterlab"]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    sl = importlib.import_module("scatterlab")
    importlib.import_module("scatterlab.cli")
    if Path(sl.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"scatterlab came from {sl.__file__}, not {src}")
    return sl


def library_modules(sl) -> Dict[str, object]:
    """The package `sl` and its submodules, by short name."""
    modules = {"scatterlab": sl}
    for value in vars(sl).values():
        if isinstance(value, types.ModuleType) and value.__name__.startswith("scatterlab."):
            modules[value.__name__.rpartition(".")[2]] = value
    return modules


def set_up(name: str, seed: int, workdir: Path):
    """Import, build trees and F tables, and generate the inputs.

    Done SETUP_REPEATS times, each from nothing, with the reference kernel
    run SETUP_SAMPLES times on either side; each set-up time is scaled by
    the median of those kernel times.  Returns the last library and
    workload and the median scaled time."""
    times = []
    for _ in range(SETUP_REPEATS):
        sl = wl = None  # the previous repeat's library and pool are freed first
        gc.collect()
        meter = SpeedMeter()
        for _ in range(SETUP_SAMPLES):
            meter.sample()
        start = time.perf_counter()
        sl = load_library()
        wl = WORKLOADS[name](sl, seed, workdir)
        end = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            meter.sample()
        times.append(meter.scaled(start, end))
    return sl, wl, statistics.median(times)


class Checker:
    """Judges each op.  The first op on an input gets the workload's full
    check; later ops on it must reproduce the same canonical output."""

    def __init__(self, wl):
        self.wl = wl
        self.seen: Dict[int, tuple] = {}

    def __call__(self, index: int, item, out) -> Optional[str]:
        failed = isinstance(out, Exception)
        text = f"raised {type(out).__name__}" if failed else self.wl.canon(item, out)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if index not in self.seen:
            if failed:
                problem = ("uncaught: " if item.refusal else "raised: ") + type(out).__name__
            else:
                problem = self.wl.check(item, out)
            self.seen[index] = (digest, problem)
        first, problem = self.seen[index]
        return problem if digest == first else "wrong: output differs from the first op on this input"

    def digest(self) -> str:
        """Digest of every input's output, in pool order."""
        h = hashlib.sha256()
        for index in sorted(self.seen):
            h.update(self.seen[index][0].encode())
        return h.hexdigest()[:16]


def _run_op(wl, item):
    start = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as err:  # a failed op; the checker records it
        out = err
    return out, start, time.perf_counter()


def measure(wl, check: Checker, tally: Tally, seconds: float):
    """Closed loop over the pool in whole passes, until `seconds` have
    passed and at least MIN_PASSES passes are done.  Whole passes keep
    the mix of inputs the same in every run; three or more give each input
    a median that one slow op cannot move.
    Returns each input's wall-clock and scaled op times, and the meter."""
    meter = SpeedMeter()
    spans: List[List[tuple]] = [[] for _ in wl.pool]
    gc.collect()
    begin = time.perf_counter()
    while len(spans[-1]) < MIN_PASSES or time.perf_counter() - begin < seconds:
        for i, item in enumerate(wl.pool):
            meter.maybe_sample()
            out, start, end = _run_op(wl, item)
            spans[i].append((start, end))
            tally.record(check(i, item, out), item.refusal)
    meter.sample()
    wall = [[e - s for s, e in runs] for runs in spans]
    scaled = [[meter.scaled(s, e) for s, e in runs] for runs in spans]
    return wall, scaled, meter


def traced_run(sl, wl, check: Checker, tally: Tally, seed: int):
    """Every input once untraced and once traced; returns the per-layer
    metrics and the tracer holding the spans."""
    tracer = Tracer()
    tracer.bind(library_modules(sl))
    plain = traced = 0.0
    outputs = []
    gc.collect()
    for i, item in enumerate(wl.pool):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                tracer.install(i)
            out, start, end = _run_op(wl, item)
            elapsed = end - start
            if with_trace:
                tracer.uninstall()
                traced += elapsed
                outputs.append(None if isinstance(out, Exception) else out)
            else:
                plain += elapsed
            tally.record(check(i, item, out), item.refusal)
    values = layer_values(tracer)
    values["trace.overhead_ratio"] = traced / plain - 1.0
    ops = wl.operands(outputs)
    values.update(ordinal_probes(sl, ops.ordinals, seed))
    values.update(interval_probes(sl, ops.levels, ops.pairs, ops.params))
    return values, tracer


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"# python {platform.python_version()} nproc {nproc} cpu {cpu}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    sl, wl, setup_s = set_up(name, seed, workdir)
    kinds = sorted({item.kind.split("-")[0] for item in wl.pool})
    print(f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)} "
          f"pool {len(wl.pool)} ({', '.join(kinds)})")
    check, tally = Checker(wl), Tally()
    if trace:
        values, tracer = traced_run(sl, wl, check, tally, seed)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        busy, own, calls = tracer.busy(), tracer.self_time(), tracer.calls()
        for span in sorted(calls):
            print(f"span {span} calls {calls[span]} busy_s {busy[span]:.6f} self_s {own[span]:.6f}")
        for metric, unit, _, moves in LAYER_METRICS:
            print(f"{metric} {values[metric]:.6g} {unit}  -> {moves}")
        print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _, _ in LAYER_METRICS}
    else:
        wall, scaled, meter = measure(wl, check, tally, seconds)
        lat, raw = summarize(scaled), summarize(wall)
        values = {
            "ops_per_s": lat.ops_per_s,
            "latency_p50_ms": lat.p50_ms,
            "latency_tail_ms": lat.tail_ms,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"# times scaled to a reference kernel time of {REFERENCE_S * 1e3:g} ms; here it took "
              f"{statistics.median(meter.took) * 1e3:.3f} ms (median of {len(meter.took)})")
        print(f"ops_per_s {lat.ops_per_s:.4f} 1/s (ops {lat.ops} over {lat.ops // lat.inputs} whole passes; "
              f"wall clock {raw.ops_per_s:.4f})")
        print(f"latency_p50_ms {lat.p50_ms:.4f} ms (n {lat.inputs} input medians; wall clock {raw.p50_ms:.4f})")
        print(f"latency_tail_ms {lat.tail_ms:.4f} ms (p{lat.tail_pct:.2f}, {lat.tail_beyond} samples beyond, "
              f"n {lat.inputs} input medians; wall clock {raw.tail_ms:.4f})")
        print(f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS})")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    print(f"failed_ratio {tally.failed_ratio:.4f} ratio ({tally.failed} of {tally.attempted})")
    if tally.reasons:
        print("failures " + ", ".join(f"{k} {v}" for k, v in sorted(tally.reasons.items())))
    verdict = "ok" if tally.correct else f"WRONG ({tally.first_wrong})"
    print(f"check {verdict} digest {check.digest()} over {len(check.seen)} of {len(wl.pool)} inputs")
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def run_children(args) -> int:
    """Each workload in a child process of its own, one after another; the
    children's reports are passed through and their results merged."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print("\n".join(lines))
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        load_library()
    except ImportError as err:
        print(f"cannot load scatterlab from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_children(args)
    print(environment())
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
