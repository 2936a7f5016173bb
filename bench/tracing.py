"""Spans and counts around the calls the workloads make into each layer.

The traced run wraps scatterlab's public functions from here, without any
change to the package.  While an op runs, every binding of a traced
function outside its own module is swapped for a wrapper, so calls from
the benchmark and between layers (a pull_back calling validate) are
recorded, and calls inside one layer (star_search calling star_verify) are
not.  The CLI is entered through its own module, so its bindings there are
wrapped too.  Spans stay in memory and are written out when the run ends.
An untraced run installs nothing.
"""

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


def _count_validate(args, result, error):
    return {"calls": 1, "points": len(args[0].points), "violations": 0 if error else len(result)}


def _count_eta(args, result, error):
    if error is not None:
        return {"exhausted": int(type(error).__name__ == "SearchExhaustedError")}
    return {"fresh_points": len(result.fresh_points)}


def _count_schedule(args, result, error):
    return {"steps": len(args[0].steps), "points": 0 if error else len(result.points)}


def _count_main(args, result, error):
    return {"uncaught": 1} if error is not None else {"exit2": int(result == 2)}


# (span name, module, attribute, counter); the counter maps the call's
# arguments and its result or exception to counts.
TRACED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("conditions.validate", "conditions", "validate", _count_validate),
    ("conditions.leq", "conditions", "leq", None),
    ("conditions.extend_below", "conditions", "extend_below", None),
    ("conditions.condition_from_text", "conditions", "condition_from_text", None),
    ("conditions.condition_to_text", "conditions", "condition_to_text", None),
    ("amalgam.push_down", "amalgam", "push_down", None),
    ("amalgam.separated_refine", "amalgam", "separated_refine", None),
    ("amalgam.equivalence_stamp", "amalgam", "equivalence_stamp", None),
    ("amalgam.amalgamate_omega", "amalgam", "amalgamate_omega", None),
    ("amalgam.amalgamate_eta", "amalgam", "amalgamate_eta", _count_eta),
    ("amalgam.pull_back", "amalgam", "pull_back", lambda a, r, e: {"refused": int(e is not None)}),
    ("generic.run_schedule", "generic", "run_schedule", _count_schedule),
    ("generic.sposet_check", "generic", "sposet_check", None),
    ("generic.skeleton_check", "generic", "skeleton_check", None),
    ("generic.cardinal_profile", "generic", "cardinal_profile", None),
    ("generic.poset_to_text", "generic", "poset_to_text", None),
    ("generic.poset_from_text", "generic", "poset_from_text", None),
    ("unbounded.f_generate", "unbounded", "f_generate", None),
    ("unbounded.star_search", "unbounded", "star_search", lambda a, r, e: {"instances": 0 if e else r.instances}),
    ("unbounded.star_verify", "unbounded", "star_verify", lambda a, r, e: {"pairs_checked": 0 if e else r.pairs_checked}),
    ("analysis.space_from_poset", "analysis", "space_from_poset", None),
    ("analysis.space_from_text", "analysis", "space_from_text", None),
    ("analysis.finite_cb", "analysis", "finite_cb", lambda a, r, e: {"levels": 0 if e else len(r.levels)}),
    ("cli.validate", "cli", "cmd_validate", None),
    ("cli.extend", "cli", "cmd_extend", None),
    ("cli.analyze", "cli", "cmd_analyze", None),
    ("cli.main", "cli", "main", _count_main),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.op = -1
        self._stack: List[int] = []
        self._hooks: List[Tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                if counter is not None:
                    for key, n in counter(args, result, error).items():
                        self.counts[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0) + n

        traced.__wrapped__ = fn
        return traced

    def bind(self, modules) -> None:
        """Prepare wrappers for every binding of each traced function found
        in `modules` (the loaded scatterlab modules)."""
        for name, module, attr, counter in TRACED:
            fn = getattr(modules[module], attr)
            wrapper = self.wrap(name, fn, counter)
            home = modules[module]
            for owner in modules.values():
                if owner is home and module != "cli":
                    continue
                for key, value in vars(owner).items():
                    if value is fn:
                        self._hooks.append((owner, key, fn, wrapper))

    def install(self, op: int) -> None:
        self.op = op
        for owner, key, _, wrapper in self._hooks:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn, _ in self._hooks:
            setattr(owner, key, fn)

    def busy(self) -> Dict[str, float]:
        """Summed span time per span name."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def self_time(self) -> Dict[str, float]:
        """Span time per name minus the time its direct children cover."""
        out = self.busy()
        for s in self.spans:
            if s.parent >= 0:
                parent = self.spans[s.parent].name
                out[parent] -= s.end - s.start
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


# Per-layer metrics as (name, unit, better, what it should move).  The
# last field is the prediction written down before any change is measured:
# which end-to-end metric on which workload a gain in this layer shows in.
LAYER_METRICS = (
    ("ordinals.lt.ns", "ns", "lower", "search ops_per_s most, then pipeline"),
    ("ordinals.eq.ns", "ns", "lower", "search ops_per_s most, then pipeline"),
    ("ordinals.hash.ns", "ns", "lower", "search ops_per_s most, then pipeline"),
    ("ordinals.add.ns", "ns", "lower", "search ops_per_s most, then pipeline"),
    ("intervals.orbit.us_cold", "us", "lower", "documents ops_per_s; search unchanged"),
    ("intervals.orbit.us_warm", "us", "lower", "pipeline ops_per_s; search unchanged"),
    ("intervals.j_and_J.us_warm", "us", "lower", "pipeline ops_per_s; search unchanged"),
    ("intervals.path.us_warm", "us", "lower", "pipeline ops_per_s; search unchanged"),
    ("conditions.validate.busy_s", "s", "lower", "pipeline and documents ops_per_s"),
    ("conditions.validate.calls", "count", "lower", "pipeline and documents ops_per_s"),
    ("conditions.validate.points", "count", "lower", "pipeline and documents ops_per_s"),
    ("conditions.validate.violations", "count", "lower", "documents output; fixed by input"),
    ("conditions.leq.busy_s", "s", "lower", "pipeline ops_per_s"),
    ("conditions.extend_below.busy_s", "s", "lower", "schedule and documents ops_per_s"),
    ("conditions.condition_from_text.busy_s", "s", "lower", "documents ops_per_s"),
    ("conditions.condition_to_text.busy_s", "s", "lower", "documents ops_per_s"),
    ("amalgam.push_down.busy_s", "s", "lower", "pipeline ops_per_s only"),
    ("amalgam.separated_refine.busy_s", "s", "lower", "pipeline ops_per_s only"),
    ("amalgam.equivalence_stamp.busy_s", "s", "lower", "pipeline ops_per_s only"),
    ("amalgam.amalgamate_omega.busy_s", "s", "lower", "pipeline ops_per_s only"),
    ("amalgam.amalgamate_eta.busy_s", "s", "lower", "pipeline latency_tail_ms and ops_per_s only"),
    ("amalgam.amalgamate_eta.fresh_points", "count", "lower", "pipeline latency_tail_ms only"),
    ("amalgam.amalgamate_eta.exhausted", "count", "lower", "pipeline failed ops only"),
    ("amalgam.pull_back.busy_s", "s", "lower", "pipeline ops_per_s only"),
    ("amalgam.pull_back.refused", "count", "lower", "pipeline failed ops only"),
    ("generic.run_schedule.busy_s", "s", "lower", "schedule ops_per_s and latency_tail_ms"),
    ("generic.run_schedule.steps", "count", "higher", "schedule input size; fixed by input"),
    ("generic.run_schedule.points", "count", "higher", "schedule output size; fixed by input"),
    ("generic.run_schedule.ms_per_step", "ms", "lower", "schedule ops_per_s and latency_tail_ms"),
    ("generic.sposet_check.busy_s", "s", "lower", "schedule ops_per_s"),
    ("generic.skeleton_check.busy_s", "s", "lower", "schedule ops_per_s"),
    ("generic.cardinal_profile.busy_s", "s", "lower", "schedule ops_per_s"),
    ("generic.poset_to_text.busy_s", "s", "lower", "schedule ops_per_s"),
    ("generic.poset_from_text.busy_s", "s", "lower", "documents ops_per_s"),
    ("unbounded.f_generate.busy_s", "s", "lower", "search ops_per_s"),
    ("unbounded.star_search.busy_s", "s", "lower", "search ops_per_s"),
    ("unbounded.star_search.instances", "count", "lower", "search ops_per_s"),
    ("unbounded.star_verify.busy_s", "s", "lower", "search ops_per_s"),
    ("unbounded.star_verify.pairs_checked", "count", "lower", "search ops_per_s"),
    ("analysis.space_from_poset.busy_s", "s", "lower", "documents ops_per_s"),
    ("analysis.space_from_text.busy_s", "s", "lower", "documents ops_per_s"),
    ("analysis.finite_cb.busy_s", "s", "lower", "documents ops_per_s"),
    ("analysis.finite_cb.levels", "count", "higher", "documents output; fixed by input"),
    ("cli.validate.busy_s", "s", "lower", "documents ops_per_s"),
    ("cli.extend.busy_s", "s", "lower", "documents ops_per_s"),
    ("cli.analyze.busy_s", "s", "lower", "documents ops_per_s"),
    ("cli.exit2", "count", "higher", "documents failed_ratio (typed refusals)"),
    ("cli.uncaught", "count", "lower", "documents failed_ratio"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of tracing itself"),
)


# Counts recorded under another span than the metric's own prefix.
COUNT_SOURCES = {"cli.exit2": "cli.main.exit2", "cli.uncaught": "cli.main.uncaught"}


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """The span- and count-derived per-layer metrics."""
    busy = tracer.busy()
    values: Dict[str, float] = {}
    for name, unit, _, _ in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field == "busy_s":
            values[name] = busy.get(span, 0.0)
        elif unit == "count":
            values[name] = tracer.counts.get(COUNT_SOURCES.get(name, name), 0)
    steps = tracer.counts.get("generic.run_schedule.steps", 0)
    values["generic.run_schedule.ms_per_step"] = (
        busy.get("generic.run_schedule", 0.0) * 1e3 / steps if steps else 0.0
    )
    return values
