"""Finite slices of the generic object, plus the structural checkers.

A schedule of requirements (realize a point, insert a predecessor tied to
a target) is met by a descending chain of conditions built with
`extend_below`.  The union of the chain is returned as a `FinitePoset`
together with full provenance.  The checkers interrogate that poset
directly: the graded-poset clauses at an explicit witness budget, the
bone-level test per level, and the tightness counting argument on a
planted family.  Every check recomputes from the raw order relation and
never trusts the meet table it is handed.

`FinitePoset` is a `conditions.Poset`: its order queries and the mask
loops of `sposet_check` and `skeleton_check` run on the shared
`OrderIndex`, built from the raw strict set as given (not closed, cycles
kept) or taken from the condition it wraps, so the checkers see the
relation the poset really holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import fmt
from .conditions import (
    DIALECTS,
    TOP,
    Condition,
    ConditionError,
    Level,
    OrderIndex,
    Point,
    Poset,
    bits,
    extend_below,
    extend_condition,
    level_lt,
    level_token,
    make_condition,
    parse_level,
    point_key,
    poset_block,
    read_poset_block,
    violations_touching,
)
from .intervals import IntervalTree, TreeError
from .ordinals import ONE, Ordinal
from .unbounded import UnboundedFn

FORMAT_HEADER_SCHEDULE = "# scatterlab-fmt 1 schedule"
FORMAT_HEADER_POSET = "# scatterlab-fmt 1 poset"


class GenericError(ValueError):
    pass


class ScheduleError(GenericError):
    """A requirement could not be met; carries the partial chain."""

    def __init__(self, msg, trace=(), step=None, requirement=None):
        super().__init__(msg)
        self.trace = tuple(trace)
        self.step = step
        self.requirement = requirement


class ProbeInconclusiveError(GenericError):
    pass


# --- requirements and schedules ------------------------------------------------


@dataclass(frozen=True)
class RealizePoint:
    """Demand that the point (level, xi) exists, inserting it isolated."""

    level: Level
    xi: int


@dataclass(frozen=True)
class PredecessorBelow:
    """Demand a fresh point at `level` tied to `target` from column
    `xi_floor` up: the new point sits below exactly what the target sits
    below-or-at."""

    target: Point
    level: Ordinal
    xi_floor: int = 0


Requirement = RealizePoint | PredecessorBelow


@dataclass(frozen=True)
class Schedule:
    steps: Tuple[Requirement, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def schedule_to_text(sch: Schedule) -> str:
    lines = [FORMAT_HEADER_SCHEDULE, f"seed {sch.seed}", f"steps {len(sch.steps)}"]
    for req in sch.steps:
        if isinstance(req, RealizePoint):
            lines.append(f"realize {level_token(req.level)} {req.xi}")
        else:
            lines.append(
                f"below {level_token(req.target.level)} {req.target.xi} "
                f"{level_token(req.level)} {req.xi_floor}"
            )
    return fmt.text(lines)


def schedule_from_text(text: str) -> Schedule:
    lines = fmt.document_lines(text, FORMAT_HEADER_SCHEDULE, GenericError)
    seed = fmt.integer(fmt.value(lines, 1, "seed", GenericError), "seed", GenericError)
    body, _ = fmt.section(lines, 2, "steps", GenericError)
    steps: List[Requirement] = []
    for line in body:
        toks = line.split()
        width = {"realize": 3, "below": 5}.get(toks[0])
        if width is None:
            raise GenericError(f"unknown requirement {toks[0]!r}")
        if len(toks) != width:
            raise GenericError(f"{toks[0]} line takes {width - 1} fields: {line!r}")
        xi = fmt.integer(toks[2], "column", GenericError)
        if toks[0] == "realize":
            steps.append(RealizePoint(parse_level(toks[1]), xi))
        else:
            floor = fmt.integer(toks[4], "column floor", GenericError)
            target = Point(parse_level(toks[1]), xi)
            steps.append(PredecessorBelow(target, parse_level(toks[3]), floor))
    return Schedule(tuple(steps), seed)


# --- the finite poset ------------------------------------------------------------


class FinitePoset(Poset):
    """Union of a descending chain of conditions: same raw data as a
    condition but with no size cap, plus the chain itself and the list of
    (level, target) pairs the schedule aimed predecessors at.

    The order is read exactly as given (the checkers below judge it), and
    `meet` returns None for a pair with no entry.  Takes normalized parts:
    the points as a frozenset, the strict pairs, and the meet map keyed by
    canonical pairs of distinct points, as `poset_from_text` builds them;
    it may leave pairs out.  The pairs are indexed at construction, so a
    pair naming an unknown point raises `ConditionError` here; a given
    `core` is taken as the order instead, and the pairs are not read.
    Immutable after construction: the core verdict (slot `_verdict`, read
    by `sposet_check` and `cardinal_profile`) is kept from first use,
    outside `_fields()`."""

    __slots__ = ("targeted", "provenance", "_verdict")

    def __init__(
        self, dialect, points, strict, meets, targeted=(), provenance=(), core=None
    ):
        if core is None:
            core = OrderIndex(points, strict)
        super().__init__(dialect, points, core, meets)
        self.targeted: Tuple[Tuple[Level, Point], ...] = tuple(targeted)
        self.provenance: Tuple[Condition, ...] = tuple(provenance)

    def _fields(self) -> tuple:
        return super()._fields() + (self.targeted,)

    def sub_top_levels(self) -> List[Ordinal]:
        return sorted(level for level in self.core().levels if level is not TOP)

    def _core_verdict(self) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
        """The partition, level-order and meet-witness findings, judged once."""
        if not hasattr(self, "_verdict"):
            self._verdict = self._judge()
        return self._verdict

    def _judge(self) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
        partition, level_order, meet_witness = [], [], []
        core = self.core()
        pts, index, up = core.pts, core.index, core.up

        # points are equal exactly when they share a grid slot, so no slot repeats
        for x in pts:
            if x.xi < 0:
                partition.append(f"negative column: {x}")
        # the masks hold exactly the strict pairs, listed here by position
        ids = core.strict_pairs()
        for i, j in ids:
            if i == j:
                partition.append(f"reflexive strict pair: {pts[i]}")
            elif up[j] >> i & 1:
                partition.append(f"two-cycle: {pts[i]} / {pts[j]}")
        for i, j in ids:
            missed = up[j] & ~up[i]
            for k in bits(missed):
                partition.append(f"not transitive: {pts[i]} < {pts[j]} < {pts[k]}")

        for i, j in ids:
            if not level_lt(pts[i].level, pts[j].level):
                level_order.append(f"order does not climb levels: {pts[i]} < {pts[j]}")

        below, table = core.below(), self.meet_table()
        for i, s in enumerate(pts):
            for j in range(i + 1, len(pts)):
                t = pts[j]
                value = table.get((s, t))
                if value is None:
                    meet_witness.append(f"no recorded meet for {s}, {t}")
                    continue
                common = below[i] & below[j]
                covered = 0
                for v in sorted(value, key=point_key) if len(value) > 1 else value:
                    k = index.get(v)
                    if k is None or not common >> k & 1:
                        meet_witness.append(f"meet point {v} of {s}, {t} is not below both")
                    if k is not None:
                        covered |= below[k]
                missed = common ^ covered
                if missed:
                    u = pts[(missed & -missed).bit_length() - 1]
                    meet_witness.append(f"meet axiom fails at {u} for pair {s}, {t}")
        return tuple(partition), tuple(level_order), tuple(meet_witness)

    def __repr__(self):
        return (
            f"FinitePoset({self.dialect}, {len(self.points)} points, "
            f"{sum(m.bit_count() for m in self.core().up)} pairs, chain {len(self.provenance)})"
        )


def poset_from_condition(
    p: Condition, targeted=(), provenance=()
) -> FinitePoset:
    """`p` as a FinitePoset, from its points, meet map and order index as
    they are."""
    return FinitePoset(p.dialect, p.points, (), p.meet_table(), targeted, provenance, p.core())


def poset_to_text(T: FinitePoset) -> str:
    index = T.core().index
    lines = [FORMAT_HEADER_POSET, f"dialect {T.dialect}"] + poset_block(T)
    lines.append(f"targeted {len(T.targeted)}")
    lines += [f"{level_token(level)} {index[pt]}" for level, pt in T.targeted]
    return fmt.text(lines)


def poset_from_text(text: str) -> FinitePoset:
    lines = fmt.document_lines(text, FORMAT_HEADER_POSET, GenericError)
    dialect = fmt.value(lines, 1, "dialect", GenericError)
    if dialect not in DIALECTS:
        raise GenericError(f"unknown dialect {dialect!r}")
    pts, rel, meets, at = read_poset_block(lines, 2, GenericError)
    body, _ = fmt.section(lines, at, "targeted", GenericError)
    targeted = []
    for line in body:
        level, _, i = line.partition(" ")
        targeted.append((parse_level(level), *fmt.indexed(pts, [i.strip()], GenericError)))
    return FinitePoset(dialect, frozenset(pts), rel, meets, targeted)


# --- running a schedule ----------------------------------------------------------


def run_schedule(
    sch: Schedule,
    tree: IntervalTree,
    F: Optional[UnboundedFn],
    dialect: str,
) -> FinitePoset:
    """Meet the schedule's requirements one per step, keeping every prefix
    a valid condition, and return the union with the chain attached.

    Raises ScheduleError with the partial chain when a requirement cannot
    be met inside the width caps, breaks validity, or cannot be validated
    within the tree's budget.  Steps extend by construction; `leq` is a test gate.

    Each step adds its points through `extend_condition` and checks only
    the clauses that touch them, plus the size cap.  A step's condition
    moves the previous order rows into its own index, copies the previous
    meet map and adds the entries of its new pairs; the returned union
    shares the last condition's index and map.  A realize step checks
    with mask 0, so only the size cap: a realized point is isolated, its
    meets are empty, and a point off the grid was refused above, so no
    clause on its pairs can fail.  An insertion step's mask is the point
    `extend_below` plants and the chain it ties above it, which are the
    points at or above the planted one and not at or above the target;
    that insertion is monotone (its docstring gives the argument).  The
    previous condition passed every clause, so the old pairs still do,
    and a clean check keeps the whole condition's verdict.
    """
    params = tree.params
    p = make_condition(dialect, [])
    chain: List[Condition] = [p]
    targeted: List[Tuple[Level, Point]] = []

    def fail(msg, k, req):
        raise ScheduleError(
            f"step {k} {req!r}: {msg}", trace=chain, step=k, requirement=req
        )

    for k, req in enumerate(sch.steps):
        if isinstance(req, RealizePoint):
            x = Point(req.level, req.xi)
            cap = params.lambda_w if x.is_top else params.kappa_w
            if req.xi < 0 or req.xi >= cap:
                fail(f"column {req.xi} outside width cap {cap}", k, req)
            if not x.is_top:
                if not x.level < params.eta:
                    fail(f"level {x.level} is not below {params.eta}", k, req)
                try:
                    tree.path(x.level)
                except TreeError as err:
                    fail(f"level not materialized: {err}", k, req)
            p2 = p if x in p.points else extend_condition(p, [x], ())
            fresh = 0
        elif isinstance(req, PredecessorBelow):
            if req.target not in p.points:
                fail("target point has not been realized", k, req)
            try:
                p2, x = extend_below(p, req.target, req.level, req.xi_floor, tree)
            except (ConditionError, TreeError) as err:
                fail(str(err), k, req)
            targeted.append((req.level, req.target))
            # the new points: x and the chain above it, below the target
            core = p2.core()
            i, t = core.index[x], core.index[req.target]
            fresh = (1 << i | core.up[i]) & ~(1 << t | core.up[t])
        else:
            fail(f"unknown requirement kind {type(req).__name__}", k, req)

        try:
            found = violations_touching(p2, tree, F, fresh)
        except (ConditionError, TreeError) as err:
            fail(str(err), k, req)
        if found:
            fail("; ".join(str(v) for v in found), k, req)
        p = p2
        chain.append(p)

    return poset_from_condition(p, targeted, chain)


# --- graded-poset check -----------------------------------------------------------


@dataclass(frozen=True)
class SposetReport:
    """Per-clause findings; empty tuples mean the clause passed.  The
    density clause is reported as measurements, one per targeted
    (level, point) pair, never silently collapsed to a boolean."""

    partition: Tuple[str, ...]
    level_order: Tuple[str, ...]
    meet_witness: Tuple[str, ...]
    density: Tuple[Tuple[Level, Point, int], ...]
    budget: int

    @property
    def core_ok(self) -> bool:
        return not (self.partition or self.level_order or self.meet_witness)

    @property
    def density_failures(self) -> Tuple[Tuple[Level, Point, int], ...]:
        return tuple(row for row in self.density if row[2] < self.budget)

    @property
    def ok(self) -> bool:
        return self.core_ok and not self.density_failures


def sposet_check(T: FinitePoset, budget: int) -> SposetReport:
    """The core verdict that `T` keeps in its `_verdict` slot, judged on
    first use (a FinitePoset is immutable after construction), with the
    density rows of this budget added."""
    core = T.core()
    density: List[Tuple[Level, Point, int]] = []
    for level, tgt in dict.fromkeys(T.targeted):
        k = core.index.get(tgt)
        count = 0 if k is None else (core.levels.get(level, 0) & core.down[k]).bit_count()
        density.append((level, tgt, count))
    return SposetReport(*T._core_verdict(), tuple(density), budget)


# --- bone levels -----------------------------------------------------------------


@dataclass(frozen=True)
class SkeletonReport:
    verdicts: Tuple[Tuple[Ordinal, Tuple[str, ...]], ...]

    @property
    def bones(self) -> Tuple[Ordinal, ...]:
        return tuple(level for level, found in self.verdicts if not found)

    @property
    def ok(self) -> bool:
        return all(not found for _, found in self.verdicts)


def skeleton_check(T: FinitePoset, levels: Sequence[Ordinal]) -> SkeletonReport:
    """Bone-level test per level: same-level meets are empty, and every
    strict lower bound of a next-level point is routed through the level."""
    core = T.core()
    pts, below, down, table = core.pts, core.below(), core.down, T.meet_table()
    verdicts: List[Tuple[Ordinal, Tuple[str, ...]]] = []
    for gamma in sorted(set(levels)):
        found: List[str] = []
        rank = core.levels.get(gamma, 0)
        for s, t in itertools.combinations(core.members(rank), 2):
            value = table.get((s, t))
            if value:
                found.append(f"same-level-meet: {s}, {t} -> {sorted(value, key=point_key)}")
        for k in bits(core.levels.get(gamma + ONE, 0)):
            # y < x is routed when y <= z < x for some z on the level
            routed = 0
            for z in bits(rank & down[k]):
                routed |= below[z]
            for y in bits(down[k] & ~routed):
                found.append(
                    f"interpolant: no route for {pts[y]} < {pts[k]} through level {gamma}"
                )
        verdicts.append((gamma, tuple(found)))
    return SkeletonReport(tuple(verdicts))


# --- tightness -------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessReport:
    alpha: Ordinal
    u_set: Tuple[Point, ...]
    witnesses: Tuple[Tuple[Point, Point], ...]
    violations: Tuple[Tuple[Point, Tuple[Point, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def tightness_probe(
    T: FinitePoset, x: Point, A: Sequence[Point]
) -> TightnessReport:
    """Counting step of the tightness argument: collect the level-below
    points under x reachable from A, pick one witness each, and verify no
    strict lower bound of x sits above two witnesses."""
    if x not in T.points:
        raise GenericError(f"{x} is not in the poset")
    if x.is_top or not x.level.is_successor:
        raise GenericError(f"{x} must sit at a successor-indexed level")
    A = sorted(set(A), key=point_key)
    for a in A:
        if not T.lt(a, x):
            raise GenericError(f"family point {a} is not strictly below {x}")
    alpha = x.level.predecessor()
    u_set = [
        u
        for u in T.points_at(alpha)
        if T.lt(u, x) and any(T.le(a, u) for a in A)
    ]
    if not u_set:
        raise ProbeInconclusiveError(
            f"no level-{alpha} point below {x} is reachable from the family"
        )
    witnesses = tuple((u, next(a for a in A if T.le(a, u))) for u in u_set)
    b_set = sorted({a for _, a in witnesses}, key=point_key)
    violations = []
    for y in T.sorted_points():
        if not T.lt(y, x):
            continue
        hits = tuple(b for b in b_set if T.le(b, y))
        if len(hits) > 1:
            violations.append((y, hits))
    return TightnessReport(alpha, tuple(u_set), witnesses, tuple(violations))


# --- cardinal profile --------------------------------------------------------------


@dataclass(frozen=True)
class CardinalProfile:
    widths: Tuple[Tuple[Ordinal, int], ...]
    top_width: int

    def __str__(self):
        body = ", ".join(str(n) for _, n in self.widths)
        return f"({body} | {self.top_width})"


def cardinal_profile(T: FinitePoset) -> CardinalProfile:
    """Point counts per materialized level, the top level kept separate.

    Refuses when any core clause fails (partition, level-order or
    meet-witness): the levels of such a poset do not track anything.  Reads
    the core verdict that `T` keeps in its `_verdict` slot (a FinitePoset
    is immutable after construction), so it judges `T` only when no
    `sposet_check` has."""
    findings = sum(T._core_verdict(), ())
    if findings:
        raise GenericError("profile refused: " + "; ".join(findings))
    widths = tuple(
        (level, len(T.points_at(level))) for level in T.sub_top_levels()
    )
    return CardinalProfile(widths, len(T.points_at(TOP)))
