"""Pairwise amalgamation machinery for grid conditions.

Everything in this module is about taking two (or a family of) valid
conditions and producing a common extension, the way a chain-condition
argument would at full cardinality, except here every step is a finite
computation whose result is judged before it is returned.

The module provides, in dependency order:

* ``delta_root``: sunflower extraction over finite point-sets.
* adequacy checks and canonical pairings between conditions.
* ``SeparatedFamily`` with its refinement and report functions.
* ``kerneldown_check``: root pairs must meet inside the root.
* ``amalgamate_omega``: union-order amalgamation for the top-heavy
  dialect, with cross meets given by the root filter.
* interval stamps (``equivalence_stamp``) assigning each point level a
  tag interval with a marker window usable for fresh interpolants.
* ``push_down`` / ``amalgamate_eta`` / ``pull_back``: the three-stage
  pipeline that flattens top points to a reserved high level, amalgamates
  inside the grid, and transports the result back.
* ``amalgamate_kappa``: that pipeline end to end for two root-sharing
  kappa conditions, with separated refinement and stamps in between.

The pairing clauses, the root-interpolant cross order and the root meet
disagreements each have one helper, shared by the builders and reports that
decide them; order is read from the ``OrderIndex`` masks, and a pairing
carries rows and meets by position.  ``check_adequate`` compares every pair
only to name what a bad bijection breaks.  Stamps are kept per level in the
tree's stamp memo, so a tree stamps each level once.  Construction
functions never return silently-wrong output, and none rebuilds a condition
it already holds in normal form: ``push_down`` and ``pull_back`` rename
their input's order index, and ``amalgamate_eta`` grows each search node
from its parent.  Each judges its result and raises with the offending
clause, in full unless a kept verdict covers a part: an eta leaf is judged
on what it adds to members judged valid, a pull-back on its returned tops.
Only ``conditions.violations_touching`` keeps a verdict.
``separated_refine`` returns its family unjudged, since its construction
proves every clause of ``separated_report``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .conditions import (
    TOP,
    Condition,
    ConditionError,
    OrderIndex,
    Point,
    bits,
    condition_from_index,
    leq,
    level_lt,
    make_condition,
    pair_key,
    point_key,
    validate,
    violations_touching,
)
from .intervals import Interval, IntervalTree, TreeError
from .ordinals import ONE, ZERO, Ordinal
from .unbounded import UnboundedFn


class AmalgamError(ValueError):
    """Base class for amalgamation failures."""


class InfeasibleTargetError(AmalgamError):
    """Requested subfamily size cannot be met; carries the best found."""

    def __init__(self, message: str, best=None, root=None):
        super().__init__(message)
        self.best = best
        self.root = root


class RefineError(AmalgamError):
    """Separated refinement fell short; carries the failure report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report or []


class HypothesisViolationError(AmalgamError):
    """A stated amalgamation precondition fails; never patched silently."""

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = details


class SearchExhaustedError(AmalgamError):
    """Constrained search ran out of placements."""

    def __init__(self, message: str, partial=None, constraint=None):
        super().__init__(message)
        self.partial = partial
        self.constraint = constraint


class MaxUndefinedError(AmalgamError):
    """Meet candidates of a pulled-back pair have no maximum."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


class FGapError(AmalgamError):
    """The unbounded-function gap hypothesis fails for a column pair."""


def _require_valid(found, what: str) -> None:
    """Raise AmalgamError naming every clause in `found`, a condition's
    validation findings."""
    if found:
        raise AmalgamError(f"{what} failed validation: " + "; ".join(str(v) for v in found))


def _require_f_gap(F: UnboundedFn, left_cols, right_cols, bound: Ordinal, what: str):
    """Raise FGapError at the first column pair whose F value is not above bound."""
    for xi, xj in itertools.product(sorted(left_cols), sorted(right_cols)):
        if not bound < F.value(xi, xj):
            raise FGapError(f"F({xi},{xj}) = {F.value(xi, xj)} not above {what}")


# ---------------------------------------------------------------------------
# sunflower extraction


def _set_key(s):
    return tuple(sorted(point_key(x) if isinstance(x, Point) else (2, x, 0) for x in s))


def _max_disjoint(petals: List[FrozenSet]) -> List[int]:
    """Largest index set with pairwise disjoint petals, branch and bound."""
    best: List[int] = []

    def grow(start: int, chosen: List[int], used: FrozenSet) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (len(petals) - start) <= len(best):
            return
        for i in range(start, len(petals)):
            if petals[i] & used:
                continue
            chosen.append(i)
            grow(i + 1, chosen, used | petals[i])
            chosen.pop()

    grow(0, [], frozenset())
    return best


def delta_root(family: Sequence, target: int):
    """Extract a sunflower: a subfamily whose pairwise intersections
    all equal one root set.

    Exact (branch and bound over candidate roots) below 20 sets, greedy
    above.  Returns ``(subfamily, root)``; raises InfeasibleTargetError
    with the best attempt attached when target cannot be met.
    """
    sets = [frozenset(s) for s in family]
    if target > len(sets):
        raise InfeasibleTargetError(
            f"target {target} exceeds family size {len(sets)}", best=[], root=frozenset()
        )
    if len(sets) == 1:
        return list(sets), sets[0]

    candidates = {frozenset()}
    for a, b in itertools.combinations(sets, 2):
        candidates.add(a & b)
    ordered = sorted(candidates, key=lambda r: (-len(r), _set_key(r)))

    exact = len(sets) < 20
    best_rows: List[int] = []
    best_root: FrozenSet = frozenset()
    for root in ordered:
        rows = [i for i, s in enumerate(sets) if s >= root]
        if len(rows) <= len(best_rows):
            continue
        petals = [sets[i] - root for i in rows]
        if exact:
            picked = _max_disjoint(petals)
        else:
            picked, used = [], frozenset()
            for j, petal in enumerate(petals):
                if not petal & used:
                    picked.append(j)
                    used |= petal
        if len(picked) > len(best_rows):
            best_rows = [rows[j] for j in picked]
            best_root = root
    sub = [sets[i] for i in best_rows]
    if len(sub) < target:
        raise InfeasibleTargetError(
            f"best sunflower has {len(sub)} members, target {target}",
            best=sub,
            root=best_root,
        )
    return sub, best_root


# ---------------------------------------------------------------------------
# adequacy and separated families


def check_adequate(g: Mapping[Point, Point]) -> List[str]:
    """Clause names violated by the bijection g (empty list when adequate).

    Clauses: strata preserved, relative level order preserved, column
    preserved below top, column order preserved on top.

    One pass over the items in `point_key` order accepts a clean g: each
    item keeps its stratum and, below top, its column, and each next image
    sorts after the last one, at the same level exactly when the point is.
    Both orders are then the same chain of ties and steps, so no pair is
    reordered, and g is injective.  Otherwise every pair is compared, to
    name what g breaks.
    """
    items = sorted(g.items(), key=lambda kv: point_key(kv[0]))
    last = None
    for s, gs in items:
        key, image = point_key(s), point_key(gs)
        if s.is_top != gs.is_top or not s.is_top and s.xi != gs.xi:
            break
        # a key starts (stratum, level), so key[:2] compares levels
        if last and not (last[1] < image and (last[0][:2] == key[:2]) == (last[1][:2] == image[:2])):
            break
        last = key, image
    else:
        return []
    out = []
    if len(set(g.values())) != len(g):
        out.append("strata: mapping not injective")
    for s, gs in items:
        if s.is_top != gs.is_top:
            out.append(f"strata: {s} maps across the top boundary")
    for (s, gs), (t, gt) in itertools.combinations(items, 2):
        if level_lt(s.level, t.level) != level_lt(gs.level, gt.level):
            out.append(f"level-order: ({s}, {t}) reordered")
        if s.is_top and t.is_top and ((s.xi < t.xi) != (gs.xi < gt.xi)):
            out.append(f"top-column-order: ({s}, {t}) reordered")
    for s, gs in items:
        if not s.is_top and s.xi != gs.xi:
            out.append(f"column-preserved: {s} maps to column {gs.xi}")
    return out


def canonical_pairing(p: Condition, q: Condition) -> Dict[Point, Point]:
    """Point-order pairing X_p -> X_q: k-th sub-top point to k-th sub-top
    point, k-th top point to k-th top point."""
    for side in (True, False):
        a = [x for x in p.sorted_points() if x.is_top == side]
        b = [x for x in q.sorted_points() if x.is_top == side]
        if len(a) != len(b):
            raise AmalgamError(
                f"stratum size mismatch: {len(a)} vs {len(b)} "
                f"({'top' if side else 'grid'})"
            )
    return dict(zip(p.sorted_points(), q.sorted_points()))


@dataclass
class SeparatedFamily:
    """A family of conditions with one sunflower root and pairwise
    adequate, root-fixing, structure-preserving bijections."""

    members: Tuple[Condition, ...]
    root: FrozenSet[Point]
    bijections: Dict[Tuple[int, int], Dict[Point, Point]] = field(default_factory=dict)

    def pairing(self, i: int, j: int) -> Dict[Point, Point]:
        if i == j:
            return {s: s for s in self.members[i].sorted_points()}
        if (i, j) in self.bijections:
            return self.bijections[(i, j)]
        back = self.bijections[(j, i)]
        return {v: k for k, v in back.items()}


def _pairing_clauses(
    p: Condition, q: Condition, h: Mapping[Point, Point], root: FrozenSet[Point]
) -> List[str]:
    """The clauses that the bijection h: X_p -> X_q breaks: adequacy, fixing
    the root, carrying p's order onto q's and p's meets onto q's.

    Both are judged by position: `at[i]` is the position in q of the image
    of p's point i.  Each `up` row of p, moved through `at`, is compared with
    q's row at `at[i]`, and a pair whose bits differ is named by its
    preimages, once, in position order.  Each meet key moves through `at`
    to q's canonical pair, and its value through h.
    """
    out = check_adequate(h)
    out.extend(f"root-fixing: moves {s}" for s in sorted(root, key=point_key) if h[s] != s)
    pc, qc = p.core(), q.core()
    at = [qc.index[h[x]] for x in pc.pts]
    back = {k: i for i, k in enumerate(at)}
    moved = set()
    for i, row in enumerate(pc.up):
        image = 0
        for j in bits(row):
            image |= 1 << at[j]
        for k in bits(image ^ qc.up[at[i]]):
            moved.add((i, back[k]) if i < back[k] else (back[k], i))
    out.extend(f"order: ({pc.pts[i]}, {pc.pts[j]}) not preserved" for i, j in sorted(moved))
    table, index = q.meet_table(), pc.index
    for (s, t), value in p.meet_table().items():
        key = (h[s], h[t]) if at[index[s]] < at[index[t]] else (h[t], h[s])
        if table.get(key, frozenset()) != frozenset(map(h.__getitem__, value)):
            out.append("meets: not transported")
            break
    return out


def separated_report(fam: SeparatedFamily) -> List[str]:
    """Re-verify every separatedness clause from scratch; empty means ok."""
    out = []
    members = fam.members
    root = fam.root
    for i, j in itertools.combinations(range(len(members)), 2):
        inter = members[i].points & members[j].points
        if inter != root:
            out.append(f"delta: members {i},{j} intersect off-root")

    root_levels = {x.level for x in root if not x.is_top}
    owners: Dict = {}
    for i, m in enumerate(members):
        for x in m.sorted_points():
            if x.is_top or x in root:
                continue
            if x.level in root_levels:
                out.append(f"level-sharing: member {i} adds {x} at a root level")
            else:
                prev = owners.setdefault(x.level, i)
                if prev != i:
                    out.append(
                        f"level-sharing: level {x.level} used by members {prev},{i}"
                    )

    for i, j in itertools.combinations(range(len(members)), 2):
        h = fam.pairing(i, j)
        p, q = members[i], members[j]
        if set(h) != p.points or set(h.values()) != q.points or len(p.points) != len(q.points):
            out.append(f"bijection: pairing {i},{j} has wrong domain or range")
            continue
        out.extend(f"pair {i},{j} {clause}" for clause in _pairing_clauses(p, q, h, root))
    return out


def separated_refine(family: Sequence[Condition], target: int) -> SeparatedFamily:
    """Thin a family down to a separated subfamily of size >= target.

    Steps: sunflower extraction over point sets, per-level exclusivity
    filter, then grouping by canonical-pairing compatibility.  Raises
    RefineError with the failure report when target cannot be met.

    The family returned passes `separated_report` by construction, so it
    is not judged again.  `delta_root` returns a sunflower over `root`,
    every subfamily of it is one, and the level filter drops the members
    that add a point at a root level or at another member's level.  The
    grouping judges each pairing from a class's first member, and every
    other pairing is composed from two of those: `canonical_pairing` maps
    the k-th point to the k-th point in `point_key` order, so pairing(i, j)
    is pairing(0, j) after the inverse of pairing(0, i).  Each clause
    `_pairing_clauses` judges survives inversion and composition.
    """
    if not family:
        raise RefineError("empty family", ["no members"])
    dialects = {p.dialect for p in family}
    if len(dialects) > 1:
        raise RefineError("mixed dialects", [f"dialects {sorted(dialects)}"])

    try:
        subsets, root = delta_root([p.points for p in family], target)
    except InfeasibleTargetError as err:
        raise RefineError(f"sunflower stage: {err}", [str(err)]) from err
    chosen = []
    pool = list(family)
    for s in subsets:
        for k, p in enumerate(pool):
            if p is not None and p.points == s:
                chosen.append(p)
                pool[k] = None
                break

    report = []
    root_levels = {x.level for x in root if not x.is_top}
    kept: List[Condition] = []
    used_levels = set()
    for p in chosen:
        extra = [x for x in p.points - root if not x.is_top]
        if any(x.level in root_levels for x in extra):
            report.append("dropped member adding points at a root level")
            continue
        levels = {x.level for x in extra}
        if levels & used_levels:
            report.append("dropped member reusing another member's level")
            continue
        used_levels |= levels
        kept.append(p)

    # each class holds its first member and, for every later one, the
    # canonical pairing from the first that was found clean
    classes: List[List[Tuple[Condition, Dict[Point, Point]]]] = []
    for p in kept:
        for cls in classes:
            try:
                h = canonical_pairing(cls[0][0], p)
            except AmalgamError:
                continue
            if not _pairing_clauses(cls[0][0], p, h, root):
                cls.append((p, h))
                break
        else:
            classes.append([(p, {})])

    best = max(classes, key=len, default=[])
    if len(best) < target:
        report.append(
            f"largest compatible class has {len(best)} members, target {target}"
        )
        raise RefineError("refinement fell short", report)

    members = tuple(p for p, _ in best)
    bijections = {(0, j): h for j, (_, h) in enumerate(best) if j}
    for i, j in itertools.combinations(range(1, len(members)), 2):
        bijections[(i, j)] = canonical_pairing(members[i], members[j])
    return SeparatedFamily(members, frozenset(root), bijections)


def kerneldown_check(fam: SeparatedFamily):
    """Check that meets of root pairs anchored below top stay in the root.

    Returns None when the conclusion holds everywhere, else the first
    counterexample as (member index, (s, t), meet value).
    """
    for idx, p in enumerate(fam.members):
        index, below = p.core().index, p.core().below()
        for (s, t), value in p.meets:
            if s not in fam.root or t not in fam.root:
                continue
            if s.is_top and t.is_top:
                continue
            i, j = index[s], index[t]
            if (below[j] >> i | below[i] >> j) & 1 or not below[i] & below[j]:
                continue
            if not value <= fam.root:
                return idx, (s, t), value
    return None


# ---------------------------------------------------------------------------
# top-heavy dialect amalgamation


def _root_order(p: Condition, root: FrozenSet[Point]):
    """The strict pairs of p between root points."""
    return {(s, t) for s, t in p.strict if s in root and t in root}


def _root_meet_conflicts(p: Condition, q: Condition, root: FrozenSet[Point]):
    """The root pairs, in point_key order, whose meets p and q disagree on."""
    return [
        (s, t)
        for s, t in itertools.combinations(sorted(root, key=point_key), 2)
        if p.meet(s, t) != q.meet(s, t)
    ]


def amalgamate_omega(
    p: Condition,
    q: Condition,
    root: FrozenSet[Point],
    F: UnboundedFn,
    tree: IntervalTree,
) -> Condition:
    """Union amalgam for the top-heavy dialect.

    Order is the plain union, cross meets are the root filter
    {u in root: u below both}.  All hypotheses (sunflower root, level
    exclusivity, initial-segment root levels, root agreement, F gap
    over the top root level) are checked and raise
    HypothesisViolationError; the result is validated in full against tree.
    """
    if p.dialect != "omega" or q.dialect != "omega":
        raise HypothesisViolationError("both members must use the omega dialect")
    if p.points & q.points != root:
        raise HypothesisViolationError(
            "root is not the intersection of the member point sets"
        )

    problems: List[str] = []
    root_levels = {x.level for x in root if not x.is_top}
    delta = max(root_levels, default=ZERO)
    p_extra = {x for x in p.points - root if not x.is_top}
    q_extra = {x for x in q.points - root if not x.is_top}
    if {x.level for x in p_extra} & {x.level for x in q_extra}:
        problems.append("level-sharing: members reuse a sub-top level")
    for name, extra in (("first", p_extra), ("second", q_extra)):
        for x in sorted(extra, key=point_key):
            if x.level in root_levels:
                problems.append(f"{name} member adds {x} at a root level")
            elif root_levels and not delta < x.level:
                problems.append(
                    f"initial-segment: {name} member point {x} below root top level"
                )
    if _root_order(p, root) != _root_order(q, root):
        problems.append("root order disagrees between the members")
    for s, t in _root_meet_conflicts(p, q, root):
        problems.append(f"root meet disagrees at ({s}, {t})")
    if problems:
        raise HypothesisViolationError("omega amalgam hypotheses fail", problems)

    a = [x.xi for x in p.points - root if x.is_top]
    b = [x.xi for x in q.points - root if x.is_top]
    _require_f_gap(F, a, b, delta, f"root top level {delta}")

    points = p.points | q.points
    rel = set(p.strict) | set(q.strict)
    meets = p.meet_table() | q.meet_table()
    q_low = {y: q.down(y) & root for y in q.points - root}
    for x in p.points - root:
        x_low = p.down(x) & root
        for y, y_low in q_low.items():
            meets[(x, y)] = frozenset(x_low & y_low)
    r = make_condition("omega", points, rel, meets)
    _require_valid(validate(r, tree, F), "omega amalgam")
    return r


# ---------------------------------------------------------------------------
# interval stamps


@dataclass
class EquivalenceStamp:
    """Per-level interval tags plus marker windows for fresh points.

    ``tags`` maps each member point to its tag interval; singleton tags
    mark levels that admit no fresh-point window.  For every non-singleton
    tag I: ``xi_of[I]`` is the first marker index clearing all root levels
    inside I, ``gamma_of[I]`` the marker kappa_w steps later, and
    ``d_of[I]`` the kappa_w markers in between, the candidate levels for
    fresh interpolants.  ``gamma`` bounds every candidate level strictly.
    """

    tags: Dict[Point, Interval]
    intervals: Tuple[Interval, ...]
    xi_of: Dict[Interval, int]
    gamma_of: Dict[Interval, Ordinal]
    d_of: Dict[Interval, Tuple[Ordinal, ...]]
    gamma: Ordinal
    root_levels: Tuple[Ordinal, ...]


def _interval_data(tree: IntervalTree, iv: Interval, root_levels, cache):
    data = cache.get(iv)
    if data is not None:
        return data
    kw = tree.params.kappa_w
    top = max((b for b in root_levels if iv.contains(b)), default=None)
    # xi counts the markers at or below top; the shorter request goes first,
    # so an overrun names it (e_budget + 2 when top passes every marker)
    xi = 0 if top is None else sum(not top < e for e in tree.markers_to(iv, top))
    tree.e_set(iv, max(kw, xi) + 1)
    eps = tree.e_set(iv, xi + kw + 1)
    data = (xi, eps[xi + kw], eps[xi : xi + kw])
    cache[iv] = data
    return data


def _tag_of(tree: IntervalTree, alpha: Ordinal, root_levels, cache) -> Interval:
    """alpha's singleton once alpha starts its interval, or else the first
    limit-ended interval on its way down whose gamma is at most alpha.

    It walks alpha's path one level at a time through `locate`, whose trail
    memo makes each level one step past the last.  `path` would do for the
    walk but for its errors: it walks on below the tag to alpha's own
    endpoint, raises DepthCapError at the depth cap, and refuses an alpha
    outside [0, eta) with a budget error where `locate` says so.
    """
    k = 0
    while True:
        iv = tree.locate(alpha, k)
        if iv.is_singleton or iv.lo == alpha:
            return Interval(alpha, alpha + ONE)
        if iv.hi.is_limit:
            _, gamma, _ = _interval_data(tree, iv, root_levels, cache)
            if not alpha < gamma:
                return iv
        k += 1


def _level_stamp(tree: IntervalTree, alpha: Ordinal, root_levels):
    """alpha's tag, with the tag's (xi, gamma, window) when it is not a
    singleton: the entry the tree's stamp memo keeps."""
    cache: Dict = {}
    tag = _tag_of(tree, alpha, root_levels, cache)
    return tag, None if tag.is_singleton else _interval_data(tree, tag, root_levels, cache)


def equivalence_stamp(fam: SeparatedFamily, tree: IntervalTree) -> EquivalenceStamp:
    """Compute tag intervals for every member point and verify that the
    family is pairwise equivalent (tags agree through every pairing).

    Each level's tag and window are read from the tree's stamp memo, and
    computed by `_tag_of` and `_interval_data` the first time only."""
    root_levels = tuple(
        sorted({x.level for x in fam.root if not x.is_top})
    )
    tags: Dict[Point, Interval] = {}
    windows: Dict[Interval, Optional[Tuple]] = {}  # None for a singleton tag
    for m in fam.members:
        for s in m.sorted_points():
            if s.is_top:
                raise HypothesisViolationError(
                    f"stamps require top-free members, found {s}"
                )
            if s not in tags:
                tags[s], windows[tags[s]] = tree.stamp(s.level, root_levels, _level_stamp)
    for i, j in itertools.combinations(range(len(fam.members)), 2):
        h = fam.pairing(i, j)
        for s, hs in h.items():
            if tags[s] != tags[hs]:
                raise HypothesisViolationError(
                    f"not pairwise equivalent: {s} tags {tags[s]}, "
                    f"{hs} tags {tags[hs]}"
                )

    jset = tuple(
        sorted(
            {tags[s] for s in fam.members[0].points},
            key=lambda iv: (iv.lo, iv.hi),
        )
    ) if fam.members else ()
    xi_of: Dict[Interval, int] = {}
    gamma_of: Dict[Interval, Ordinal] = {}
    d_of: Dict[Interval, Tuple[Ordinal, ...]] = {}
    for iv in jset:
        if not iv.is_singleton:
            xi_of[iv], gamma_of[iv], d_of[iv] = windows[iv]
    levels = sorted({b for window in d_of.values() for b in window})
    gamma = (levels[-1] + ONE) if levels else ONE
    return EquivalenceStamp(tags, jset, xi_of, gamma_of, d_of, gamma, root_levels)


# ---------------------------------------------------------------------------
# push down


def push_down(r: Condition, zeta: int, tree: IntervalTree):
    """Flatten every top point of r to the reserved marker level eps[zeta].

    zeta must be a positive multiple of kappa_w (a designated limit-role
    position) and every sub-top level of r must sit below eps[zeta-1],
    which keeps the witness level of any isolated pair strictly below the
    landing level.  Returns (r', g) with g mapping the points of r' to
    the points of r; g is the identity off the pushed points.

    r' is r's order index renamed in place.  The tops sort last in r, by
    column, and the landing points sort last in r', in the same column
    order, since eps[zeta] lies above the fence: every position keeps its
    rows and its meets.  Nothing is sorted, closed or re-checked before
    r' is validated in full.
    """
    params = tree.params
    kw = params.kappa_w
    if zeta < kw or zeta % kw != 0:
        raise HypothesisViolationError(
            f"zeta {zeta} is not a positive multiple of kappa_w {kw}"
        )
    eps = tree.root_eps(zeta + 1)
    landing = eps[zeta]
    fence = eps[zeta - 1]
    offenders = [
        x for x in r.sorted_points() if not x.is_top and not x.level < fence
    ]
    if offenders:
        raise HypothesisViolationError(
            "sub-top levels reach the landing fence",
            offenders,
        )
    core = r.core()
    tops = core.members(core.levels.get(TOP, 0))
    if len(tops) > kw:
        raise HypothesisViolationError(
            f"{len(tops)} top points exceed the column budget {kw}"
        )

    fwd = {x: Point(landing, i) for i, x in enumerate(tops)}
    back = {x: x for x in r.points if not x.is_top}
    back.update((v, k) for k, v in fwd.items())
    meets = {}
    for (s, t), value in r.meet_table().items():
        if not value.isdisjoint(fwd):
            value = frozenset(fwd.get(v, v) for v in value)
        meets[fwd.get(s, s), fwd.get(t, t)] = value
    pushed = condition_from_index(r.dialect, core.renamed(fwd), meets)
    _require_valid(validate(pushed, tree), "push-down")
    return pushed, back


# ---------------------------------------------------------------------------
# grid amalgamation


@dataclass(frozen=True)
class AmalgamResult:
    condition: Condition
    gamma: Ordinal
    fresh_points: Tuple[Point, ...]


def r2_report(
    r: Condition,
    pp: Condition,
    qq: Condition,
    pairing: Mapping[Point, Point],
) -> List[str]:
    """Re-verify the cross-structure contract of a grid amalgam.

    Fresh points must relate symmetrically through the pairing, every
    old point below a fresh one must pass through a root point, and
    cross order must be exactly the root-interpolant relation.
    """
    root = pp.points & qq.points
    return _r2_findings(r, pp, qq, pairing, root, _cross_order(pp, qq, root))


def _r2_findings(r, pp, qq, pairing, root, cross) -> List[str]:
    """`r2_report`'s findings, given the members' `root` and `cross`, their
    `_cross_order`."""
    out = []
    core = r.core()
    index, up, down = core.index, core.up, core.down
    above = core.above()
    rootmask = sum(1 << index[u] for u in root)
    for y in sorted(r.points - pp.points - qq.points, key=point_key):
        j = index[y]
        for s in pp.sorted_points():
            i, k = index[s], index[pairing[s]]
            if (up[j] >> i & 1) != (up[j] >> k & 1):
                out.append(f"mirror-up: ({y}, {s}) breaks the pairing")
            if (down[j] >> i & 1) != (down[j] >> k & 1):
                out.append(f"mirror-down: ({s}, {y}) breaks the pairing")
        for s in sorted(pp.points | qq.points, key=point_key):
            i = index[s]
            if down[j] >> i & 1 and not rootmask & above[i] & down[j]:
                out.append(f"root-passage: {s} reaches {y} off the root")
    for s in sorted(pp.points - root, key=point_key):
        for t in sorted(qq.points - root, key=point_key):
            for a, b in ((s, t), (t, s)):
                if up[index[a]] >> index[b] & 1 != ((a, b) in cross):
                    out.append(f"cross-order: ({a}, {b}) disagrees with interpolants")
    return out


def _cross_order(pp: Condition, qq: Condition, root: FrozenSet[Point]):
    """The cross pairs between the members' private points that pass
    through a root interpolant: (s, t) for s of pp and t of qq when
    s < u < t for some root point u, and (t, s) when t < u < s."""
    out = set()
    for a, b in ((pp, qq), (qq, pp)):
        under = {u: a.down(u) - root for u in root}
        for t in b.points - root:
            for u in b.down(t) & root:
                out.update((s, t) for s in under[u])
    return out


def _first_deficient(cond: Condition, base_meets, tree: IntervalTree):
    """The first incomparable pair off the base pairs, in position order,
    whose meet is neither empty nor one point inside both orbits.  `cond`
    comes from `make_condition(complete=True)`, so off the base pairs only
    an incomparable pair with a common lower bound has a meet that can
    fail: those pairs are found from the order masks, and only their meets
    are read."""
    core = cond.core()
    pts, up, down, table = core.pts, core.up, core.down, cond.meet_table()
    for i, low in enumerate(down):
        shared = 0
        for k in bits(low):
            shared |= up[k]
        # the later points that share a lower bound with pts[i], off its order
        for j in bits(shared & ~(up[i] | low) & -2 << i):
            s, t = pts[i], pts[j]
            if (s, t) in base_meets:
                continue
            value = table[s, t]
            if len(value) == 1:
                (m,) = value
                if m.level in tree.orbit_set(s.level) and m.level in tree.orbit_set(t.level):
                    continue
            return s, t
    return None


def amalgamate_eta(
    pp: Condition,
    qq: Condition,
    pairing: Mapping[Point, Point],
    stamps: EquivalenceStamp,
    tree: IntervalTree,
    max_fresh: int = 8,
) -> AmalgamResult:
    """Amalgamate two top-free, pairwise-equivalent conditions.

    The base is the union plus the root-interpolant cross order.  Cross
    pairs whose common lower bounds lack a unique, orbit-compatible
    maximum receive one fresh point placed at the least admissible
    marker level from the stamp windows; placement backtracks on any
    downstream validation failure.  When no placement survives it raises
    SearchExhaustedError with the first blocked partial condition and its
    deficient pair (no admissible placement, or `max_fresh` reached) as
    `partial` and `constraint`; when nothing was blocked, because every
    leaf reached was refused, both are None.

    Each search node equals `make_condition(..., complete=True)` on its
    parts without being rebuilt from them.  The base node takes the
    members' meets as they stand and forces only the cross pairs'; a child
    grows from its parent's order index with the fresh point v inserted,
    and only the pairs off the members with an end at v or above it are
    forced again: no other pair's down-sets, comparability or maximal
    common lower bounds change.

    A leaf, a placement with no deficient pair left, is judged in this
    order: `leq` below both members; then, when both members are
    `judged_valid` for `tree` (push_down leaves them so), only what the
    leaf adds to them (`violations_touching` with the members, which
    keeps a clean verdict as `validate` does), else a full `validate`;
    then `r2_report`'s cross-structure contract; then the fresh levels
    against the stamp bound gamma.  A leaf that fails `leq` still runs
    the full `validate`, so a check it would raise from raises.
    """
    _require_grid_members(pp, qq)
    if pp != qq:
        bad = check_adequate(dict(pairing))
        if bad:
            raise HypothesisViolationError("pairing is not adequate", bad)
        if any(pairing[s] != s for s in pp.points & qq.points):
            raise HypothesisViolationError("pairing moves a root point")
    return _grid_amalgam(pp, qq, pairing, stamps, tree, max_fresh)


def _require_grid_members(pp: Condition, qq: Condition) -> None:
    if pp.dialect != "kappa" or qq.dialect != "kappa":
        raise HypothesisViolationError("grid amalgamation expects the kappa dialect")
    for cond, name in ((pp, "first"), (qq, "second")):
        if any(x.is_top for x in cond.points):
            raise HypothesisViolationError(f"{name} member is not top-free")


def _grid_base(pp: Condition, qq: Condition, root, cross, base_meets) -> Condition:
    """The search's first node: the members' union with the cross order.
    When the members' root orders agree, the union is closed: a chain
    that leaves one member through a root point and comes back climbs
    between root points, which both members order alike."""
    points = pp.points | qq.points
    rel = pp.strict | qq.strict | cross
    if _root_order(pp, root) != _root_order(qq, root):
        return make_condition("kappa", points, rel, base_meets, complete=True)
    core = OrderIndex(points, rel)
    own = core.owners((pp, qq))
    off = [(i, j) for i, j in core.pairs() if not own[i] & own[j]]
    return condition_from_index("kappa", core, dict(base_meets), off)


def _grown(cond: Condition, v: Point, lower, ups, members) -> Condition:
    """`cond` with the fresh point v placed above `lower` and below `ups`.
    The pairs whose ends share an owner bit of `OrderIndex.owners(members)`
    lie inside one member and keep their meets; every other pair with an
    end at v or above it is forced again.  `lower`'s down-set is its
    `OrderIndex.hull`.  No cycle can close: `lower` is a down-set, sitting
    below v's level, and every point of `ups` above it."""
    core, bit = cond.core().inserted([v])
    index, up, down = core.index, core.up, core.down
    low, high = core.hull(lower), 0
    for c in ups:
        high |= up[index[c]] | 1 << index[c]
    for i in bits(low):
        up[i] |= high | bit
    for j in bits(high):
        down[j] |= low | bit
    q = bit.bit_length() - 1
    down[q], up[q] = low, high
    own = core.owners(members)
    force = [(i, j) for i, j in core.pairs(high | bit) if not own[i] & own[j]]
    meets = cond.meet_table().copy()
    return condition_from_index("kappa", core, meets, force)


def _grid_amalgam(
    pp: Condition,
    qq: Condition,
    pairing: Mapping[Point, Point],
    stamps: EquivalenceStamp,
    tree: IntervalTree,
    max_fresh: int,
) -> AmalgamResult:
    """`amalgamate_eta` past its checks on the members and the pairing."""
    if pp == qq:
        return AmalgamResult(pp, stamps.gamma, ())

    root = pp.points & qq.points
    mirror: Dict[Point, Point] = {}
    for s in pp.points:
        mirror[s] = pairing[s]
        mirror[pairing[s]] = s

    cross = _cross_order(pp, qq, root)
    for s, t in _root_meet_conflicts(pp, qq, root):
        raise HypothesisViolationError(f"members disagree on the root meet of ({s}, {t})")
    # meet maps are keyed in point_key order, so a shared pair has one key
    base_meets = pp.meet_table() | qq.meet_table()
    settled = pp.judged_valid(tree, None) and qq.judged_valid(tree, None)
    blocked = []

    def attempt(cond, fresh):
        task = _first_deficient(cond, base_meets, tree)
        if task is None:
            extends = leq(cond, pp) and leq(cond, qq)
            if extends and settled:
                found = violations_touching(cond, tree, None, -1, (pp, qq))
            else:
                found = validate(cond, tree)
            if found or not extends or _r2_findings(cond, pp, qq, mirror, root, cross):
                return None
            if any(not v.level < stamps.gamma for v in fresh):
                return None
            return cond, fresh
        if len(fresh) >= max_fresh:
            blocked.append((cond, task))
            return None
        s, t = task
        ms, mt = mirror.get(s, s), mirror.get(t, t)
        corners = {s, t, ms, mt}
        core = cond.core()
        down, index = core.down, core.index
        low = down[index[s]] & down[index[t]] | down[index[ms]] & down[index[mt]]
        lower = core.members(low)
        # candidate levels: the marker windows of every stamped corner,
        # intersected; fresh corners carry no stamp and are screened by
        # the orbit filter below instead
        windows = [
            set(stamps.d_of.get(stamps.tags[c], ()))
            for c in corners
            if c in stamps.tags
        ]
        cand = sorted(set.intersection(*windows)) if windows else []
        # two attachment shapes: just below the four corners, or below the
        # whole fence of points above the shared cluster (both are mirror
        # symmetric, the second catches corners with incomparable tops)
        options = [corners]
        if lower:
            shared = -1
            for w in lower:
                shared &= core.up[index[w]]
            fence = corners | set(core.members(shared))
            if fence != corners:
                options.append(fence)
        placed_any = False
        for beta in cand:
            if not all(w.level < beta for w in lower):
                continue
            used = {x.xi for x in core.members(core.levels.get(beta, 0))}
            col = next(i for i in itertools.count() if i not in used)
            if col >= tree.params.kappa_w:
                continue
            v = Point(beta, col)
            for ups in options:
                if not all(
                    beta < c.level and beta in tree.orbit_set(c.level) for c in ups
                ):
                    continue
                placed_any = True
                hit = attempt(_grown(cond, v, lower, ups, (pp, qq)), fresh + (v,))
                if hit is not None:
                    return hit
        if not placed_any:
            blocked.append((cond, task))
        return None

    hit = attempt(_grid_base(pp, qq, root, cross, base_meets), ())
    if hit is None:
        partial, task = blocked[0] if blocked else (None, None)
        raise SearchExhaustedError(
            "no fresh-point placement satisfies the contract",
            partial=partial,
            constraint=task,
        )
    cond, fresh = hit
    return AmalgamResult(cond, stamps.gamma, fresh)


# ---------------------------------------------------------------------------
# pull back


def _meet_max(core, cands: List[FrozenSet[Point]], pair):
    """The candidate every candidate lies below, one set lying below another
    when its down-set, its `OrderIndex.hull` in `core`, is inside the
    other's."""
    hulls = [core.hull(c) for c in cands]
    best = 0
    for k, hull in enumerate(hulls):
        if not hulls[best] & ~hull:
            best = k
    if any(hull & ~hulls[best] for hull in hulls):
        raise MaxUndefinedError(
            f"meet candidates of ({pair[0]}, {pair[1]}) have no maximum",
            pair=pair,
        )
    return cands[best]


def pull_back(
    rp: Condition,
    r_nu: Condition,
    r_mu: Condition,
    g_nu: Mapping[Point, Point],
    g_mu: Mapping[Point, Point],
    tree: IntervalTree,
    F: UnboundedFn,
    gamma: Optional[Ordinal] = None,
) -> Condition:
    """Transport a grid amalgam back over the push-down bijections.

    Points of the pushed families return to their top positions; order
    takes a point below another when some preimage of the upper point
    sits above it, and each meet is the unique maximum of the preimage
    meets (MaxUndefinedError otherwise).  The gap hypothesis on F is
    checked over max(gamma, root top level) before anything is built.

    When no two landing points share a top, every point has one preimage
    and the result's meets are rp's, renamed: each key through h to its
    canonical pair, each value that holds a landing point through h.  A
    shared top instead takes the maximum over its preimages, pair by pair.

    When no landing point has a point above it in rp and no returned top
    is a kept point, the result's order index is rp's with each landing
    point renamed to its top (the tops sort last, and the landing points of
    a shared top merge), and the kept points' down-sets, order, meets and
    interpolant witnesses are rp's own; otherwise the result is built
    through `make_condition`.  With that index and rp a kappa condition
    `judged_valid` for `tree`, only the returned tops and the pairs with an
    end among them are checked, and a clean check keeps the result's
    verdict as a full one would; otherwise the result is validated in
    full.  Last, it must lie below both members.
    """
    pushed_nu = {k: v for k, v in g_nu.items() if k != v}
    pushed_mu = {k: v for k, v in g_mu.items() if k != v}
    landed = set(pushed_nu) | set(pushed_mu)
    missing = sorted(landed - rp.points, key=point_key)
    if missing:
        names = ", ".join(map(repr, missing))
        raise AmalgamError(f"pushed points missing from the amalgam: {{{names}}}")

    keep = rp.points - landed
    h: Dict[Point, Point] = {x: x for x in keep}
    h.update(pushed_nu)
    h.update(pushed_mu)

    z_nu = set(pushed_nu.values())
    z_mu = set(pushed_mu.values())
    shared = r_nu.points & r_mu.points
    bar_levels = [x.level for x in shared if not x.is_top]
    gamma0 = max(bar_levels, default=ZERO)
    if gamma is not None and gamma0 < gamma:
        gamma0 = gamma
    a, b = [s.xi for s in z_nu - z_mu], [t.xi for t in z_mu - z_nu]
    _require_f_gap(F, a, b, gamma0, str(gamma0))

    points = set(h.values())
    meets: Dict = {}
    core = rp.core()
    if len(points) == len(h):
        for (s, t), value in rp.meet_table().items():
            if s in landed or t in landed:
                s, t = pair_key(h[s], h[t])
            if not value.isdisjoint(landed):
                value = frozenset(h[v] for v in value)
            meets[s, t] = value
    else:
        preimages: Dict[Point, List[Point]] = {}
        for src, dst in sorted(h.items(), key=lambda kv: point_key(kv[0])):
            preimages.setdefault(dst, []).append(src)
        for s, t in itertools.combinations(sorted(points, key=point_key), 2):
            cands = [rp.meet(sp, tp) for sp in preimages[s] for tp in preimages[t]]
            value = cands[0] if len(cands) == 1 else _meet_max(core, cands, (s, t))
            meets[(s, t)] = frozenset(h[v] for v in value)

    tops, unjudged = z_nu | z_mu, -1
    if keep.isdisjoint(tops) and not any(core.up[core.index[x]] for x in landed):
        # nothing sits above a landing point, so rp's order index is r's
        # with each landing point renamed to its top: the kept points' rows,
        # meets and interpolant witnesses are rp's own
        r = condition_from_index("kappa", core.renamed(h), meets)
        if rp.dialect == "kappa" and rp.judged_valid(tree, None):
            index = r.core().index
            unjudged = sum(1 << index[z] for z in tops)
    else:
        rel = [(s, h[t]) for s, t in rp.strict if s in keep]
        r = make_condition("kappa", points, rel, meets)
    _require_valid(validate(r, tree, F, unjudged), "pull-back")
    for member, name in ((r_nu, "first"), (r_mu, "second")):
        if not leq(r, member):
            raise AmalgamError(f"pull-back is not below the {name} member")
    return r


KAPPA_STAGES = ("push", "refine", "eta", "pull")


def amalgamate_kappa(
    p: Condition,
    q: Condition,
    zeta_p: int,
    zeta_q: int,
    tree: IntervalTree,
    F: UnboundedFn,
) -> Condition:
    """Amalgamate two root-sharing kappa conditions.

    Pushes the tops of p and q down to eps[zeta_p] and eps[zeta_q],
    refines the pair to a separated family, stamps it, runs the grid
    amalgam and pulls the result back against F.  An AmalgamError,
    ConditionError or TreeError leaves with `stage` set to the
    KAPPA_STAGES entry that raised it; a stamp failure counts as "eta".
    """
    stage = "push"
    try:
        pp, g_p = push_down(p, zeta_p, tree)
        qq, g_q = push_down(q, zeta_q, tree)
        stage = "refine"
        # refinement keeps input order, so the family is (pp, qq)
        fam = separated_refine([pp, qq], 2)
        stage = "eta"
        stamps = equivalence_stamp(fam, tree)
        # separated_refine has judged the pairing: adequate and root-fixing
        _require_grid_members(pp, qq)
        res = _grid_amalgam(pp, qq, fam.pairing(0, 1), stamps, tree, 8)
        stage = "pull"
        return pull_back(res.condition, p, q, g_p, g_q, tree, F, res.gamma)
    except (AmalgamError, ConditionError, TreeError) as err:
        err.stage = stage
        raise
