"""Finite graded posets with explicit meet tables, in two dialects.

A condition is a finite set of grid points (level, column), a strict order
that only ever climbs levels, and a total meet table assigning each point
pair the set of maximal common lower bounds it is accountable for.  The
"omega" dialect allows finite meet sets, forbids same-level meets below
the top, and requires a predecessor-level interpolant under points at
successor levels.  The "kappa" dialect allows at most one meet point,
constrains where meets of incomparable-but-compatible pairs may sit (via
orbits, root markers, and the pair coloring), and requires an interpolant
at the right end of any split interval that isolates the lower point of a
related pair.

`make_condition` normalizes and transitively closes input; `validate`
reports every violated clause by name; `extend_below` is the point
insertion that plants a fresh point under a target while preserving
validity.

`Poset` is the order core shared with `generic.FinitePoset`: each poset
builds one `OrderIndex` on first use, its points sorted by `point_key`
with the strict order as int masks over their positions, and every order
query, clause check and meet completion here is a bit operation on it
(the closure is Warshall's, on the same masks).
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from . import fmt
from .intervals import IntervalTree, Params, TreeError
from .ordinals import Ordinal
from .ordinals import parse as parse_ordinal
from .unbounded import UnboundedFn

FORMAT_HEADER = "# scatterlab-fmt 1 condition"


class ConditionError(ValueError):
    """Structurally malformed condition or bad operation arguments."""


class UnmaterializedLevelError(ConditionError):
    """A check needed tree structure beyond the materialized budget."""


class LevelBudgetError(ConditionError):
    """No free column remains at a requested level."""


class _Top:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


TOP = _Top()
Level = Union[Ordinal, _Top]


def level_lt(a: Level, b: Level) -> bool:
    if a is TOP:
        return False
    if b is TOP:
        return True
    return a < b


class Point:
    """A grid point: ordinal level (or TOP) and column index.

    Immutable.  ``_key`` is the sort key ``(0, level._key, xi)``, or
    ``(1, (), xi)`` at the top level, computed once together with its
    hash; equality and hashing go through it.
    """

    __slots__ = ("level", "xi", "_key", "_hash")

    def __init__(self, level: Level, xi: int):
        key = (1, (), xi) if level is TOP else (0, level._key, xi)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Point, (self.level, self.xi))

    @property
    def is_top(self) -> bool:
        return self.level is TOP

    def __eq__(self, other) -> bool:
        if other.__class__ is Point:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Point(level={self.level!r}, xi={self.xi!r})"

    def __str__(self) -> str:
        return f"({'TOP' if self.is_top else self.level}, {self.xi})"


def point_key(p: Point):
    return p._key


def pair_key(s: Point, t: Point) -> Tuple[Point, Point]:
    return (s, t) if point_key(s) <= point_key(t) else (t, s)


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OrderIndex:
    """The indexed core of a finite strict order.

    `pts` holds the points sorted by `point_key` and `index` maps each to
    its position.  The order is kept as int masks over those positions:
    bit i of `down[j]` and bit j of `up[i]` are set iff (pts[i], pts[j]) is
    a strict pair.  `levels` maps each level to the mask of its points.
    The masks hold exactly the pairs they were built from: no closure, no
    check for cycles.
    """

    __slots__ = ("pts", "index", "down", "up", "levels")

    def __init__(self, points: Iterable[Point], strict: Iterable[Tuple[Point, Point]]):
        self.pts: List[Point] = sorted(points, key=point_key)
        self.index: Dict[Point, int] = {x: i for i, x in enumerate(self.pts)}
        self.down: List[int] = [0] * len(self.pts)
        self.up: List[int] = [0] * len(self.pts)
        for s, t in strict:
            i = self.index.get(s)
            j = self.index.get(t)
            if i is None or j is None:
                raise ConditionError(f"order pair ({s}, {t}) mentions unknown points")
            self.down[j] |= 1 << i
            self.up[i] |= 1 << j
        self.levels: Dict[Level, int] = {}
        for i, x in enumerate(self.pts):
            self.levels[x.level] = self.levels.get(x.level, 0) | 1 << i

    def below(self) -> List[int]:
        """`down` with each point's own bit added: the masks of `le`."""
        return [m | 1 << i for i, m in enumerate(self.down)]

    def above(self) -> List[int]:
        """`up` with each point's own bit added."""
        return [m | 1 << i for i, m in enumerate(self.up)]

    def strict_pairs(self) -> Iterator[Tuple[int, int]]:
        """The strict pairs as positions, in (point_key, point_key) order."""
        for i, m in enumerate(self.up):
            for j in bits(m):
                yield i, j

    def members(self, mask: int) -> List[Point]:
        return [self.pts[k] for k in bits(mask)]


class Poset:
    """Points, a strict order and a meet table, with the order queries
    answered from one `OrderIndex` built on first use.

    `le` is reflexive on the points and false for any point outside them;
    every query reads the strict set as given.  A pair without a meet
    entry reads `_no_meet`.
    """

    __slots__ = ("dialect", "points", "strict", "meets", "_core", "_meet_map")
    _no_meet: Optional[FrozenSet[Point]] = None

    def __init__(
        self,
        dialect: str,
        points: FrozenSet[Point],
        strict: FrozenSet[Tuple[Point, Point]],
        meets: Tuple[Tuple[Tuple[Point, Point], FrozenSet[Point]], ...],
        core: Optional[OrderIndex] = None,
    ):
        self.dialect = dialect
        self.points = points
        self.strict = strict
        self.meets = meets
        self._core = core
        self._meet_map = None

    def _fields(self) -> tuple:
        """What equality compares, between posets of one exact type."""
        return (self.dialect, self.points, self.strict, self.meets)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def core(self) -> OrderIndex:
        if self._core is None:
            self._core = OrderIndex(self.points, self.strict)
        return self._core

    def meet_table(self) -> Dict[Tuple[Point, Point], FrozenSet[Point]]:
        """The meet entries by canonical pair."""
        if self._meet_map is None:
            self._meet_map = dict(self.meets)
        return self._meet_map

    @property
    def size(self) -> int:
        return len(self.points)

    def sorted_points(self) -> List[Point]:
        return list(self.core().pts)

    def pairs(self) -> List[Tuple[Point, Point]]:
        return list(itertools.combinations(self.core().pts, 2))

    def points_at(self, level: Level) -> List[Point]:
        core = self.core()
        return core.members(core.levels.get(level, 0))

    def lt(self, s: Point, t: Point) -> bool:
        core = self.core()
        i = core.index.get(s)
        j = core.index.get(t)
        return i is not None and j is not None and core.up[i] >> j & 1 == 1

    def le(self, s: Point, t: Point) -> bool:
        core = self.core()
        i = core.index.get(s)
        j = core.index.get(t)
        return i is not None and j is not None and (i == j or core.up[i] >> j & 1 == 1)

    def comparable(self, s: Point, t: Point) -> bool:
        return self.le(s, t) or self.le(t, s)

    def down(self, s: Point) -> Set[Point]:
        core = self.core()
        i = core.index.get(s)
        return set() if i is None else set(core.members(core.down[i] | 1 << i))

    def meet(self, s: Point, t: Point) -> Optional[FrozenSet[Point]]:
        return self.meet_table().get(pair_key(s, t), self._no_meet)


class Condition(Poset):
    """Immutable points + strict order + total meet table.

    Assumes normalized input: build through `make_condition`.  The strict
    set is transitively closed and irreflexive; the meet table has exactly
    one entry per unordered pair, canonically keyed, in `pairs()` order.
    A missing entry reads as the empty meet.
    """

    __slots__ = ("_hash",)
    _no_meet = frozenset()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._fields())
            return self._hash

    def __repr__(self) -> str:
        return f"<Condition {self.dialect} |X|={self.size}>"


def _transitive_closure(
    points: FrozenSet[Point], rel: Iterable[Tuple[Point, Point]]
) -> Tuple[FrozenSet[Tuple[Point, Point]], OrderIndex]:
    """The closed strict set and its index, by Warshall's algorithm on the
    `up` masks; a cycle is reported through the first of its points in
    `points` order."""
    core = OrderIndex(points, rel)
    up = core.up
    for k in range(len(up)):
        bit, reach = 1 << k, up[k]
        for i, m in enumerate(up):
            if m & bit:
                up[i] = m | reach
    for s in points:
        i = core.index[s]
        if up[i] >> i & 1:
            raise ConditionError(f"order cycle through {s}")
    pts = core.pts
    down = core.down
    pairs = []
    for i, j in core.strict_pairs():
        down[j] |= 1 << i
        pairs.append((pts[i], pts[j]))
    return frozenset(pairs), core


def make_condition(
    dialect: str,
    points: Iterable[Point],
    rel: Iterable[Tuple[Point, Point]] = (),
    meets: Optional[Mapping] = None,
    complete: bool = False,
) -> Condition:
    """Normalize raw parts into a Condition.

    `rel` is any generating set of strict pairs; it is transitively closed
    here, and cycles are rejected.  `meets` maps pairs (tuples or
    frozensets) to point iterables.  Missing pairs default to the empty
    set, or, with `complete`, to the forced value: the lower point for
    comparable pairs, the maximal common lower bounds otherwise.  Meet
    CONTENT is not judged here; `validate` does that.
    """
    if dialect not in ("omega", "kappa"):
        raise ConditionError(f"unknown dialect {dialect!r}")
    pts = frozenset(points)
    strict, core = _transitive_closure(pts, rel)
    index, order, up, down = core.index, core.pts, core.up, core.down

    table: Dict[Tuple[int, int], FrozenSet[Point]] = {}
    for key, val in (meets or {}).items():
        s, t = tuple(key)
        i = index.get(s)
        j = index.get(t)
        if i is None or j is None:
            raise ConditionError(f"meet entry ({s}, {t}) mentions unknown points")
        if i == j:
            raise ConditionError(f"meet entry for identical points {s}")
        value = frozenset(val)
        if not value <= pts:
            raise ConditionError(f"meet of ({s}, {t}) has unknown points")
        if table.setdefault((i, j) if i < j else (j, i), value) != value:
            raise ConditionError(f"conflicting meet entries for ({s}, {t})")

    rows = []
    for i, s in enumerate(order):
        for j in range(i + 1, len(order)):
            t = order[j]
            value = table.get((i, j))
            if value is None:
                if not complete:
                    value = frozenset()
                elif up[i] >> j & 1:
                    value = frozenset({s})
                elif up[j] >> i & 1:
                    value = frozenset({t})
                else:
                    common = down[i] & down[j]
                    value = frozenset(order[k] for k in bits(common) if not up[k] & common)
            rows.append(((s, t), value))
    return Condition(dialect, pts, strict, tuple(rows), core)


@dataclass(frozen=True)
class Violation:
    clause: str
    points: Tuple[Point, ...]
    detail: str

    def __str__(self) -> str:
        names = ", ".join(str(p) for p in self.points)
        return f"{self.clause} [{names}]: {self.detail}"


def _tree_orbit(tree: IntervalTree, alpha: Ordinal) -> Tuple[Ordinal, ...]:
    try:
        return tree.orbit(alpha)
    except TreeError as err:
        raise UnmaterializedLevelError(f"orbit({alpha}): {err}") from err


def _tree_split(tree: IntervalTree, alpha: Ordinal, beta: Ordinal):
    try:
        return tree.j_and_J(alpha, beta)[1]
    except TreeError as err:
        raise UnmaterializedLevelError(f"split({alpha}, {beta}): {err}") from err


def _marker_membership(tree: IntervalTree, beta: Ordinal) -> bool:
    eps = tree.root_eps()
    if beta in eps:
        return True
    if beta < eps[-1]:
        return False
    raise UnmaterializedLevelError(f"{beta} is past the materialized root markers")


def validate(
    p: Condition, tree: IntervalTree, F: Optional[UnboundedFn] = None
) -> List[Violation]:
    """Every violated clause, empty iff the condition is valid.

    Clause names: size-cap, grid, level-monotone, meet-axiom, and then per
    dialect: meet-arity / meet-location / isolation-interpolant (kappa),
    top-meet-bound / same-level-meet / successor-interpolant (omega).
    Checks that would need tree structure past the budget raise
    UnmaterializedLevelError instead of reporting a violation.
    """
    params = tree.params
    out: List[Violation] = []
    core = p.core()
    pts = core.pts

    if p.size > params.size_cap:
        out.append(Violation("size-cap", (), f"{p.size} points exceed cap {params.size_cap}"))

    for s in pts:
        if s.is_top:
            if not 0 <= s.xi < params.lambda_w:
                out.append(Violation("grid", (s,), f"top column {s.xi} out of range"))
        else:
            if not s.level < params.eta:
                out.append(Violation("grid", (s,), f"level {s.level} not below {params.eta}"))
            elif not 0 <= s.xi < params.kappa_w:
                out.append(Violation("grid", (s,), f"column {s.xi} out of range"))

    for i, j in core.strict_pairs():
        s, t = pts[i], pts[j]
        if not level_lt(s.level, t.level):
            out.append(Violation("level-monotone", (s, t), "related points must climb levels"))

    # meet axiom: the points below both ends are exactly those below a meet point
    index, below, table = core.index, core.below(), p.meet_table()
    kappa = p.dialect == "kappa"
    for i, s in enumerate(pts):
        for j in range(i + 1, len(pts)):
            t = pts[j]
            value = table.get((s, t), frozenset())
            covered = 0
            for v in value:
                covered |= below[index[v]]
            missed = (below[i] & below[j]) ^ covered
            if missed:
                out.append(
                    Violation(
                        "meet-axiom",
                        (s, t),
                        f"lower-bound set mismatch at {{{', '.join(str(x) for x in core.members(missed))}}}",
                    )
                )
            if kappa and len(value) > 1:
                out.append(Violation("meet-arity", (s, t), f"{len(value)} meet points"))

    if kappa:
        _validate_kappa(p, tree, F, out)
    else:
        _validate_omega(p, tree, F, out)
    return out


def _validate_kappa(p, tree, F, out):
    params = tree.params
    core = p.core()
    pts, below, table = core.pts, core.below(), p.meet_table()
    for i, s in enumerate(pts):
        for j in range(i + 1, len(pts)):
            # skip comparable pairs and pairs with no common lower bound
            if (below[j] >> i | below[i] >> j) & 1 or not below[i] & below[j]:
                continue
            t = pts[j]
            for v in table.get((s, t), ()):
                if v.is_top:
                    out.append(Violation("meet-location", (s, t), "meet point at the top level"))
                    continue
                beta = v.level
                if not s.is_top and not t.is_top:
                    ok = beta in _tree_orbit(tree, s.level) and beta in _tree_orbit(tree, t.level)
                    why = "below both paths" if ok else f"{beta} outside orbit overlap"
                elif s.is_top and t.is_top:
                    if F is None:
                        raise ConditionError("top-top meet check needs the pair coloring F")
                    bound = F.value(s.xi, t.xi)
                    ok = beta < bound and _marker_membership(tree, beta)
                    why = f"{beta} not a root marker below F value {bound}" if not ok else ""
                else:
                    ordinary = t if s.is_top else s
                    ok = beta in _tree_orbit(tree, ordinary.level) and _marker_membership(
                        tree, beta
                    )
                    why = f"{beta} not a shared root marker on the path" if not ok else ""
                if not ok:
                    out.append(Violation("meet-location", (s, t), why))

    above = core.above()
    for i, j in core.strict_pairs():
        s, t = pts[i], pts[j]
        if s.is_top or not level_lt(s.level, t.level):
            continue
        beta = params.eta if t.is_top else t.level
        lam = _tree_split(tree, s.level, beta)
        if not (lam.lo < s.level and lam.hi <= beta):
            continue
        # a witness sits at lam.hi with s <= u <= t
        if not core.levels.get(lam.hi, 0) & above[i] & below[j]:
            out.append(
                Violation(
                    "isolation-interpolant",
                    (s, t),
                    f"split interval {lam} isolates but no point sits at {lam.hi}",
                )
            )


def _validate_omega(p, tree, F, out):
    core = p.core()
    pts, table = core.pts, p.meet_table()
    for i, s in enumerate(pts):
        for j in range(i + 1, len(pts)):
            t = pts[j]
            if s.is_top and t.is_top:
                for v in table.get((s, t), ()):
                    if F is None:
                        raise ConditionError("top-top meet check needs the pair coloring F")
                    bound = F.value(s.xi, t.xi)
                    if v.is_top or not v.level < bound:
                        out.append(
                            Violation(
                                "top-meet-bound",
                                (s, t),
                                f"meet point {v} not below F value {bound}",
                            )
                        )
            elif not s.is_top and not t.is_top and s.level == t.level:
                if table.get((s, t)):
                    out.append(
                        Violation("same-level-meet", (s, t), "same-level pairs meet nothing")
                    )

    above = core.above()
    for i, j in core.strict_pairs():
        s, t = pts[i], pts[j]
        if t.is_top or not t.level.is_successor:
            continue
        prior = t.level.predecessor()
        # a witness sits at the predecessor level with s <= u < t
        if not core.levels.get(prior, 0) & above[i] & core.down[j]:
            out.append(
                Violation(
                    "successor-interpolant",
                    (s, t),
                    f"no point at {prior} between {s} and {t}",
                )
            )


def leq(q: Condition, p: Condition) -> bool:
    """True iff q extends p: superset points, order restricting exactly,
    meet table agreeing on p's pairs."""
    if q.dialect != p.dialect:
        return False
    if not p.points <= q.points:
        return False
    pc, qc = p.core(), q.core()
    at = [qc.index[x] for x in pc.pts]
    inside = 0
    for k in at:
        inside |= 1 << k
    for i, m in enumerate(pc.up):
        want = 0
        for j in bits(m):
            want |= 1 << at[j]
        if qc.up[at[i]] & inside != want:
            return False
    table = q.meet_table()
    return all(table.get(key, frozenset()) == value for key, value in p.meets)


def _fresh_column(core: OrderIndex, level: Level, floor: int, cap: int) -> Point:
    used = {x.xi for x in core.members(core.levels.get(level, 0))}
    xi = floor
    while xi in used:
        xi += 1
    if xi >= cap:
        raise LevelBudgetError(f"no free column at level {level} (cap {cap})")
    return Point(level, xi)


def extend_below(
    p: Condition,
    tgt: Point,
    alpha: Ordinal,
    nu_floor: int,
    tree: IntervalTree,
) -> Tuple[Condition, Point]:
    """Insert a fresh point s at level alpha, column >= nu_floor, tied to
    tgt: for every old x, s sits below x exactly when tgt does.

    The kappa dialect adds one auxiliary point at the right end of each
    interval that isolates the new point from the target, strictly below
    the target's level (instances whose isolating interval ends exactly at
    the target's level are witnessed by the target itself).  The omega
    dialect adds the finite ladder filling the levels from which the
    target's successor level is reachable by finite steps.  The new points
    form one chain tied upward to everything at or above tgt, and
    `make_condition` forces their meets: the lower point of a comparable
    pair, and the empty set against every other old point.
    """
    if tgt not in p.points:
        raise ConditionError(f"target {tgt} is not in the condition")
    if not level_lt(alpha, tgt.level):
        raise ConditionError(f"need alpha below the target, got {alpha} vs {tgt.level}")
    if not alpha < tree.params.eta:
        raise ConditionError(f"alpha {alpha} is not below {tree.params.eta}")
    if nu_floor < 0:
        raise ConditionError(f"column floor {nu_floor} is negative")

    params = tree.params
    levels: List[Ordinal] = [alpha]
    if p.dialect == "kappa":
        try:
            trail = tree.path(alpha)
        except TreeError as err:
            raise UnmaterializedLevelError(f"path({alpha}): {err}") from err
        bound = params.eta if tgt.is_top else tgt.level
        levels += [iv.hi for iv in trail[:-1] if iv.hi < bound]
    elif not tgt.is_top and tgt.level.is_successor:
        base = Ordinal(tgt.level.terms[:-1])
        levels += [base + k for k in range(tgt.level.terms[-1][1]) if alpha < base + k]

    core = p.core()
    s = _fresh_column(core, alpha, nu_floor, params.kappa_w)
    chain = sorted(
        [s] + [_fresh_column(core, lev, 0, params.kappa_w) for lev in levels[1:]],
        key=point_key,
    )
    i = core.index[tgt]
    above = core.members(core.up[i] | 1 << i)
    rel = set(p.strict)
    rel.update(zip(chain, chain[1:]))
    rel.update((w, y) for w in chain for y in above)
    p2 = make_condition(p.dialect, p.points | set(chain), rel, p.meet_table(), complete=True)
    return p2, s


# --- document format -----------------------------------------------------------

PARAM_KEYS = ("kappa_w", "lambda_w", "e_budget", "size_cap")


def level_token(level: Level) -> str:
    """A level as one document token: `TOP`, or the ordinal without spaces."""
    return "TOP" if level is TOP else str(level).replace(" ", "")


def parse_level(token: str) -> Level:
    return TOP if token == "TOP" else parse_ordinal(token)


def poset_block(p: Poset) -> List[str]:
    """The points, order and meets sections of a condition or poset
    document: points by `point_key`, then every pair by point index."""
    core = p.core()
    index = core.index
    lines = [f"points {len(core.pts)}"]
    lines.extend(f"{i} {level_token(x.level)} {x.xi}" for i, x in enumerate(core.pts))
    order = list(core.strict_pairs())
    lines.append(f"order {len(order)}")
    lines.extend(f"{i} {j}" for i, j in order)
    lines.append(f"meets {len(p.meets)}")
    for (s, t), value in p.meets:
        ids = " ".join(str(k) for k in sorted(index[v] for v in value))
        lines.append(f"{index[s]} {index[t]} : {ids}".rstrip())
    return lines


def read_poset_block(lines: List[str], at: int, error):
    """The points, strict pairs and meet entries of the block that
    `poset_block` writes, starting at line `at`, and the line after it."""
    body, at = fmt.section(lines, at, "points", error)
    pts = [
        Point(parse_level(level), fmt.integer(xi, "column", error))
        for level, xi in fmt.numbered(body, error, 2)
    ]
    body, at = fmt.section(lines, at, "order", error)
    rel = [tuple(fmt.pair(pts, line, error)) for line in body]
    body, at = fmt.section(lines, at, "meets", error)
    meets = {}
    for line in body:
        head, _, tail = line.partition(":")
        value = frozenset(fmt.indexed(pts, tail.split(), error))
        meets[tuple(fmt.pair(pts, head, error))] = value
    return pts, rel, meets, at


def condition_to_text(p: Condition, params: Params) -> str:
    widths = " ".join(f"{key}={getattr(params, key)}" for key in PARAM_KEYS)
    head = [FORMAT_HEADER, f"dialect {p.dialect}", f"eta {level_token(params.eta)}"]
    return fmt.text(head + [f"params {widths}"] + poset_block(p))


def condition_from_text(text: str) -> Tuple[Condition, Params]:
    lines = fmt.document_lines(text, FORMAT_HEADER, ConditionError)
    dialect = fmt.value(lines, 1, "dialect", ConditionError)
    eta = parse_ordinal(fmt.value(lines, 2, "eta", ConditionError))
    widths = fmt.params(lines, 3, PARAM_KEYS, ConditionError)
    try:
        params = Params(eta=eta, **widths)
    except TreeError as err:
        raise ConditionError(f"params: {err}") from None
    pts, rel, meets, _ = read_poset_block(lines, 4, ConditionError)
    return make_condition(dialect, pts, rel, meets), params
