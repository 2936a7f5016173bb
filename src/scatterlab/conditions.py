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
validity.  `extend_condition` adds points below old ones without
rebuilding the old part, `condition_from_index` wraps an order index its
caller has already closed, and `violations_touching` checks only the pairs
with a new end, or only what a condition adds to valid members it extends.

Points are hash-consed (see `Point`) and hash by identity, which changes
from run to run, so messages, reports and documents list points by
`point_key`, never in the iteration order of a set of points.

`Poset` is the order core shared with `generic.FinitePoset`: each poset
builds one `OrderIndex` on first use, its points sorted by `point_key`
with the strict order as int masks over their positions, and every order
query, clause check and meet completion here is a bit operation on it
(the closure is Warshall's, on the same masks).
"""

from __future__ import annotations

import itertools
import operator
import weakref
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
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
DIALECTS = ("omega", "kappa")


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

    Hash-consed: `Point(level, xi)` returns the one live instance of that
    value from a weak table keyed by ``_key``, the sort key ``(0,
    level._key, xi)``, or ``(1, (), xi)`` at the top level, so equality and
    hashing are `object`'s, by identity, in C; pickle and copy return the
    table's instance.  A `bool` column is stored as its `int`, and a
    non-integer one is refused.  Immutable: ``level``, ``xi``, ``is_top``
    and ``_key`` are slots filled once at creation.
    """

    __slots__ = ("level", "xi", "is_top", "_key", "__weakref__")

    def __new__(cls, level: Level, xi: int):
        xi = operator.index(xi)
        key = (1, (), xi) if level is TOP else (0, level._key, xi)
        p = _interned.get(key)
        if p is None:
            p = object.__new__(cls)
            object.__setattr__(p, "level", level)
            object.__setattr__(p, "xi", xi)
            object.__setattr__(p, "is_top", level is TOP)
            object.__setattr__(p, "_key", key)
            p = _interned.setdefault(key, p)
        return p

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Point, (self.level, self.xi))

    def __repr__(self) -> str:
        return f"Point(level={self.level!r}, xi={self.xi!r})"

    def __str__(self) -> str:
        return f"({'TOP' if self.is_top else self.level}, {self.xi})"


_interned = weakref.WeakValueDictionary()  # _key -> the live Point of that value


def point_key(p: Point):
    return p._key


def pair_key(s: Point, t: Point) -> Tuple[Point, Point]:
    return (s, t) if point_key(s) <= point_key(t) else (t, s)


def _least_pair(pairs: Iterable[Tuple[Point, Point]]) -> Tuple[Point, Point]:
    """The pair an error names among several offending ones: the least by
    `point_key` of its ends, whatever order the caller listed them in."""
    return min(pairs, key=lambda st: (st[0]._key, st[1]._key))


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(masks: Iterable[int], q: int) -> List[int]:
    """`masks` with a zero bit opened at position `q`."""
    low = (1 << q) - 1
    return [m & low | (m & ~low) << 1 for m in masks]


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
        unknown = []
        for s, t in strict:
            i = self.index.get(s)
            j = self.index.get(t)
            if i is None or j is None:
                unknown.append((s, t))
            else:
                self.down[j] |= 1 << i
                self.up[i] |= 1 << j
        if unknown:
            s, t = _least_pair(unknown)
            raise ConditionError(f"order pair ({s}, {t}) mentions unknown points")
        self.levels: Dict[Level, int] = {}
        for i, x in enumerate(self.pts):
            self.levels[x.level] = self.levels.get(x.level, 0) | 1 << i

    def below(self) -> List[int]:
        """`down` with each point's own bit added: the masks of `le`."""
        return [m | 1 << i for i, m in enumerate(self.down)]

    def above(self) -> List[int]:
        """`up` with each point's own bit added."""
        return [m | 1 << i for i, m in enumerate(self.up)]

    def pairs(self, touching: int = -1) -> List[Tuple[int, int]]:
        """Every pair of positions i < j, in order; only those with an end in
        the mask `touching`, when it is given, listed from its points."""
        n = len(self.pts)
        if touching == -1:
            return list(itertools.combinations(range(n), 2))
        found = []
        for f in bits(touching):
            found += zip(range(f), itertools.repeat(f))
            found += zip(itertools.repeat(f), range(f + 1, n))
        return sorted(set(found))

    def strict_pairs(self, touching: int = -1) -> Iterable[Tuple[int, int]]:
        """The strict pairs as positions, in (point_key, point_key) order;
        only those with an end in the mask `touching`, when it is given,
        read from the `up` rows and `down` columns of its points."""
        if touching == -1:
            return ((i, j) for i, m in enumerate(self.up) for j in bits(m))
        found = set()
        for f in bits(touching):
            found.update(zip(itertools.repeat(f), bits(self.up[f])))
            found.update(zip(bits(self.down[f]), itertools.repeat(f)))
        return sorted(found)

    def inserted(self, new_points: Iterable[Point]) -> Tuple["OrderIndex", int]:
        """A copy with `new_points` sorted in, each with empty rows, and the
        mask of their positions.  The old rows are moved to the merged
        positions, not rebuilt."""
        pts = list(self.pts)
        slots: List[int] = []
        for r, x in enumerate(sorted(set(new_points), key=point_key)):
            at = bisect_left(self.pts, x._key, key=point_key)
            if at < len(self.pts) and self.pts[at] == x:
                raise ConditionError(f"point {x} is already in the condition")
            slots.append(at + r)
            pts.insert(at + r, x)
        down, up, marks = list(self.down), list(self.up), list(self.levels.values())
        for q in slots:  # ascending, so the slots opened so far stay below q
            down, up, marks = _spread(down, q), _spread(up, q), _spread(marks, q)
        out = OrderIndex((), ())
        out.pts, out.down, out.up = pts, down, up
        out.index = {x: i for i, x in enumerate(pts)}
        out.levels = dict(zip(self.levels, marks))
        fresh = 0
        for q in slots:
            down.insert(q, 0)
            up.insert(q, 0)
            out.levels[pts[q].level] = out.levels.get(pts[q].level, 0) | 1 << q
            fresh |= 1 << q
        return out, fresh

    def renamed(self, new: Mapping[Point, Point]) -> "OrderIndex":
        """A copy with each point x in `new` renamed to `new[x]`, points
        renamed alike merged into one with their rows ORed, and every row
        moved to its point's position among the renamed points.  Where no
        position moves, the rows are copied as they are.  A merged point
        must hold no strict pair inside it."""
        out = OrderIndex((), ())
        names = [new.get(x, x) for x in self.pts]
        keys = [x._key for x in names]
        if all(a < b for a, b in zip(keys, keys[1:])):
            out.pts, out.down, out.up = names, list(self.down), list(self.up)
            out.index = {x: i for i, x in enumerate(names)}
        else:
            out.pts = sorted(set(names), key=point_key)
            out.index = index = {x: i for i, x in enumerate(out.pts)}
            at = [index[x] for x in names]
            out.down, out.up = [0] * len(out.pts), [0] * len(out.pts)
            for k, j in enumerate(at):
                for b in bits(self.down[k]):
                    out.down[j] |= 1 << at[b]
                for b in bits(self.up[k]):
                    out.up[j] |= 1 << at[b]
        for i, x in enumerate(out.pts):
            out.levels[x.level] = out.levels.get(x.level, 0) | 1 << i
        return out

    def members(self, mask: int) -> List[Point]:
        return [self.pts[k] for k in bits(mask)]


class Poset:
    """Points, a strict order and a meet table, with the order queries
    answered from one `OrderIndex` built on first use.

    `le` is reflexive on the points and false for any point outside them;
    every query reads the strict set as given.  The meet table is one map
    from canonical pairs `pair_key(s, t)` of distinct points to meet sets,
    and is the only stored form of the meets: `meet_table()` returns it,
    and `meets` lists its entries as rows `((s, t), value)` in `pairs()`
    order, built afresh on each read.  A pair without an entry reads
    `_no_meet`.
    """

    __slots__ = ("dialect", "points", "strict", "_meet_map", "_core")
    _no_meet: Optional[FrozenSet[Point]] = None

    def __init__(
        self,
        dialect: str,
        points: FrozenSet[Point],
        strict: FrozenSet[Tuple[Point, Point]],
        meets: Dict[Tuple[Point, Point], FrozenSet[Point]],
        core: Optional[OrderIndex] = None,
    ):
        self.dialect = dialect
        self.points = points
        self.strict = strict
        self._meet_map = meets
        self._core = core

    @property
    def meets(self) -> Tuple[Tuple[Tuple[Point, Point], FrozenSet[Point]], ...]:
        table = self._meet_map
        pairs = self.pairs()
        if len(table) < len(pairs):
            pairs = list(filter(table.__contains__, pairs))
        return tuple(zip(pairs, map(table.__getitem__, pairs)))

    def _fields(self) -> tuple:
        """What equality compares, between posets of one exact type."""
        return (self.dialect, self.points, self.strict, self._meet_map)

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
        return self._meet_map.get(pair_key(s, t), self._no_meet)


class Condition(Poset):
    """Immutable points + strict order + total meet table.

    Assumes normalized input: build through `make_condition` from raw
    parts, `extend_condition` below an old condition, or
    `condition_from_index` from an order index already closed.  The strict
    set is transitively closed and irreflexive; the meet map has exactly
    one entry per pair of distinct points, canonically keyed.  Conditions
    of a schedule chain each own a copy of the strict set and meet map, the
    values shared.  The verdict of a `validate` that found nothing is kept
    in the slot `_valid_for`, outside `_fields()` and the hash, as the
    tree's params and depth cap and the F object it was judged against.
    """

    __slots__ = ("_hash", "_valid_for")
    _no_meet = frozenset()

    def judged_valid(self, tree: IntervalTree, F: Optional[UnboundedFn]) -> bool:
        """True when a full `validate` against `tree`'s params and depth cap
        and this very `F` object has found nothing."""
        kept = getattr(self, "_valid_for", None)
        return kept is not None and kept[2] is F and kept[:2] == (tree.params, tree.depth_cap)

    def keep_verdict(self, tree: IntervalTree, F: Optional[UnboundedFn]) -> None:
        """Record that a full `validate` against `tree` and `F` finds
        nothing: for `validate` itself, or for a caller whose
        `violations_touching` with judged members found nothing."""
        self._valid_for = (tree.params, tree.depth_cap, F)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(
                (self.dialect, self.points, self.strict, frozenset(self._meet_map.items()))
            )
            return self._hash

    def __repr__(self) -> str:
        return f"<Condition {self.dialect} |X|={self.size}>"


def _close(core: OrderIndex, rows: Sequence[int]) -> List[Tuple[Point, Point]]:
    """Close the `up` masks of the positions `rows` by Warshall's algorithm,
    pivoting on those rows alone (every other row must be closed already
    and reach none of them), add the closed pairs to `down`, and return
    them as point pairs.  A cycle is reported through the first of its
    points in `point_key` order."""
    up = core.up
    for k in rows:
        bit, reach = 1 << k, up[k]
        for i in rows:
            if up[i] & bit:
                up[i] |= reach
    cyclic = [i for i in rows if up[i] >> i & 1]
    if cyclic:
        raise ConditionError(f"order cycle through {core.pts[min(cyclic)]}")
    pts, down, pairs = core.pts, core.down, []
    for i in rows:
        s = pts[i]
        for j in bits(up[i]):
            down[j] |= 1 << i
            pairs.append((s, pts[j]))
    return pairs


def _force(core: OrderIndex, pairs: Iterable[Tuple[int, int]], table: dict) -> None:
    """Enter in `table` the forced meet of each position pair i < j: the
    lower point of a comparable pair, the maximal common lower bounds
    otherwise.  A lower point's singleton is made once and shared."""
    pts, up, down = core.pts, core.up, core.down
    lone: Dict[int, FrozenSet[Point]] = {}
    none = frozenset()
    for i, j in pairs:
        if up[i] >> j & 1:
            value = lone.get(i) or lone.setdefault(i, frozenset((pts[i],)))
        elif up[j] >> i & 1:
            value = lone.get(j) or lone.setdefault(j, frozenset((pts[j],)))
        else:
            common = down[i] & down[j]
            value = none
            if common:
                value = frozenset(pts[k] for k in bits(common) if not up[k] & common)
        table[pts[i], pts[j]] = value


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
    if dialect not in DIALECTS:
        raise ConditionError(f"unknown dialect {dialect!r}")
    pts = frozenset(points)
    core = OrderIndex(pts, rel)
    strict = frozenset(_close(core, range(len(core.pts))))
    index, order = core.index, core.pts

    given: Dict[Tuple[int, int], FrozenSet[Point]] = {}
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
        if given.setdefault((i, j) if i < j else (j, i), value) != value:
            raise ConditionError(f"conflicting meet entries for ({s}, {t})")

    if complete:
        table: Dict[Tuple[Point, Point], FrozenSet[Point]] = {}
        _force(core, [ij for ij in core.pairs() if ij not in given], table)
        table.update(((order[i], order[j]), value) for (i, j), value in given.items())
    else:
        values = map(given.get, core.pairs(), itertools.repeat(frozenset()))
        table = dict(zip(itertools.combinations(order, 2), values))
    return Condition(dialect, pts, strict, table, core)


def condition_from_index(
    dialect: str,
    core: OrderIndex,
    strict: FrozenSet[Tuple[Point, Point]],
    meets: Dict[Tuple[Point, Point], FrozenSet[Point]],
    force: Iterable[Tuple[int, int]] = (),
) -> Condition:
    """A Condition over the order index `core`, whose masks must be
    transitively closed and acyclic with `strict` as their pairs, and the
    canonically keyed map `meets`, into which the meet of each position
    pair in `force` is entered first, as `make_condition(...,
    complete=True)` forces it.  `meets` is filled in place and must end
    with one entry per pair.  Nothing is sorted, closed or checked here."""
    _force(core, force, meets)
    return Condition(dialect, frozenset(core.pts), strict, meets, core)


def extend_condition(
    p: Condition,
    new_points: Iterable[Point],
    new_pairs: Iterable[Tuple[Point, Point]],
) -> Condition:
    """`p` with `new_points` added, the strict pairs `new_pairs` closed in,
    and the meet of every pair that touches a new point forced, as
    `make_condition(..., complete=True)` forces it.

    Every pair must start at a new point, so new points sit only below old
    ones and an old point's rows, strict pairs and meet entries stand as
    they are: only the new points' rows are closed, and `p`'s strict set
    and meet map are copied (C-level copies, no rehashing) with the entries
    of the pairs that have a new end added.
    """
    core, fresh = p.core().inserted(new_points)
    index, up, bad = core.index, core.up, []
    for s, t in new_pairs:
        i = index.get(s)
        j = index.get(t)
        if i is None or j is None or not fresh >> i & 1:
            bad.append((s, t))
        else:
            up[i] |= 1 << j | up[j]
    if bad:
        s, t = _least_pair(bad)
        why = "climbs from an old point" if s in index and t in index else "mentions unknown points"
        raise ConditionError(f"order pair ({s}, {t}) {why}")
    points = p.points.union(core.members(fresh))
    # an old row is closed and reaches only old points
    added = _close(core, list(bits(fresh)))
    table = p.meet_table().copy()
    _force(core, core.pairs(fresh), table)
    return Condition(p.dialect, points, p.strict.union(added), table, core)


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
    eps = tree.markers_to(tree.root, beta)
    if beta in eps:
        return True
    if beta < eps[-1]:
        return False
    raise UnmaterializedLevelError(f"{beta} is past the materialized root markers")


def validate(
    p: Condition, tree: IntervalTree, F: Optional[UnboundedFn] = None, fresh: int = -1
) -> List[Violation]:
    """Every violated clause, empty iff the condition is valid.

    Clause names: size-cap, grid, level-monotone, meet-axiom, and then per
    dialect: meet-arity / meet-location / isolation-interpolant (kappa),
    top-meet-bound / same-level-meet / successor-interpolant (omega).
    Checks that would need tree structure past the budget raise
    UnmaterializedLevelError instead of reporting a violation.

    A check that finds nothing is kept on the condition, and a later call
    with a tree of equal params and depth cap and the same F object (by
    identity) answers [] from it at once: conditions are immutable, and a
    tree's answers are a function of its params and depth cap.  A check
    that raises or finds a violation is never kept.

    A mask `fresh` of positions in `p.core()` narrows the check to its
    points and the pairs with an end among them (`violations_touching`),
    for a caller that vouches that every other point and pair was judged
    valid already, as they stand in `p`; a narrowed check that finds
    nothing is kept all the same.
    """
    if p.judged_valid(tree, F):
        return []
    found = violations_touching(p, tree, F, fresh)
    if not found:
        p.keep_verdict(tree, F)
    return found


def violations_touching(
    p: Condition,
    tree: IntervalTree,
    F: Optional[UnboundedFn],
    fresh: int,
    members: Sequence[Condition] = (),
) -> List[Violation]:
    """`validate`'s findings on the points in the mask `fresh` (positions in
    `p.core()`, -1 for every point) and on the pairs with an end among
    them, in `validate`'s order; the size cap is checked whatever `fresh`
    holds.

    `members` are conditions that `p` extends (`leq`), each `judged_valid`
    for `tree` and `F`.  Among the points and pairs above, the meet axiom
    is still checked on every pair, and every other clause only on the
    points in no member and the pairs inside no member (cross pairs
    included).  Nothing stops early, so a check that `validate` would
    raise from raises here too.  A pair inside a member keeps the verdict
    it had there, clause by clause, because `leq` pins its order and its
    meet value and the tree answers as it did:
    - grid and level-monotone read one point or one strict pair;
    - meet-arity and every meet-location clause read the pair, its
      comparability and its meet value; a pair that newly gains a common
      lower bound had none in the valid member, so its meet is empty;
    - the interpolant clauses ask for a witness between the ends of a
      strict pair, and the member's witness stays between them.
    The meet axiom is the one exception: a new point can sit below both
    ends of an old pair.
    """
    params = tree.params
    out: List[Violation] = []
    core = p.core()
    pts, index, below = core.pts, core.index, core.below()
    meet_pairs = pairs = core.pairs(fresh)
    strict = list(core.strict_pairs(fresh))
    points = pts if fresh == -1 else core.members(fresh)
    owners: Optional[List[int]] = None
    if members:
        # bit k of a position's owners: its point lies in members[k]
        owners = [0] * len(pts)
        for k, m in enumerate(members):
            for x in m.points:
                owners[index[x]] |= 1 << k
        pairs = [(i, j) for i, j in pairs if not owners[i] & owners[j]]
        strict = [(i, j) for i, j in strict if not owners[i] & owners[j]]
        points = [x for x in points if not owners[index[x]]]

    if p.size > params.size_cap:
        out.append(Violation("size-cap", (), f"{p.size} points exceed cap {params.size_cap}"))

    for s in points:
        if s.is_top:
            if not 0 <= s.xi < params.lambda_w:
                out.append(Violation("grid", (s,), f"top column {s.xi} out of range"))
        else:
            if not s.level < params.eta:
                out.append(Violation("grid", (s,), f"level {s.level} not below {params.eta}"))
            elif not 0 <= s.xi < params.kappa_w:
                out.append(Violation("grid", (s,), f"column {s.xi} out of range"))

    for i, j in strict:
        s, t = pts[i], pts[j]
        if not level_lt(s.level, t.level):
            out.append(Violation("level-monotone", (s, t), "related points must climb levels"))

    # meet axiom: the points below both ends are exactly those below a meet point
    table, none = p.meet_table(), frozenset()
    kappa = p.dialect == "kappa"
    for i, j in meet_pairs:
        s, t = pts[i], pts[j]
        value = table.get((s, t), none)
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
        if kappa and len(value) > 1 and not (owners and owners[i] & owners[j]):
            out.append(Violation("meet-arity", (s, t), f"{len(value)} meet points"))

    if kappa:
        _validate_kappa(p, tree, F, pairs, strict, below, out)
    else:
        _validate_omega(p, tree, F, pairs, strict, out)
    return out


def _validate_kappa(p, tree, F, pairs, strict, below, out):
    params = tree.params
    core = p.core()
    pts, table = core.pts, p.meet_table()
    for i, j in pairs:
        # skip comparable pairs and pairs with no common lower bound
        if (below[j] >> i | below[i] >> j) & 1 or not below[i] & below[j]:
            continue
        s, t = pts[i], pts[j]
        for v in sorted(table.get((s, t), ()), key=point_key):
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
    for i, j in strict:
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


def _validate_omega(p, tree, F, pairs, strict, out):
    core = p.core()
    pts, table = core.pts, p.meet_table()
    for i, j in pairs:
        s, t = pts[i], pts[j]
        if s.is_top and t.is_top:
            for v in sorted(table.get((s, t), ()), key=point_key):
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
    for i, j in strict:
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
    return all(table.get(key, frozenset()) == value for key, value in p.meet_table().items())


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
    `extend_condition` forces their meets: the lower point of a comparable
    pair, and the empty set against every other old point.

    The insertion is monotone, so no clause on a pair of old points changes
    its verdict and only pairs touching a new point need checking.  A new
    point sits below an old x exactly when tgt <= x.  A new common lower
    bound of two old points therefore lies below tgt, and tgt, a common
    lower bound already, lies below one of their old meet points, which
    covers it.  New points are never above old ones, so no interpolant
    witness for an old strict pair appears or disappears.
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
    rel = list(zip(chain, chain[1:])) + [(chain[-1], tgt)]
    return extend_condition(p, chain, rel), s


# --- document format -----------------------------------------------------------

PARAM_KEYS = ("kappa_w", "lambda_w", "e_budget", "size_cap")


def level_token(level: Level) -> str:
    """A level as one document token: `TOP`, or the ordinal without spaces."""
    return "TOP" if level is TOP else str(level).replace(" ", "")


def parse_level(token: str) -> Level:
    return TOP if token == "TOP" else parse_ordinal(token)


def poset_block(p: Poset) -> List[str]:
    """The points, order and meets sections of a condition or poset
    document: points by `point_key`, then every pair by point index.  A
    meet row's tail is written once per distinct meet value."""
    core = p.core()
    pts, index = core.pts, core.index
    tokens = {level: level_token(level) for level in core.levels}
    lines = [f"points {len(pts)}"]
    lines.extend(f"{i} {tokens[x.level]} {x.xi}" for i, x in enumerate(pts))
    order = list(core.strict_pairs())
    lines.append(f"order {len(order)}")
    lines.extend(f"{i} {j}" for i, j in order)
    table, tails, rows = p.meet_table(), {}, []
    for i, j in itertools.combinations(range(len(pts)), 2):
        value = table.get((pts[i], pts[j]))
        if value is None:
            continue
        tail = tails.get(value)
        if tail is None:
            tail = tails[value] = "".join(f" {k}" for k in sorted(index[v] for v in value))
        rows.append(f"{i} {j} :{tail}")
    lines.append(f"meets {len(rows)}")
    return lines + rows


def read_poset_block(lines: List[str], at: int, error):
    """The points, strict pairs and meet map (keyed by `pair_key`) of the
    block that `poset_block` writes, starting at line `at`, and the line
    after it.  A repeated point, a meet row on identical points and two
    rows for one pair with different values raise `error`, with
    `make_condition`'s messages for the rows.  Each distinct level token
    and meet-row tail is read once."""
    body, at = fmt.section(lines, at, "points", error)
    levels: Dict[str, Level] = {}
    pts = []
    for token, xi in fmt.numbered(body, error, 2):
        level = levels.get(token)
        if level is None:
            level = levels[token] = parse_level(token)
        pts.append(Point(level, fmt.integer(xi, "column", error)))
    fmt.distinct(pts, error)
    lookup = fmt.by_token(pts)
    body, at = fmt.section(lines, at, "order", error)
    rel = [tuple(fmt.pair(pts, line, error, lookup)) for line in body]
    body, at = fmt.section(lines, at, "meets", error)
    meets, tails = {}, {}
    for line in body:
        head, _, tail = line.partition(":")
        value = tails.get(tail)
        if value is None:
            value = tails[tail] = frozenset(fmt.indexed(pts, tail.split(), error, lookup))
        s, t = fmt.pair(pts, head, error, lookup)
        if s == t:
            raise error(f"meet entry for identical points {s}")
        if meets.setdefault(pair_key(s, t), value) != value:
            raise error(f"conflicting meet entries for ({s}, {t})")
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
