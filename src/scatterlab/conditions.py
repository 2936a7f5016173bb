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
stores its order once, as the `OrderIndex` it is built with, its points
sorted by `point_key` with the strict order as int masks over their
positions, and every order query, clause check and meet completion here
is a bit operation on it (the closure is Warshall's, on the same masks).
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
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
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
Level = Ordinal | _Top


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


# the set bits of each byte value, as positions in the low and the next byte
_LOW_BYTE = [tuple(k for k in range(8) if b >> k & 1) for b in range(256)]
_HIGH_BYTE = [tuple(k + 8 for k in row) for row in _LOW_BYTE]


def bits(mask: int) -> Sequence[int]:
    """The positions of the set bits of `mask`, lowest first, read from two
    byte tables: bits 0-15 by lookup, each further byte shifted by its
    offset.  A negative mask has no last set bit and is refused."""
    if mask < 256:
        if mask < 0:
            raise ConditionError(f"negative mask {mask} has no finite set of bits")
        return _LOW_BYTE[mask]
    if mask < 65536:
        return _LOW_BYTE[mask & 255] + _HIGH_BYTE[mask >> 8]
    found = list(_LOW_BYTE[mask & 255] + _HIGH_BYTE[mask >> 8 & 255])
    for base in range(16, mask.bit_length(), 8):
        found += map(base.__add__, _LOW_BYTE[mask >> base & 255])
    return found


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
        pts = sorted(points, key=point_key)
        self._set(pts, [0] * len(pts), [0] * len(pts))
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

    def _set(self, pts: List[Point], down: List[int], up: List[int], levels=None) -> "OrderIndex":
        """Fill this index over the sorted points `pts` with the rows `down`
        and `up` as given; `levels` is read off `pts` when it is not given."""
        self.pts, self.down, self.up = pts, down, up
        self.index = {x: i for i, x in enumerate(pts)}
        if levels is None:
            levels = {}
            for i, x in enumerate(pts):
                levels[x.level] = levels.get(x.level, 0) | 1 << i
        self.levels = levels
        return self

    def below(self) -> List[int]:
        """`down` with each point's own bit added: the masks of `le`."""
        return [m | 1 << i for i, m in enumerate(self.down)]

    def above(self) -> List[int]:
        """`up` with each point's own bit added."""
        return [m | 1 << i for i, m in enumerate(self.up)]

    def pairs(self, touching: int = -1) -> List[Tuple[int, int]]:
        """Every pair of positions i < j, in order; only those with an end in
        the mask `touching`, when it is given.  Those are listed from each
        position f of the mask, as (i, f) for each i < f off the mask and
        (f, j) for each j > f, so a pair with both ends in it is listed
        once.  A mask of one bit gives them in order; a wider one sorts
        them.  A mask with a bit past the last position is refused."""
        n = len(self.pts)
        if touching == -1:
            return list(itertools.combinations(range(n), 2))
        if touching >> n > 0:
            raise ConditionError(f"mask {touching} has a bit past the last of {n} positions")
        if touching > 0 and not touching & (touching - 1):
            f = touching.bit_length() - 1
            return [(i, f) for i in range(f)] + [(f, j) for j in range(f + 1, n)]
        ends = list(bits(touching))
        off = [True] * n
        for f in ends:
            off[f] = False
        found = []
        for f in ends:
            found += zip(itertools.compress(range(f), off), itertools.repeat(f))
            found += zip(itertools.repeat(f), range(f + 1, n))
        found.sort()
        return found

    def strict_pairs(self, touching: int = -1) -> List[Tuple[int, int]]:
        """The strict pairs as positions, in (point_key, point_key) order;
        only those with an end in the mask `touching`, when it is given.
        Those are read from each position f of the mask, as the bits of
        its `down` row off the mask and its `up` row, so a pair with both
        ends in it is listed once, from its first end.  A mask of one bit f
        gives them in order when `down[f]` holds no bit at f or above; any
        other mask, a raw order's cycle or reflexive pair at f among them,
        sorts them."""
        if touching == -1:
            return [(i, j) for i, m in enumerate(self.up) for j in bits(m)]
        up, down, found = self.up, self.down, []
        if touching > 0 and not touching & (touching - 1):
            f = touching.bit_length() - 1
            if not down[f] >> f:
                return [(i, f) for i in bits(down[f])] + [(f, j) for j in bits(up[f])]
        for f in bits(touching):
            found += zip(bits(down[f] & ~touching), itertools.repeat(f))
            found += zip(itertools.repeat(f), bits(up[f]))
        found.sort()
        return found

    def inserted(self, new_points: Iterable[Point]) -> Tuple["OrderIndex", int]:
        """A copy with `new_points` sorted in, each with empty rows, and the
        mask of their positions.  The old rows and level masks are moved to
        the merged positions, not rebuilt: each slot opens a zero bit in
        every mask, in one pass over each list (the first pass reads this
        index's own lists), and a zero row is put in at the slot."""
        pts = list(self.pts)
        slots: List[int] = []
        for r, x in enumerate(sorted(set(new_points), key=point_key)):
            at = bisect_left(self.pts, x._key, key=point_key)
            if at < len(self.pts) and self.pts[at] == x:
                raise ConditionError(f"point {x} is already in the condition")
            slots.append(at + r)
            pts.insert(at + r, x)
        if not slots:
            out = object.__new__(OrderIndex)
            return out._set(pts, list(self.down), list(self.up), dict(self.levels)), 0
        down, up, marks = self.down, self.up, self.levels.values()
        for q in slots:  # ascending, so the slots opened so far stay below q
            # m + (m >> q << q) moves every bit at q or above up by one
            down = [m + (m >> q << q) for m in down]
            up = [m + (m >> q << q) for m in up]
            marks = [m + (m >> q << q) for m in marks]
        levels = dict(zip(self.levels, marks))
        fresh = 0
        for q in slots:
            down.insert(q, 0)
            up.insert(q, 0)
            levels[pts[q].level] = levels.get(pts[q].level, 0) | 1 << q
            fresh |= 1 << q
        return object.__new__(OrderIndex)._set(pts, down, up, levels), fresh

    def renamed(self, new: Mapping[Point, Point]) -> "OrderIndex":
        """A copy with each point x in `new` renamed to `new[x]`, points
        renamed alike merged into one with their rows ORed, and every row
        moved to its point's position among the renamed points.  Where no
        position moves, the rows are copied as they are.  A merged point
        must hold no strict pair inside it."""
        names = [new.get(x, x) for x in self.pts]
        keys = [x._key for x in names]
        if all(a < b for a, b in zip(keys, keys[1:])):
            return object.__new__(OrderIndex)._set(names, list(self.down), list(self.up))
        pts = sorted(set(names), key=point_key)
        out = object.__new__(OrderIndex)._set(pts, [0] * len(pts), [0] * len(pts))
        at = [out.index[x] for x in names]
        for k, j in enumerate(at):
            for b in bits(self.down[k]):
                out.down[j] |= 1 << at[b]
            for b in bits(self.up[k]):
                out.up[j] |= 1 << at[b]
        return out

    def members(self, mask: int) -> List[Point]:
        return [self.pts[k] for k in bits(mask)]

    def hull(self, points: Iterable[Point]) -> int:
        """The mask of the points `le` some point of `points`."""
        index, down, out = self.index, self.down, 0
        for x in points:
            k = index[x]
            out |= down[k] | 1 << k
        return out

    def owners(self, members: Sequence["Poset"]) -> List[int]:
        """One mask per position, with bit k set when the point there lies in
        `members[k]`; every member point must be indexed here."""
        index, out = self.index, [0] * len(self.pts)
        for k, m in enumerate(members):
            for x in m.points:
                out[index[x]] |= 1 << k
        return out


class Poset:
    """Points, a strict order and a meet table, with the order queries
    answered from the one `OrderIndex` the poset is built with.

    The index masks are the only stored form of the order: `le` is
    reflexive on the points and false for any point outside them, and
    every query reads the masks as given.  `strict`, the order as point
    pairs, is a frozenset built from `strict_pairs()` on each read.  The
    meet table is one map from canonical pairs `pair_key(s, t)` of
    distinct points to meet sets, and is the only stored form of the
    meets: `meet_table()` returns it, and `meets` lists its entries as
    rows `((s, t), value)` in `pairs()` order, built afresh on each read.
    A pair without an entry reads `_no_meet`.
    """

    __slots__ = ("dialect", "points", "_core", "_meet_map")
    _no_meet: Optional[FrozenSet[Point]] = None

    def __init__(
        self,
        dialect: str,
        points: FrozenSet[Point],
        core: OrderIndex,
        meets: Dict[Tuple[Point, Point], FrozenSet[Point]],
    ):
        self.dialect = dialect
        self.points = points
        self._core = core
        self._meet_map = meets

    @property
    def strict(self) -> FrozenSet[Tuple[Point, Point]]:
        pts = self._core.pts
        return frozenset((pts[i], pts[j]) for i, j in self._core.strict_pairs())

    @property
    def meets(self) -> Tuple[Tuple[Tuple[Point, Point], FrozenSet[Point]], ...]:
        table = self._meet_map
        pairs = self.pairs()
        if len(table) < len(pairs):
            pairs = list(filter(table.__contains__, pairs))
        return tuple(zip(pairs, map(table.__getitem__, pairs)))

    def _fields(self) -> tuple:
        """What equality compares, between posets of one exact type: equal
        point sets sort into the same positions, so equal `up` masks mean
        equal orders."""
        return (self.dialect, self.points, self._core.up, self._meet_map)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def core(self) -> OrderIndex:
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
    `condition_from_index` from an order index already closed.  The order
    index is transitively closed and irreflexive; the meet map has exactly
    one entry per pair of distinct points, canonically keyed.  Conditions
    of a schedule chain each own their index and a copy of the meet map,
    the values shared.  The verdict of a check that found nothing is kept in
    the slot `_valid_for` (by `violations_touching`), outside `_fields()`
    and the hash, as the tree's params, depth cap and F it was judged by.
    """

    __slots__ = ("_hash", "_valid_for")
    _no_meet = frozenset()

    def judged_valid(self, tree: IntervalTree, F: Optional[UnboundedFn]) -> bool:
        """True when a check against `tree`'s params and depth cap and this
        very `F` object has found the whole condition valid."""
        kept = getattr(self, "_valid_for", None)
        return kept is not None and kept[2] is F and kept[:2] == (tree.params, tree.depth_cap)

    def keep_verdict(self, tree: IntervalTree, F: Optional[UnboundedFn]) -> None:
        """Record that a full `validate` against `tree` and `F` finds
        nothing.  Only `violations_touching` calls it, after a check that
        found nothing."""
        self._valid_for = (tree.params, tree.depth_cap, F)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            meets = frozenset(self._meet_map.items())
            self._hash = hash((self.dialect, self.points, tuple(self._core.up), meets))
            return self._hash

    def __repr__(self) -> str:
        return f"<Condition {self.dialect} |X|={self.size}>"


def _close(core: OrderIndex, rows: Sequence[int]) -> None:
    """Close the `up` masks of the positions `rows` by Warshall's algorithm,
    pivoting on those rows alone (every other row must be closed already
    and reach none of them), and add the closed pairs to `down`.  A cycle
    is reported through the first of its points in `point_key` order."""
    up = core.up
    for k in rows:
        bit, reach = 1 << k, up[k]
        for i in rows:
            if up[i] & bit:
                up[i] |= reach
    cyclic = [i for i in rows if up[i] >> i & 1]
    if cyclic:
        raise ConditionError(f"order cycle through {core.pts[min(cyclic)]}")
    down = core.down
    for i in rows:
        for j in bits(up[i]):
            down[j] |= 1 << i


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
    _close(core, range(len(core.pts)))
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
    return Condition(dialect, pts, core, table)


def condition_from_index(
    dialect: str,
    core: OrderIndex,
    meets: Dict[Tuple[Point, Point], FrozenSet[Point]],
    force: Iterable[Tuple[int, int]] = (),
) -> Condition:
    """A Condition over the order index `core`, whose masks must be
    transitively closed and acyclic, and the canonically keyed map
    `meets`, into which the meet of each position pair in `force` is
    entered first, as `make_condition(..., complete=True)` forces it.
    `meets` is filled in place and must end with one entry per pair.
    Nothing is sorted, closed or checked here."""
    _force(core, force, meets)
    return Condition(dialect, frozenset(core.pts), core, meets)


def extend_condition(
    p: Condition,
    new_points: Iterable[Point],
    new_pairs: Iterable[Tuple[Point, Point]],
) -> Condition:
    """`p` with `new_points` added, the strict pairs `new_pairs` closed in,
    and the meet of every pair that touches a new point forced, as
    `make_condition(..., complete=True)` forces it.

    Every pair must start at a new point, so new points sit only below old
    ones and an old point's rows and meet entries stand as they are: the
    old rows are moved into the merged index, only the new points' rows are
    closed, and `p`'s meet map is copied (a C-level copy, no rehashing) with
    the entries of the pairs that have a new end added.
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
    _close(core, list(bits(fresh)))
    table = p.meet_table().copy()
    _force(core, core.pairs(fresh), table)
    return Condition(p.dialect, points, core, table)


@dataclass(frozen=True)
class Violation:
    clause: str
    points: Tuple[Point, ...]
    detail: str

    def __str__(self) -> str:
        names = ", ".join(str(p) for p in self.points)
        return f"{self.clause} [{names}]: {self.detail}"


def _tree_orbit(tree: IntervalTree, alpha: Ordinal) -> FrozenSet[Ordinal]:
    try:
        return tree.orbit_set(alpha)
    except TreeError as err:
        raise UnmaterializedLevelError(f"orbit({alpha}): {err}") from err


def _tree_split(tree: IntervalTree, alpha: Ordinal, beta: Ordinal):
    try:
        return tree.j_and_J(alpha, beta)[1]
    except TreeError as err:
        raise UnmaterializedLevelError(f"split({alpha}, {beta}): {err}") from err


def _marker_membership(tree: IntervalTree, beta: Ordinal) -> bool:
    """True when beta is a root marker, False when it is not and a
    materialized root marker lies above it; UnmaterializedLevelError when
    beta lies past the root markers the budget allows."""
    found = tree.is_root_marker(beta)
    if found is None:
        raise UnmaterializedLevelError(f"{beta} is past the materialized root markers")
    return found


def validate(
    p: Condition, tree: IntervalTree, F: Optional[UnboundedFn] = None, fresh: int = -1
) -> List[Violation]:
    """Every violated clause, empty iff the condition is valid.

    Clause names: size-cap, grid, level-monotone, meet-axiom, and then per
    dialect: meet-arity / meet-location / isolation-interpolant (kappa),
    top-meet-bound / same-level-meet / successor-interpolant (omega).
    Checks that would need tree structure past the budget raise
    UnmaterializedLevelError instead of reporting a violation.

    This is `violations_touching` with no members, so a check that finds
    nothing is kept on the condition, and a later call with a tree of
    equal params and depth cap and the same F object (by identity) answers
    [] from it at once: conditions are immutable, and a tree's answers are
    a function of its params and depth cap.  A check that raises or finds
    a violation is never kept.  A mask `fresh` of positions in `p.core()`
    narrows the check as there, for a caller that vouches for the rest.
    """
    return violations_touching(p, tree, F, fresh)


def violations_touching(
    p: Condition,
    tree: IntervalTree,
    F: Optional[UnboundedFn],
    fresh: int,
    members: Sequence[Condition] = (),
    within: int = -1,
) -> List[Violation]:
    """`validate`'s findings on the points in the mask `fresh` (positions in
    `p.core()`, -1 for every point) and on the pairs with an end among
    them, in `validate`'s order; the size cap is checked whatever `fresh`
    holds.  A mask `within` narrows both to the points in it and the pairs
    with both ends in it (`amalgam.pull_back` passes the top points).

    This is the one function that keeps a verdict and the one check that
    answers from it: a condition `judged_valid` for `tree` and `F` gets []
    at once, and a check that finds nothing keeps its verdict
    (`keep_verdict`) as a full one would.
    So a caller that narrows the check vouches that every point and pair
    left out was judged valid already, as they stand in `p`.

    `members` are conditions that `p` extends (`leq`), each `judged_valid`
    for `tree` and `F`.  Which member holds a point is read from
    `OrderIndex.owners(members)`, the one rule `amalgam`'s eta search also
    reads to choose the pairs it forces.  Among the points and pairs
    above, the meet axiom is still checked on every pair, and every other
    clause only on the points with no owner bit and the pairs whose ends
    share none (cross pairs included).  Nothing stops early, so a check
    that `validate` would raise from raises here too.  A pair inside a
    member keeps the verdict it had there, clause by clause, because
    `leq` pins its order and its meet value and the tree answers as it
    did:
    - grid and level-monotone read one point or one strict pair;
    - meet-arity and every meet-location clause read the pair, its
      comparability and its meet value; a pair that newly gains a common
      lower bound had none in the valid member, so its meet is empty;
    - the interpolant clauses ask for a witness between the ends of a
      strict pair, and the member's witness stays between them.
    The meet axiom is the one exception: a new point can sit below both
    ends of an old pair.

    The pairs come from `pairs(fresh)` and `strict_pairs(fresh)`, or with
    `within` from the pairs of its positions and their `up` rows.  No
    whole `below` or `above` list is built: a clause reads the `down` or
    `up` row of a point it meets, with the point's own bit added where it
    needs `le`, and the mask a meet value covers is read from
    `OrderIndex.hull` once per distinct value in a call.
    """
    if p.judged_valid(tree, F):
        return []
    params = tree.params
    out: List[Violation] = []
    core = p.core()
    pts, index, down = core.pts, core.index, core.down
    if within == -1:
        meet_pairs = pairs = core.pairs(fresh)
        strict = core.strict_pairs(fresh)
    else:
        inner = bits(within)
        meet_pairs = pairs = [
            (i, j) for i, j in itertools.combinations(inner, 2) if (fresh >> i | fresh >> j) & 1
        ]
        strict = [
            (i, j) for i in inner for j in bits(core.up[i] & within) if (fresh >> i | fresh >> j) & 1
        ]
        fresh &= within
    points = pts if fresh == -1 else core.members(fresh)
    owners: Optional[List[int]] = None
    if members:
        owners = core.owners(members)
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
    covers: Dict[FrozenSet[Point], int] = {}  # meet value -> the points below one of it
    for i, j in meet_pairs:
        s, t = pts[i], pts[j]
        value = table.get((s, t), none)
        covered = covers.get(value)
        if covered is None:
            covered = covers[value] = core.hull(value)
        missed = (down[i] | 1 << i) & (down[j] | 1 << j) ^ covered
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
        _validate_kappa(p, tree, F, pairs, strict, out)
    else:
        _validate_omega(p, tree, F, pairs, strict, out)
    if not out:
        p.keep_verdict(tree, F)
    return out


def _validate_kappa(p, tree, F, pairs, strict, out):
    params = tree.params
    core = p.core()
    pts, up, down, table = core.pts, core.up, core.down, p.meet_table()
    for i, j in pairs:
        # skip comparable pairs and pairs with no common lower bound
        if (down[j] >> i | down[i] >> j) & 1 or not down[i] & down[j]:
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

    for i, j in strict:
        s, t = pts[i], pts[j]
        if s.is_top or not level_lt(s.level, t.level):
            continue
        beta = params.eta if t.is_top else t.level
        lam = _tree_split(tree, s.level, beta)
        if not (lam.lo < s.level and lam.hi <= beta):
            continue
        # a witness sits at lam.hi with s <= u <= t
        if not core.levels.get(lam.hi, 0) & (up[i] | 1 << i) & (down[j] | 1 << j):
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

    for i, j in strict:
        s, t = pts[i], pts[j]
        if t.is_top or not t.level.is_successor:
            continue
        prior = t.level.predecessor()
        # a witness sits at the predecessor level with s <= u < t
        if not core.levels.get(prior, 0) & (core.up[i] | 1 << i) & core.down[j]:
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
    # meet tables are total and keyed by pair_key, so p's pairs are q's keys
    return p.meet_table().items() <= q.meet_table().items()


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
    elif not tgt.is_top:
        # the finite ladder below the target's level, down to alpha or to the
        # limit (or 0) it climbs from, listed upward
        ladder, lev = [], tgt.level
        while lev.is_successor and alpha < (lev := lev.predecessor()):
            ladder.append(lev)
        levels += reversed(ladder)

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
    document: points by `point_key`, then every pair by point index.  Each
    index is turned into text once, meet values are read for the point
    pairs in `combinations` order, and a meet row's tail is written once
    per distinct meet value."""
    core = p.core()
    pts, index = core.pts, core.index
    tokens = {level: level_token(level) for level in core.levels}
    names = [str(i) for i in range(len(pts))]
    lines = [f"points {len(pts)}"]
    lines.extend(f"{i} {tokens[x.level]} {x.xi}" for i, x in enumerate(pts))
    order = core.strict_pairs()
    lines.append(f"order {len(order)}")
    lines.extend(f"{names[i]} {names[j]}" for i, j in order)
    table, tails, rows = p.meet_table(), {}, []
    values = map(table.get, itertools.combinations(pts, 2))
    for (a, b), value in zip(itertools.combinations(names, 2), values):
        if value is None:
            continue
        tail = tails.get(value)
        if tail is None:
            at = sorted(map(index.__getitem__, value))
            tail = tails[value] = "".join(" " + names[k] for k in at)
        rows.append(f"{a} {b} :{tail}")
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
