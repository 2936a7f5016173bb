"""Scatteredness analysis: exact derivative levels on explicit finite
spaces, the lower-set topology of a finite poset, and the symbolic level
report for ordinal segments.

The explicit-space side is exact but degenerate by design: a finite space
built from a poset with separating meets is discrete, so everything lands
on level zero.  That degeneration is reported, never smoothed over; the
graded profile of module `generic` is where budgeted poset-side counting
lives.  The symbolic side handles closed ordinal segments [0, alpha]
below w^w, where the derivative sequence is computable exactly."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from . import fmt
from .generic import FinitePoset
from .ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    from_int,
    omega_pow,
    omega_quotient,
    parse,
)

FORMAT_HEADER_SPACE = "# scatterlab-fmt 1 space"

OMEGA_TAG = "w"


class AnalysisError(ValueError):
    pass


class CapExceededError(AnalysisError):
    pass


@dataclass(frozen=True)
class FiniteSpace:
    """Points plus a generating subbase, kept as given (duplicates and
    all): the topology is whatever finite unions of finite intersections
    produce."""

    points: FrozenSet
    subbase: Tuple[FrozenSet, ...]

    def __post_init__(self):
        for s in self.subbase:
            if not s <= self.points:
                raise AnalysisError(f"subbase set {sorted(s, key=str)} leaves the space")


@dataclass(frozen=True)
class LevelReport:
    """Derivative levels of an explicit finite space.

    `height` is the number of removal rounds needed to empty the space,
    or None when a dense-in-itself kernel survives (`residual`).  The
    reduced height (least round whose remainder is finite) is zero for
    every explicit finite space; the field exists so both report flavors
    read the same."""

    levels: Tuple[Tuple[int, Tuple], ...]
    widths: Tuple[int, ...]
    height: Optional[int]
    ht_minus: int
    residual: Tuple

    @property
    def scattered(self) -> bool:
        return not self.residual


@dataclass(frozen=True)
class OrdinalLevels:
    """Symbolic level report for the segment [0, alpha].

    Level e collects the points whose largest dividing power of w is
    w^e.  Counts are exact: the tag is a decimal when the level is
    finite and "w" when it is countably infinite.  Levels with finite
    count also carry their members."""

    alpha: Ordinal
    tags: Tuple[Tuple[int, str], ...]
    finite_members: Tuple[Tuple[int, Tuple[Ordinal, ...]], ...]
    height: int
    ht_minus: int

    def tag(self, e: int) -> Optional[str]:
        return dict(self.tags).get(e)


def space_from_poset(T: FinitePoset) -> FiniteSpace:
    """Subbase of lower sets and their complements, two entries per
    point."""
    core = T.core()
    subbase = [frozenset(core.members(m)) for m in core.below()]
    subbase += [T.points - s for s in subbase]
    return FiniteSpace(frozenset(T.points), tuple(subbase))


def _point_order(points) -> List:
    return sorted(points, key=lambda x: (type(x).__name__, str(x)))


def _mask_of(sets, index) -> List[int]:
    out = []
    for s in sets:
        m = 0
        for x in s:
            m |= 1 << index[x]
        out.append(m)
    return out


def finite_cb(space: FiniteSpace, cap: int = 16) -> LevelReport:
    """Iterated removal of isolated points against the exact topology,
    relativized to each remainder.

    A point x is isolated in the remainder Y exactly when its smallest
    basic open set, Y intersected with every subbase set that holds x, is
    {x}: every basic set holding x is an intersection of such sets, so it
    contains this one, and this one is itself basic.  That set is Y's
    part of x's smallest basic open set in the whole space, built once,
    so a round costs one mask AND per point.  The cap only bounds the
    input size; it stays because lifting it would change which inputs
    the CLI refuses."""
    if len(space.points) > cap:
        raise CapExceededError(
            f"{len(space.points)} points exceed the exact-topology cap {cap}"
        )
    pts = _point_order(space.points)
    index = {x: i for i, x in enumerate(pts)}
    sub_masks = _mask_of(space.subbase, index)
    current = (1 << len(pts)) - 1
    smallest = []
    for i in range(len(pts)):
        around = current
        for m in sub_masks:
            if m >> i & 1:
                around &= m
        smallest.append(around)

    levels: List[Tuple[int, Tuple]] = []
    k = 0
    while current:
        isolated = 0
        for i, around in enumerate(smallest):
            if around & current == 1 << i:
                isolated |= 1 << i
        if not isolated:
            break
        members = tuple(x for x in pts if isolated & (1 << index[x]))
        levels.append((k, members))
        current &= ~isolated
        k += 1

    residual = tuple(x for x in pts if current & (1 << index[x]))
    return LevelReport(
        levels=tuple(levels),
        widths=tuple(len(members) for _, members in levels),
        height=k if not residual else None,
        ht_minus=0,
        residual=residual,
    )


W_TO_W = omega_pow(parse("w"))


def omega_valuation(beta: Ordinal) -> int:
    """Largest e with w^e dividing beta: the exponent of beta's last
    Cantor-normal-form term, 0 for beta = 0.  Raises AnalysisError when
    that exponent is infinite, since then no natural e is largest."""
    exp = ZERO if beta.is_zero else beta.terms[-1][0]
    if not exp < OMEGA:
        raise AnalysisError(f"valuation of {beta} is not a natural number")
    return exp.as_int()


def ordinal_space_levels(alpha: Ordinal) -> OrdinalLevels:
    """Symbolic derivative levels of [0, alpha] for alpha < w^w.

    Each removal round deletes the points of valuation e; what remains
    is the positive multiples of w^(e+1), whose count is the e+1-fold
    left quotient.  The round count and the first finite remainder fall
    out of the quotient sequence."""
    if not alpha < W_TO_W:
        raise AnalysisError(f"{alpha} is out of range (need alpha below w^w)")
    tags: List[Tuple[int, str]] = []
    finite_members: List[Tuple[int, Tuple[Ordinal, ...]]] = []
    ht_minus = None
    q = alpha
    e = 0
    while True:
        if q < OMEGA:
            count = q.as_int() + (1 if e == 0 else 0)
            if ht_minus is None:
                ht_minus = e
            if count == 0:
                break
            tags.append((e, str(count)))
            members = tuple(
                omega_pow(from_int(e), k) for k in range(1, q.as_int() + 1)
            )
            if e == 0:
                members = (ZERO,) + members
            finite_members.append((e, members))
            if q.is_zero:
                break
        else:
            tags.append((e, OMEGA_TAG))
        q = omega_quotient(q)
        e += 1
    height = len(tags)
    return OrdinalLevels(
        alpha=alpha,
        tags=tuple(tags),
        finite_members=tuple(finite_members),
        height=height,
        ht_minus=ht_minus,
    )


# --- space persistence --------------------------------------------------------


def space_to_text(space: FiniteSpace) -> str:
    pts = _point_order(space.points)
    index = {x: i for i, x in enumerate(pts)}
    lines = [FORMAT_HEADER_SPACE, f"points {len(pts)}"]
    lines.extend(f"{i} {x}" for i, x in enumerate(pts))
    lines.append(f"subbase {len(space.subbase)}")
    for s in space.subbase:
        ids = " ".join(str(k) for k in sorted(index[x] for x in s))
        lines.append(f": {ids}".rstrip())
    return fmt.text(lines)


def space_from_text(text: str) -> FiniteSpace:
    """Reads a space document; points come back as their string labels."""
    lines = fmt.document_lines(text, FORMAT_HEADER_SPACE, AnalysisError)
    body, at = fmt.section(lines, 1, "points", AnalysisError)
    pts = fmt.numbered(body, AnalysisError)
    fmt.distinct(pts, AnalysisError)
    body, _ = fmt.section(lines, at, "subbase", AnalysisError)
    subbase = []
    for line in body:
        if not line.startswith(":"):
            raise AnalysisError(f"subbase line {line!r} lacks its leading ':'")
        subbase.append(frozenset(fmt.indexed(pts, line[1:].split(), AnalysisError)))
    return FiniteSpace(frozenset(pts), tuple(subbase))
