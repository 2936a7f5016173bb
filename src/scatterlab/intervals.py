"""Lazily refined interval trees over an ordinal segment [0, eta).

The root interval splits along a canonical increasing sequence, each piece
splits again, and so on.  Limit-ended intervals split into e_budget
consecutive children cut at their marker sequence; successor-ended
intervals split into a front segment and a trailing singleton; singletons
are leaves and persist unchanged through deeper levels.

Every node's marker sequence starts at the node's own left endpoint, so
walking down the tree drives each point's containing interval toward an
interval that starts exactly at that point.  The depth at which this first
happens, the markers passed on the way, and the interval where two points'
paths split are the navigation quantities the rest of the package consumes.

The tree is conceptually infinite along limit directions; `e_budget` caps
how many markers (and so children) a node may have and `depth_cap` caps
path length, so out-of-range requests raise reproducible errors instead of
diverging.  A query materializes only the prefix of markers it reads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .ordinals import ONE, ZERO, Ordinal, fundamental


class TreeError(ValueError):
    """Base class for interval-tree failures."""


class BudgetExceededError(TreeError):
    """A request needs more children of some node than e_budget allows."""


class DegenerateIntervalError(TreeError):
    """Children were requested of a singleton leaf."""


class DepthCapError(TreeError):
    """An endpoint search ran past depth_cap without terminating."""


@dataclass(frozen=True)
class Interval:
    """The half-open ordinal segment [lo, hi)."""

    lo: Ordinal
    hi: Ordinal

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise TreeError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi

    @property
    def is_singleton(self) -> bool:
        return self.hi.is_successor_of(self.lo)

    def contains(self, alpha: Ordinal) -> bool:
        return self.lo <= alpha < self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True)
class Params:
    """Finite stand-ins for the construction's cardinal parameters.

    kappa_w plays the small width, lambda_w the large one, e_budget bounds
    marker materialization per node, size_cap bounds condition size.
    """

    eta: Ordinal
    kappa_w: int = 3
    lambda_w: int = 6
    e_budget: int = 16
    size_cap: int = 32

    def __post_init__(self):
        if not self.eta.is_limit:
            raise TreeError(f"eta must be a limit, got {self.eta}")
        if self.kappa_w < 2:
            raise TreeError("kappa_w must be at least 2")
        if self.lambda_w <= self.kappa_w:
            raise TreeError("lambda_w must exceed kappa_w")
        if self.lambda_w > 1000:
            n = self.lambda_w * (self.lambda_w - 1) // 2
            raise TreeError(f"lambda_w {self.lambda_w} exceeds 1000: its table would hold {n} entries")
        if self.e_budget < 2:
            raise TreeError("e_budget must be at least 2")
        if self.size_cap < 1:
            raise TreeError("size_cap must be positive")


class IntervalTree:
    """Memoized lazy refinement of [0, eta).

    A node has at most e_budget + 1 markers, and a query materializes only
    the prefix it reads.  The memos:

    - `_markers`: a limit-ended node's marker prefix, grown as far as read;
    - `_trails`: an ordinal's containing intervals from the root down,
      as deep as `locate`, `path` or a split has walked (to a singleton at
      most); its path is the trail's prefix down to its left endpoint;
    - `_orbits`: an ordinal's orbit as a set;
    - `_splits`: where the paths of two ordinals part;
    - `_stamps`: by (level, root levels), the level's interval stamp that
      `amalgam.equivalence_stamp` reads through `stamp`: its tag and, for
      a limit-ended tag, the tag's `(xi, gamma, window)`.

    Each is insert-only (a marker list or a trail only grows at its end)
    and every entry is a deterministic function of its key, so a cached
    answer is the one a fresh tree would compute.  Only successful
    navigation results are cached, so a request that raises raises again
    when repeated.
    """

    def __init__(self, params: Params, depth_cap: int = 32):
        self.params = params
        self.depth_cap = depth_cap
        self.root = Interval(ZERO, params.eta)
        self._markers: Dict[Interval, List[Ordinal]] = {}
        self._trails: Dict[Ordinal, List[Interval]] = {}
        self._orbits: Dict[Ordinal, FrozenSet[Ordinal]] = {}
        self._splits: Dict[Tuple[Ordinal, Ordinal], Tuple[Optional[int], Interval]] = {}
        self._stamps: Dict[Tuple[Ordinal, Tuple[Ordinal, ...]], tuple] = {}

    # -- marker sequences -----------------------------------------------

    def e_set(self, iv: Interval, count: Optional[int] = None) -> Tuple[Ordinal, ...]:
        """The materialized marker set of a node.

        Limit-ended: the first `count` members (default: the full budget,
        e_budget + 1 so that e_budget children exist) of the increasing
        sequence cut from the canonical approach to hi.  Successor-ended
        [lo, b+1): exactly (lo, b).  Singleton: (lo,).
        """
        if iv.is_empty:
            raise TreeError(f"empty interval {iv} has no markers")
        if iv.is_singleton:
            return (iv.lo,)
        if iv.hi.is_successor:
            return (iv.lo, iv.hi.predecessor())
        budget = self.params.e_budget + 1
        if count is None:
            count = budget
        if count > budget:
            raise BudgetExceededError(
                f"requested {count} markers of {iv}, budget is {budget}"
            )
        return tuple(self._grow(iv, count)[:count])

    def markers_to(self, iv: Interval, alpha: Ordinal) -> Tuple[Ordinal, ...]:
        """A node's markers up to the first one above alpha, or all of them
        when none is; only the first when alpha is outside the node."""
        if iv.is_empty or not iv.hi.is_limit:
            return self.e_set(iv)
        if not alpha < iv.hi:
            return (iv.lo,)
        seq = self._grow(iv, self.params.e_budget + 1, alpha)
        return tuple(seq[: bisect.bisect_right(seq, alpha) + 1])

    def _grow(self, iv: Interval, count: int, alpha: Optional[Ordinal] = None) -> List[Ordinal]:
        """A limit-ended node's memo, grown to `count` markers or past alpha."""
        seq = self._markers.setdefault(iv, [iv.lo])
        while len(seq) < count and (alpha is None or not alpha < seq[-1]):
            # a step above the last marker is at least one past it
            step, last = fundamental(iv.hi, len(seq)), seq[-1]
            seq.append(step if step > last else last + ONE)
        return seq

    def root_eps(self, count: Optional[int] = None) -> Tuple[Ordinal, ...]:
        return self.e_set(self.root, count)

    def is_root_marker(self, beta: Ordinal) -> Optional[bool]:
        """Whether beta is a root marker, by bisect on the root's marker
        memo: None when beta lies at or past the last marker the budget
        allows, where the answer is not materialized."""
        if not beta < self.root.hi:
            return None
        seq = self._grow(self.root, self.params.e_budget + 1, beta)
        k = bisect.bisect_right(seq, beta)  # at least 1, since seq[0] is 0
        if seq[k - 1] == beta:
            return True
        return False if k < len(seq) else None

    # -- refinement -------------------------------------------------------

    def children(self, iv: Interval, count: Optional[int] = None) -> List[Interval]:
        """Split a node one level.

        Limit-ended nodes yield `count` (default e_budget) consecutive
        pieces; successor-ended nodes yield the front segment (dropped when
        empty) and the trailing singleton.
        """
        if iv.is_singleton or iv.is_empty:
            raise DegenerateIntervalError(f"{iv} is a leaf")
        if iv.hi.is_successor:
            prior = iv.hi.predecessor()
            out = []
            if iv.lo < prior:
                out.append(Interval(iv.lo, prior))
            out.append(Interval(prior, iv.hi))
            return out
        if count is None:
            count = self.params.e_budget
        marks = self.e_set(iv, count + 1)
        return [Interval(marks[k], marks[k + 1]) for k in range(count)]

    def locate(self, alpha: Ordinal, depth: int) -> Interval:
        """The unique depth-`depth` interval containing alpha, read from
        alpha's trail and grown as far as `depth` asks; no depth cap."""
        if not self.root.contains(alpha):
            raise TreeError(f"{alpha} is outside {self.root}")
        trail = self._trail(alpha)
        while len(trail) <= depth and not trail[-1].is_singleton:
            trail.append(self._step(trail[-1], alpha))
        # a singleton is its own child, so it answers every deeper level
        return trail[min(max(depth, 0), len(trail) - 1)]

    def _trail(self, alpha: Ordinal) -> List[Interval]:
        """alpha's trail memo: its containing intervals from the root down,
        as deep as walked so far."""
        trail = self._trails.get(alpha)
        if trail is None:
            trail = self._trails[alpha] = [self.root]
        return trail

    def _step(self, iv: Interval, alpha: Ordinal) -> Interval:
        if iv.is_singleton:
            return iv
        if iv.hi.is_successor:
            prior = iv.hi.predecessor()
            if alpha < prior:
                return Interval(iv.lo, prior)
            return Interval(prior, iv.hi)
        marks = self.markers_to(iv, alpha)
        if not alpha < marks[-1]:
            raise BudgetExceededError(
                f"{alpha} lies past the materialized children of {iv}"
            )
        return Interval(marks[-2], marks[-1])

    def n_of(self, alpha: Ordinal) -> int:
        """Least depth at which alpha is a left endpoint."""
        return len(self.path(alpha)) - 1

    def path(self, alpha: Ordinal) -> List[Interval]:
        """Containing intervals from the root down to the first one
        starting at alpha: alpha's trail, walked and grown that far."""
        trail, depth = self._trail(alpha), 0
        while trail[depth].lo != alpha:
            if depth >= self.depth_cap:
                raise DepthCapError(
                    f"{alpha} did not become a left endpoint within depth {self.depth_cap}"
                )
            depth += 1
            if depth == len(trail):
                trail.append(self._step(trail[-1], alpha))
        return trail[: depth + 1]

    def orbit(self, alpha: Ordinal) -> Tuple[Ordinal, ...]:
        """Markers strictly below alpha collected along its path, sorted.

        Each interval on the way down (the one starting at alpha excluded)
        contributes its markers below alpha.  Budget growth only ever
        extends paths, so previously returned orbits never change.
        """
        return tuple(sorted(self.orbit_set(alpha)))

    def orbit_set(self, alpha: Ordinal) -> FrozenSet[Ordinal]:
        """`orbit(alpha)` as a set, for membership tests: the memo that
        `orbit` sorts."""
        orb = self._orbits.get(alpha)
        if orb is None:
            seen = set()
            for iv in self.path(alpha)[:-1]:
                seen.update(m for m in self.markers_to(iv, alpha) if m < alpha)
            orb = self._orbits[alpha] = frozenset(seen)
        return orb

    def j_and_J(
        self, alpha: Ordinal, beta
    ) -> Tuple[Optional[int], Interval]:
        """Where the paths of alpha and a higher point split.

        beta may be the right end eta itself, in which case there is no
        shared path to measure and the split interval is alpha's depth-1
        interval by convention.  Otherwise returns (j, J) with j the last
        depth at which the two paths agree and J alpha's interval one level
        deeper.
        """
        split = self._splits.get((alpha, beta))
        if split is None:
            split = self._splits[(alpha, beta)] = self._split(alpha, beta)
        return split

    def _split(self, alpha: Ordinal, beta) -> Tuple[Optional[int], Interval]:
        if beta == self.params.eta:
            return None, self.locate(alpha, 1)
        if not alpha < beta:
            raise TreeError(f"need alpha < beta, got {alpha} >= {beta}")
        if not self.root.contains(beta):
            raise TreeError(f"{beta} is outside {self.root}")
        depth = 0
        while True:
            nxt = self.locate(alpha, depth + 1)
            if nxt != self.locate(beta, depth + 1):
                return depth, nxt
            if depth > self.depth_cap:
                raise DepthCapError(
                    f"paths of {alpha} and {beta} did not split within depth "
                    f"{self.depth_cap}"
                )
            depth += 1

    def stamp(self, alpha: Ordinal, root_levels: Tuple[Ordinal, ...], compute) -> tuple:
        """alpha's interval stamp under `root_levels` from the `_stamps`
        memo, or else `compute(self, alpha, root_levels)`, kept when it
        returns.  `compute` is always `amalgam`'s stamp of one level, which
        reads nothing but this tree and its arguments."""
        entry = self._stamps.get((alpha, root_levels))
        if entry is None:
            entry = self._stamps[alpha, root_levels] = compute(self, alpha, root_levels)
        return entry

    # -- truncations ------------------------------------------------------

    def dump(self, depth: int) -> str:
        """Indented text truncation, one `I=[lo,hi) depth=n E=[...]` line
        per node."""
        lines: List[str] = []

        def walk(iv: Interval, d: int):
            marks = ", ".join(str(m) for m in self.e_set(iv))
            lines.append("  " * d + f"I={iv} depth={d} E=[{marks}]")
            if d < depth and not iv.is_singleton:
                for child in self.children(iv):
                    walk(child, d + 1)

        walk(self.root, 0)
        return "\n".join(lines)


@dataclass
class AxiomReport:
    ok: bool
    checks: Dict[str, int]
    failures: List[str]


def tree_axiom_report(
    tree: IntervalTree,
    depth: int,
    sample_points: Sequence[Ordinal] = (),
) -> AxiomReport:
    """Check the tree laws on a full truncation.

    Laminarity and the partition law are local facts here: every parent's
    children start at the parent's left end, are consecutive, nonempty, and
    stay inside the parent, so distinct nodes of a stratum are disjoint and
    each stratum tiles exactly the materialized prefix of the one above.
    The checks below verify those local facts on every materialized node,
    plus the strict endpoint drop into limit-ended parents, and endpoint
    realization on the given sample points.
    """
    checks = {
        "child-start": 0,
        "child-consecutive": 0,
        "child-nonempty": 0,
        "child-inside": 0,
        "limit-endpoint-drop": 0,
        "endpoint-realized": 0,
    }
    failures: List[str] = []

    def note(name: str, ok: bool, detail: str):
        checks[name] += 1
        if not ok:
            failures.append(f"{name}: {detail}")

    # singletons have no children, so only the splittable nodes of each
    # stratum are carried down, and the walk ends once none is left
    stratum = [tree.root]
    for _ in range(depth):
        if not stratum:
            break
        nxt: List[Interval] = []
        for iv in stratum:
            kids = tree.children(iv)
            nxt.extend(kid for kid in kids if not kid.is_singleton)
            note("child-start", kids[0].lo == iv.lo, f"{iv} first child {kids[0]}")
            for a, b in zip(kids, kids[1:]):
                note("child-consecutive", a.hi == b.lo, f"{iv}: {a} then {b}")
            for kid in kids:
                note("child-nonempty", not kid.is_empty, f"{iv}: {kid}")
                note(
                    "child-inside",
                    iv.lo <= kid.lo and kid.hi <= iv.hi,
                    f"{iv}: {kid}",
                )
                if iv.hi.is_limit:
                    note("limit-endpoint-drop", kid.hi < iv.hi, f"{iv}: {kid}")
        stratum = nxt

    for alpha in sample_points:
        try:
            n = tree.n_of(alpha)
            note(
                "endpoint-realized",
                tree.locate(alpha, n).lo == alpha,
                f"{alpha}: n={n}",
            )
        except TreeError as err:
            note("endpoint-realized", False, f"{alpha}: {err}")

    return AxiomReport(not failures, checks, failures)
