"""Symmetric pair-colorings with large values on disjoint families.

The object of interest is a total symmetric function F on unordered pairs
from a finite index set, taking values among materialized root markers.
The property checked here: for a family of pairwise-disjoint small index
sets and a threshold gamma, some two members a, b of the family satisfy
F(i, j) > gamma for every i in a and j in b.  `star_verify` checks one
family, `star_search` decides all families of a given shape, and
`f_generate` builds tables either at random or greedily against a probe
set.

`star_search` finds the first failing family by a pruned depth-first
search and counts the families before it without visiting them; its
`instances` is what a sweep of every family in canonical order checks.

Throughout the package, "the pair value contains an ordinal" is read as
strict order: an ordinal is the set of everything smaller, so membership
in a value means being strictly below it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import fmt
from .intervals import Params
from .ordinals import Ordinal

FORMAT_HEADER = "# scatterlab-fmt 1 unbounded"


class FamilyError(ValueError):
    """A family violates disjointness, size, or range requirements."""


class BlowupGuardError(ValueError):
    """A search would enumerate more families than the configured cap."""


class GenerationError(ValueError):
    """No table assignment satisfied the probe set."""

    def __init__(self, message: str, report: List[str]):
        super().__init__(message)
        self.report = report


class UnboundedFn:
    """Total symmetric table on unordered pairs below lambda_w.

    Its one table, `_rows`, is dense and symmetric: `_rows[i][j]` is the
    index into `eps`, the materialized marker list, of F(i, j), and the
    diagonal is None.  The order of `eps` is not enforced: a larger index
    need not name a larger value, so code reading the table compares
    values, not indices.  Instances are immutable after construction.
    """

    def __init__(
        self,
        lambda_w: int,
        eps: Sequence[Ordinal],
        entries: Dict,
    ):
        if lambda_w < 2:
            raise FamilyError("lambda_w must be at least 2")
        if not eps:
            raise FamilyError("no materialized marker values")
        self.lambda_w = lambda_w
        self.eps = tuple(eps)
        # a table too short for its lambda_w is refused before the rows are allocated
        table: Dict[Tuple[int, int], int] = {}
        for key, idx in entries.items():
            # a key of another length names the set of its members
            pair = key if len(key) == 2 else frozenset(key)
            if len(pair) != 2:
                raise FamilyError(f"bad pair {set(key)}")
            i, j = pair
            if j < i:
                i, j = j, i
            if not 0 <= i < j < lambda_w:
                raise FamilyError(f"bad pair {set(key)}")
            if not 0 <= idx < len(self.eps):
                raise FamilyError(f"marker index {idx} out of range for pair {set(key)}")
            if table.setdefault((i, j), idx) != idx:
                raise FamilyError(f"conflicting entries for pair {set(key)}")
        expected = lambda_w * (lambda_w - 1) // 2
        if len(table) != expected:
            raise FamilyError(f"table has {len(table)} pairs, needs {expected}")
        rows: List[List[Optional[int]]] = [[None] * lambda_w for _ in range(lambda_w)]
        for (i, j), idx in table.items():
            rows[i][j] = rows[j][i] = idx
        # tuple() of an iterator resizes a guessed tuple, and the resized ones pile
        # up on CPython's tuple free lists; from a list it allocates exactly
        self._rows = tuple([tuple(row) for row in rows])

    def index(self, i: int, j: int) -> int:
        if i == j:
            raise FamilyError(f"pair requires distinct indices, got {i},{j}")
        if i in range(self.lambda_w) and j in range(self.lambda_w):
            return self._rows[i][j]
        raise FamilyError(f"pair {i},{j} is outside the table's {self.lambda_w} columns")

    def value(self, i: int, j: int) -> Ordinal:
        return self.eps[self.index(i, j)]

    def pairs(self) -> List[Tuple[int, int]]:
        return [(i, j) for i in range(self.lambda_w) for j in range(i + 1, self.lambda_w)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnboundedFn):
            return NotImplemented
        return self.eps == other.eps and self._rows == other._rows


@dataclass(frozen=True)
class StarOutcome:
    ok: bool
    gamma: Ordinal
    witness: Optional[Tuple[FrozenSet[int], FrozenSet[int]]]
    pairs_checked: int


@dataclass(frozen=True)
class SearchResult:
    ok: bool
    instances: int
    counterexample: Optional[Tuple[Tuple[FrozenSet[int], ...], Ordinal]]


def _check_family(
    F: UnboundedFn,
    family: Sequence[FrozenSet[int]],
    max_size: Optional[int],
) -> List[FrozenSet[int]]:
    members = [frozenset(a) for a in family]
    seen: set = set()
    for a in members:
        if not a:
            raise FamilyError("family members must be nonempty")
        if not all(0 <= i < F.lambda_w for i in a):
            raise FamilyError(f"member {set(a)} outside index range")
        if max_size is not None and len(a) >= max_size:
            raise FamilyError(f"member {set(a)} is not small (size cap {max_size})")
        if a & seen:
            raise FamilyError(f"member {set(a)} overlaps the rest of the family")
        seen |= a
    return members


def star_verify(
    F: UnboundedFn,
    gamma: Ordinal,
    family: Sequence[Iterable[int]],
    max_size: Optional[int] = None,
) -> StarOutcome:
    """Find two family members with all cross values strictly above gamma.

    Pairs are scanned in the family's given order, so the returned witness
    is deterministic.  A False outcome means the whole family was swept
    with no qualifying pair.
    """
    members = _check_family(F, family, max_size)
    checked = 0
    for a, b in combinations(members, 2):
        checked += 1
        if all(F.value(i, j) > gamma for i in a for j in b):
            return StarOutcome(True, gamma, (a, b), checked)
    return StarOutcome(False, gamma, None, checked)


def family_count(lambda_w: int, m: int, nu: int) -> int:
    """Number of unordered families of m pairwise-disjoint nu-subsets."""
    if m * nu > lambda_w:
        return 0
    total = 1
    remaining = lambda_w
    for _ in range(m):
        total *= math.comb(remaining, nu)
        remaining -= nu
    return total // math.factorial(m)


def star_search(
    F: UnboundedFn,
    m: int,
    nu: int,
    gammas: Sequence[Ordinal],
    family_cap: int = 10_000_000,
    force: bool = False,
) -> SearchResult:
    """Decide every family of m pairwise-disjoint nu-subsets against every
    threshold.

    Returns a certificate (every instance had a witness pair) or the first
    failing instance in canonical order: families lexicographic over their
    tuples of sorted nu-tuple members, members increasing, then thresholds
    as given.  `instances` counts the (family, threshold) pairs that a sweep
    in that order checks, up to and including that failure: the families
    before the failing one times len(gammas), plus the failing threshold's
    position plus one.  A certificate counts family_count times len(gammas).
    Instances whose family count exceeds family_cap are refused unless force
    is set.

    A family fails for some threshold iff it fails for G = max(gammas), that
    is, iff every two of its members are joined by a *low* pair, one valued
    at most G.  So the search keeps a bitmask of low partners per column and
    goes depth first in canonical order.  It drops a prefix of members as
    soon as two are not joined, or one has no low partner among the indices
    left to the members still to come, and the first family it completes is
    the first failing one.  A dropped prefix stands for its completions,
    whose number depends only on the indices and members left.
    """
    if m < 2:
        raise FamilyError("family size m must be at least 2")
    if nu < 1 or m * nu > F.lambda_w:
        raise FamilyError(f"cannot fit {m} disjoint {nu}-subsets below {F.lambda_w}")
    count = family_count(F.lambda_w, m, nu)
    if count > family_cap and not force:
        raise BlowupGuardError(
            f"{count} families exceeds the cap {family_cap}; pass force to override"
        )
    if not gammas:
        return SearchResult(True, 0, None)
    eps, rows = F.eps, F._rows
    top = max(gammas)
    low = [not value > top for value in eps]
    partners = [
        sum(1 << j for j, idx in enumerate(row) if j != i and low[idx])
        for i, row in enumerate(rows)
    ]
    completions: Dict[Tuple[int, int], int] = {}
    skipped = 0

    def first_joined(left: List[int], k: int, chosen: List[Tuple[int, int]]):
        """The first k members from `left`, an increasing index list, that
        complete `chosen`, the (bits, low partners) masks of the members so
        far, to a pairwise-joined family; None when there is none, after
        adding the completions passed over to `skipped`."""
        nonlocal skipped
        for member in combinations(left, nu):
            # the indices left to later members, as in the canonical order
            rest = [j for j in left if j > member[0] and j not in member]
            reach = 0
            for i in member:
                reach |= partners[i]
            if all(reach & seen for seen, _ in chosen):
                if k == 1:
                    return (member,)
                grown = chosen + [(sum(1 << i for i in member), reach)]
                room = sum(1 << j for j in rest)
                if all(near & room for _, near in grown):
                    tail = first_joined(rest, k - 1, grown)
                    if tail is not None:
                        return (member,) + tail
                    continue
            key = (len(rest), k - 1)
            if key not in completions:
                completions[key] = family_count(*key, nu)
            skipped += completions[key]
        return None

    family = first_joined(list(range(F.lambda_w)), m, [])
    if family is None:
        return SearchResult(True, count * len(gammas), None)
    neck = max(min(eps[rows[i][j]] for i in a for j in b) for a, b in combinations(family, 2))
    position, gamma = next((p, gamma) for p, gamma in enumerate(gammas) if not neck > gamma)
    found = (tuple(map(frozenset, family)), gamma)
    return SearchResult(False, skipped * len(gammas) + position + 1, found)


def f_generate(
    params: Params,
    eps: Sequence[Ordinal],
    strategy: str = "random",
    seed: int = 0,
    probes: Sequence[Tuple[int, int, Sequence[Ordinal]]] = (),
) -> UnboundedFn:
    """Build a table over lambda_w indices with values among eps.

    "random" draws every entry from a seeded generator.  "greedy" starts
    every pair at the top marker index and steps pair (0, 1) down while a
    probe (an (m, nu, gammas) triple swept by `star_search`) fails; every
    other pair stays at the top.  The report of a `GenerationError` lists
    every failing index tried.

    When `eps` is strictly increasing, raising an entry never breaks the
    swept property, so a greedy failure means no table over these markers
    can pass.  Neither is guaranteed for markers in any other order.
    """
    lam = params.lambda_w
    pairs = [(i, j) for i in range(lam) for j in range(i + 1, lam)]
    if not eps:
        raise GenerationError("no materialized marker values", [])
    if strategy == "random":
        rng = random.Random(seed)
        entries = {pair: rng.randrange(len(eps)) for pair in pairs}
        return UnboundedFn(lam, eps, entries)
    if strategy != "greedy":
        raise ValueError(f"unknown strategy {strategy!r}")

    # Lowering (0, 1) is the only choice: each later pair would first try
    # the top index, which leaves the table as it stands, and that passed.
    top = len(eps) - 1
    entries = {pair: top for pair in pairs}
    report: List[str] = []
    for idx in range(top, -1, -1):
        entries[(0, 1)] = idx
        table = UnboundedFn(lam, eps, entries)
        for m, nu, gammas in probes:
            result = star_search(table, m, nu, list(gammas))
            if not result.ok:
                failure = f"probe m={m} nu={nu} fails at gamma={result.counterexample[1]}"
                report.append(f"pair (0, 1) index {idx}: {failure}")
                break
        else:
            return table
    raise GenerationError("no value for pair (0, 1) satisfies the probes", report)


def save(F: UnboundedFn, path) -> None:
    lines = [FORMAT_HEADER, f"lambda_w {F.lambda_w}"]
    for i, j in F.pairs():
        lines.append(f"{i} {j} {F.index(i, j)}")
    with open(path, "w") as fh:
        fh.write(fmt.text(lines))


def load(path, eps: Sequence[Ordinal]) -> UnboundedFn:
    """Reads a table document; `eps` supplies the marker values."""
    with open(path) as fh:
        text = fh.read()

    def error(msg: str) -> FamilyError:
        return FamilyError(f"{path}: {msg}")

    lines = fmt.document_lines(text, FORMAT_HEADER, error)
    lam = fmt.integer(fmt.value(lines, 1, "lambda_w", error), "lambda_w", error)
    entries = {}
    for line in lines[2:]:
        row = line.split()
        if len(row) != 3:
            raise error(f"table line takes 'i j index': {line!r}")
        try:
            i, j, idx = map(int, row)
        except ValueError:
            i, j, idx = (fmt.integer(tok, "table entry", error) for tok in row)
        entries[(i, j)] = idx
    return UnboundedFn(lam, eps, entries)
