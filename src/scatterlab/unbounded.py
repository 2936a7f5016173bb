"""Symmetric pair-colorings with large values on disjoint families.

The object of interest is a total symmetric function F on unordered pairs
from a finite index set, taking values among materialized root markers.
The property checked here: for a family of pairwise-disjoint small index
sets and a threshold gamma, some two members a, b of the family satisfy
F(i, j) > gamma for every i in a and j in b.  `star_verify` checks one
family, `star_search` sweeps all families of a given shape, and
`f_generate` builds tables either at random or greedily against a probe
set.

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
    total = 1
    remaining = lambda_w
    for _ in range(m):
        total *= math.comb(remaining, nu)
        remaining -= nu
    return total // math.factorial(m)


def _families(left: Sequence[int], m: int, nu: int):
    """Canonical enumeration (see `star_search`) of the families of m
    disjoint nu-subsets of `left`, an increasing index sequence.  Each member
    after the first is drawn from the indices left above the previous one's
    first index: disjoint members compare by their first index."""
    for member in combinations(left, nu):
        if m == 1:
            yield (member,)
            continue
        rest = [k for k in left if k > member[0] and k not in member]
        for tail in _families(rest, m - 1, nu):
            yield (member,) + tail


def star_search(
    F: UnboundedFn,
    m: int,
    nu: int,
    gammas: Sequence[Ordinal],
    family_cap: int = 10_000_000,
    force: bool = False,
) -> SearchResult:
    """Sweep every family of m pairwise-disjoint nu-subsets against every
    threshold.

    Returns a certificate (every instance had a witness pair) or the first
    failing instance in canonical order: families lexicographic over their
    tuples of sorted nu-tuple members, members increasing, then thresholds
    as given.  `instances` counts the (family, threshold) pairs checked, up
    to and including that failure.  Instances whose family count exceeds
    family_cap are refused unless force is set.
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
    # star_verify(F, gamma, family) holds iff the family's bottleneck, the
    # best over member pairs of the smallest cross value, is above gamma.
    # Families from _families are disjoint, so no _check_family is needed.
    eps, rows = F.eps, F._rows
    instances = 0
    for family in _families(range(F.lambda_w), m, nu):
        neck = max(
            min(eps[rows[i][j]] for i in a for j in b) for a, b in combinations(family, 2)
        )
        for position, gamma in enumerate(gammas):
            if not neck > gamma:
                found = (tuple(map(frozenset, family)), gamma)
                return SearchResult(False, instances + position + 1, found)
        instances += len(gammas)
    return SearchResult(True, instances, None)


Probe = Tuple[int, int, Sequence[Ordinal]]


def f_generate(
    params: Params,
    eps: Sequence[Ordinal],
    strategy: str = "random",
    seed: int = 0,
    probes: Sequence[Probe] = (),
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
