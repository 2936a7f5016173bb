"""The mask-based order core against the set-based oracles.

`validate`, `sposet_check`, `skeleton_check`, and the closure and forced
meets of `make_condition` answer from int masks over the sorted points.  On random small conditions, on mutated ones and on raw posets that
are neither transitive nor antisymmetric, they must return exactly what the
oracles in `tests/oracles.py` return, message text and order included.
The document writers, which read the same index, must write the bytes that
the oracle's `naive_poset_block` writes.
"""

import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatterlab.conditions
import scatterlab.generic
from scatterlab.conditions import (
    TOP,
    ConditionError,
    OrderIndex,
    Point,
    condition_to_text,
    make_condition,
    point_key,
    validate,
)
from scatterlab.generic import (
    PredecessorBelow,
    RealizePoint,
    Schedule,
    ScheduleError,
    poset_from_condition,
    poset_from_text,
    poset_to_text,
    run_schedule,
    schedule_from_text,
    skeleton_check,
    sposet_check,
)
from scatterlab.intervals import TreeError
from scatterlab.ordinals import parse

from .corpus import (
    drop_meet,
    drop_witness,
    finite_poset,
    flat_F,
    kappa_tree,
    omega_tree,
    walk_condition,
)
from .oracles import (
    naive_complete_meets,
    naive_poset_block,
    naive_skeleton_check,
    naive_sposet_check,
    naive_transitive_closure,
    naive_validate,
)

TREES = {"kappa": kappa_tree(), "omega": omega_tree()}
FS = {d: flat_F(t, t.params.lambda_w, 12) for d, t in TREES.items()}


def outcome(fn, *args):
    """The result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (ConditionError, TreeError) as err:
        return type(err).__name__, str(err)


def levels_of(tree):
    """Marker levels, successor levels just above them, eta (off the grid)
    and the top."""
    eps = tree.root_eps()[:6]
    return list(eps) + [e + 1 for e in eps[:4]] + [e + 2 for e in eps[1:3]] + [tree.params.eta, TOP]


@st.composite
def raw_points(draw, tree, max_size=7):
    """Distinct points, some off the grid: a column at the width cap, or
    level eta."""
    levels = levels_of(tree)
    cells = st.tuples(st.sampled_from(range(len(levels))), st.integers(0, 3))
    picked = draw(st.lists(cells, min_size=1, max_size=max_size, unique=True))
    return [Point(levels[i], xi) for i, xi in picked]


@st.composite
def conditions(draw, dialect):
    """A condition over random points: an acyclic order of random density
    along a random permutation (so pairs may go down a level), forced
    meets, and then a few meet entries dropped, extended or replaced."""
    tree = TREES[dialect]
    pts = draw(raw_points(tree))
    perm = draw(st.permutations(range(len(pts))))
    n = len(pts)
    density = draw(st.integers(1, 6))
    rel = {
        (pts[perm[a]], pts[perm[b]])
        for a in range(n)
        for b in range(a + 1, n)
        if draw(st.integers(0, 9)) < density
    }
    cond = make_condition(dialect, pts, rel, complete=True)
    table = dict(cond.meets)
    keys = [k for k, _ in cond.meets]
    for _ in range(draw(st.integers(0, 3)) if keys else 0):
        key = draw(st.sampled_from(keys))
        kind = draw(st.sampled_from(["drop", "extra", "replace"]))
        if kind == "drop":
            table[key] = frozenset()
        else:
            extra = frozenset(draw(st.lists(st.sampled_from(pts), min_size=1, max_size=2)))
            table[key] = (table[key] | extra) if kind == "extra" else extra
    return make_condition(dialect, pts, cond.strict, table)


def agree(cond):
    tree, F = TREES[cond.dialect], FS[cond.dialect]
    assert outcome(validate, cond, tree, F) == outcome(naive_validate, cond, tree, F)


@settings(max_examples=150)
@given(st.sampled_from(["kappa", "omega"]).flatmap(conditions))
def test_validate_matches_oracle_on_random_conditions(cond):
    agree(cond)


@settings(max_examples=40)
@given(st.sampled_from(["kappa", "omega"]), st.integers(0, 10**6))
def test_validate_matches_oracle_on_walks_and_their_mutants(dialect, seed):
    rng = random.Random(seed)
    tree = TREES[dialect]
    cond = walk_condition(tree, dialect, rng, steps=rng.randint(1, 5))
    agree(cond)
    for mutant in (drop_meet(cond, rng), drop_witness(cond, tree, rng)):
        if mutant is not None:
            agree(mutant)


@settings(max_examples=100)
@given(st.sampled_from(["kappa", "omega"]).flatmap(conditions))
def test_forced_meets_match_oracle(cond):
    completed = make_condition(cond.dialect, cond.points, cond.strict, complete=True)
    assert dict(completed.meets) == naive_complete_meets(cond.points, cond.strict)


@settings(max_examples=100)
@given(raw_points(TREES["kappa"]), st.data())
def test_closure_matches_oracle(pts, data):
    """Any generating pairs, cycles included: the same closed order, or the
    same refusal."""
    pair = st.tuples(st.sampled_from(pts), st.sampled_from(pts))
    rel = data.draw(st.lists(pair, max_size=10))
    closed = outcome(lambda: make_condition("kappa", pts, rel).strict)
    assert closed == outcome(naive_transitive_closure, frozenset(pts), rel)


@st.composite
def raw_posets(draw):
    """A FinitePoset straight from raw parts: any strict pairs (reflexive,
    two-cycles, not transitive, going down a level), meets missing for some
    pairs, and targeted pairs at any level."""
    tree = TREES["kappa"]
    pts = sorted(draw(raw_points(tree, max_size=6)), key=point_key)
    n = len(pts)
    index = st.integers(0, n - 1)
    strict = {(pts[a], pts[b]) for a, b in draw(st.lists(st.tuples(index, index), max_size=14))}
    meets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 5)):
                meets[(pts[i], pts[j])] = frozenset(
                    pts[k] for k in draw(st.lists(index, max_size=2))
                )
    targeted = [
        (pts[a].level, pts[b]) for a, b in draw(st.lists(st.tuples(index, index), max_size=3))
    ]
    return finite_poset("kappa", pts, strict, meets, targeted)


@settings(max_examples=200)
@given(raw_posets(), st.integers(0, 4))
def test_sposet_check_matches_oracle_on_raw_posets(T, budget):
    assert sposet_check(T, budget) == naive_sposet_check(T, budget)


@settings(max_examples=200)
@given(raw_posets())
def test_skeleton_check_matches_oracle_on_raw_posets(T):
    levels = sorted({x.level for x in T.points if not x.is_top})
    assert skeleton_check(T, levels) == naive_skeleton_check(T, levels)


@settings(max_examples=200)
@given(st.one_of(raw_posets(), st.sampled_from(["kappa", "omega"]).flatmap(conditions)), st.data())
def test_touching_pairs_are_the_full_listing_filtered(p, data):
    """`strict_pairs(touching)` and `pairs(touching)`, listed from the
    points of the mask, are the full listings filtered to the pairs with an
    end in it, in the same order; raw orders (cycles, reflexive pairs)
    included.  Every one-bit and two-bit mask is tried: a pair with both
    ends in the mask, adjacent or far apart, is listed once."""
    core = p.core()
    n = len(core.pts)
    strict, every = list(core.strict_pairs()), list(itertools.combinations(range(n), 2))
    masks = [-1, 0, (1 << n) - 1, data.draw(st.integers(0, (1 << n) - 1))]
    masks += [1 << k for k in range(n)] + [1 << i | 1 << j for i, j in every]
    for mask in masks:
        keep = [(i, j) for i, j in every if (mask >> i | mask >> j) & 1]
        assert core.pairs(mask) == keep
        keep = [(i, j) for i, j in strict if (mask >> i | mask >> j) & 1]
        assert list(core.strict_pairs(mask)) == keep


@settings(max_examples=200)
@given(st.one_of(raw_posets(), st.sampled_from(["kappa", "omega"]).flatmap(conditions)), st.data())
def test_hull_is_every_point_at_or_below_one_of_the_points(p, data):
    """`hull(points)` holds the positions of the points `le` some point of
    `points`, read from `strict`; raw orders (cycles, reflexive pairs)
    included."""
    core, strict = p.core(), p.strict
    some = data.draw(st.lists(st.sampled_from(core.pts), unique=True)) if core.pts else []
    want = 0
    for k, y in enumerate(core.pts):
        if any(y == x or (y, x) in strict for x in some):
            want |= 1 << k
    assert core.hull(some) == want


@settings(max_examples=200)
@given(st.one_of(raw_posets(), st.sampled_from(["kappa", "omega"]).flatmap(conditions)), st.data())
def test_owners_sets_one_bit_per_member_holding_the_point(p, data):
    core = p.core()
    subsets = st.lists(st.sampled_from(core.pts), unique=True) if core.pts else st.just([])
    members = [
        make_condition(p.dialect, data.draw(subsets)) for _ in range(data.draw(st.integers(0, 3)))
    ]
    owners = core.owners(members)
    assert len(owners) == len(core.pts)
    for i, x in enumerate(core.pts):
        for k, m in enumerate(members):
            assert owners[i] >> k & 1 == (x in m.points)
        assert owners[i] >> len(members) == 0


def listing(method, mask):
    """What `method(mask)` lists, and whether it read the bits of the mask
    itself, as the merge-and-sort does and the one-point path does not."""
    bits = scatterlab.conditions.bits
    with mock.patch.object(scatterlab.conditions, "bits", wraps=bits) as spy:
        found = method(mask)
    return found, mock.call(mask) in spy.call_args_list


def test_one_point_listings_of_an_order_below_its_points():
    """a, b < c < d and a < d: each `down` row holds only lower positions,
    so a one-bit mask lists its pairs straight in order."""
    a, b, c, d = (Point(TOP, k) for k in range(4))
    core = OrderIndex([d, c, b, a], [(c, d), (a, c), (b, c), (a, d)])
    assert core.pts == [a, b, c, d]
    assert listing(core.pairs, 1 << 0) == ([(0, 1), (0, 2), (0, 3)], False)
    assert listing(core.strict_pairs, 1 << 0) == ([(0, 2), (0, 3)], False)
    assert listing(core.strict_pairs, 1 << 1) == ([(1, 2)], False)
    assert listing(core.pairs, 1 << 2) == ([(0, 2), (1, 2), (2, 3)], False)
    assert listing(core.strict_pairs, 1 << 2) == ([(0, 2), (1, 2), (2, 3)], False)
    assert listing(core.pairs, 1 << 3) == ([(0, 3), (1, 3), (2, 3)], False)
    assert listing(core.strict_pairs, 1 << 3) == ([(0, 3), (2, 3)], False)
    assert listing(core.strict_pairs, 1 << 0 | 1 << 3) == ([(0, 2), (0, 3), (2, 3)], True)


def test_one_point_listings_of_a_cycle_and_a_reflexive_pair():
    """a < c < a, a < b < b and b, c < d: the `down` rows of a and b hold
    a position at or above their own, so their strict pairs are merged and
    sorted, and b's pair with itself is listed once."""
    a, b, c, d = (Point(TOP, k) for k in range(4))
    core = OrderIndex([a, b, c, d], [(a, c), (c, a), (a, b), (b, b), (b, d), (c, d)])
    assert core.down == [0b100, 0b11, 0b1, 0b110]
    assert listing(core.pairs, 1 << 0) == ([(0, 1), (0, 2), (0, 3)], False)
    assert listing(core.strict_pairs, 1 << 0) == ([(0, 1), (0, 2), (2, 0)], True)
    assert listing(core.pairs, 1 << 1) == ([(0, 1), (1, 2), (1, 3)], False)
    assert listing(core.strict_pairs, 1 << 1) == ([(0, 1), (1, 1), (1, 3)], True)
    assert listing(core.strict_pairs, 1 << 2) == ([(0, 2), (2, 0), (2, 3)], False)
    assert listing(core.strict_pairs, 1 << 3) == ([(1, 3), (2, 3)], False)


def test_poset_order_queries_keep_raw_semantics():
    """Masks come from the raw strict set: no closure, no antisymmetry,
    and a missing meet entry reads None."""
    a, b, c = Point(TOP, 0), Point(TOP, 1), Point(TOP, 2)
    T = finite_poset("kappa", [a, b, c], {(a, b), (b, a), (b, c)}, {})
    assert T.lt(a, b) and T.lt(b, a) and T.lt(b, c) and not T.lt(a, c)
    assert T.le(a, a) and not T.le(a, c)
    assert T.meet(a, b) is None
    assert T.down(c) == {b, c}
    outside = Point(TOP, 3)
    assert not T.le(outside, outside) and not T.lt(outside, a)


def test_poset_equality_and_hashing():
    """Equality compares the fields of one exact type; a Condition hashes
    them, a FinitePoset is unhashable."""
    a, b, w = Point(parse("w"), 0), Point(TOP, 0), parse("w")
    p = make_condition("kappa", [a, b], [(a, b)], complete=True)
    q = make_condition("kappa", [b, a], [(a, b)], complete=True)
    assert p is not q and p == q and hash(p) == hash(q)
    assert p != make_condition("omega", [a, b], [(a, b)], complete=True)
    assert poset_from_condition(p) != p and p != poset_from_condition(p)
    meets = {(a, b): frozenset({a})}
    T = finite_poset("kappa", [a, b], {(a, b)}, meets)
    assert T == finite_poset("kappa", [b, a], [(a, b)], meets)
    assert T != finite_poset("kappa", [a, b], {(a, b)}, meets, [(w, b)])
    with pytest.raises(TypeError):
        hash(T)


# --- the document writers ------------------------------------------------------


def same_bytes(write, module, *args):
    """`write(*args)` reads the same with the oracle's `poset_block` patched
    into `module`, the module that `write` finds it in."""
    text = write(*args)
    with mock.patch.object(module, "poset_block", naive_poset_block):
        assert write(*args) == text


def writers_agree(cond):
    same_bytes(condition_to_text, scatterlab.conditions, cond, TREES[cond.dialect].params)
    same_bytes(poset_to_text, scatterlab.generic, poset_from_condition(cond))


@settings(max_examples=150)
@given(st.sampled_from(["kappa", "omega"]).flatmap(conditions))
def test_writers_match_the_oracle_on_random_conditions(cond):
    writers_agree(cond)


@settings(max_examples=40)
@given(st.sampled_from(["kappa", "omega"]), st.integers(0, 10**6))
def test_writers_match_the_oracle_on_walks(dialect, seed):
    rng = random.Random(seed)
    writers_agree(walk_condition(TREES[dialect], dialect, rng, steps=rng.randint(1, 6)))


def test_writers_match_the_oracle_on_schedule_runs():
    """Runs that finish and runs cut short, in both dialects, the golden
    schedule among them: the returned poset and every chain member."""
    seen = set()

    def agree_on_run(sch, dialect):
        tree, F = TREES[dialect], FS[dialect]
        try:
            T = run_schedule(sch, tree, F, dialect)
            chain = T.provenance
            seen.add("done")
        except ScheduleError as err:
            T, chain = poset_from_condition(err.trace[-1]), err.trace
            seen.add("cut")
        same_bytes(poset_to_text, scatterlab.generic, T)
        for cond in chain:
            writers_agree(cond)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        dialect=st.sampled_from(["omega", "kappa"]),
        draws=st.lists(
            st.tuples(st.booleans(), st.integers(0, 16), st.integers(1, 8), st.integers(0, 3)),
            min_size=1,
            max_size=12,
        ),
    )
    def walk(dialect, draws):
        eps = TREES[dialect].root_eps()
        realized, steps = [], []
        for below, pick, k, n in draws:
            level = eps[k] + n
            if below and realized:
                steps.append(PredecessorBelow(realized[pick % len(realized)], level, 0))
            else:
                x = Point(TOP, pick % 4) if pick % 3 == 0 else Point(level, pick % 3)
                realized.append(x)
                steps.append(RealizePoint(x.level, x.xi))
        agree_on_run(Schedule(tuple(steps)), dialect)

    walk()
    golden = schedule_from_text((Path(__file__).parent / "golden" / "schedule.txt").read_text())
    for dialect in ("omega", "kappa"):
        agree_on_run(golden, dialect)
    assert seen == {"done", "cut"}


@st.composite
def poset_documents(draw):
    """A raw poset in either dialect, written with the oracle's block: its
    meet rows leave pairs out and may name two points."""
    T = draw(raw_posets())
    dialect = draw(st.sampled_from(["kappa", "omega"]))
    T = finite_poset(dialect, T.points, T.strict, T.meet_table(), T.targeted)
    with mock.patch.object(scatterlab.generic, "poset_block", naive_poset_block):
        return poset_to_text(T)


@settings(max_examples=200)
@given(poset_documents())
def test_writers_match_the_oracle_on_poset_documents(text):
    assert poset_to_text(poset_from_text(text)) == text
