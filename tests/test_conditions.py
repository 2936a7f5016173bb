import copy
import gc
import itertools
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab import conditions
from scatterlab.conditions import (
    TOP,
    _marker_membership,
    Condition,
    ConditionError,
    LevelBudgetError,
    OrderIndex,
    Point,
    UnmaterializedLevelError,
    condition_from_text,
    condition_to_text,
    extend_below,
    extend_condition,
    leq,
    make_condition,
    point_key,
    validate,
)
from scatterlab.generic import GenericError, poset_from_text
from scatterlab.intervals import BudgetExceededError, IntervalTree, Params
from scatterlab.ordinals import parse
from scatterlab.unbounded import UnboundedFn, f_generate

from .corpus import (
    bad_order_pair_calls,
    cycle_documents,
    damaged_documents,
    kappa_tree,
    multi_meet_documents,
    omega_top_meet,
)
from .conftest import wall_clock
from .oracles import naive_extend_below, naive_validate


def pt(level: str, xi: int = 0) -> Point:
    return Point(TOP if level == "TOP" else parse(level), xi)


@pytest.fixture
def tree():
    return IntervalTree(Params(eta=parse("w^2"), kappa_w=3, lambda_w=6, e_budget=16))


@pytest.fixture
def F(tree):
    return f_generate(tree.params, tree.root_eps(), seed=4)


def big_F(tree):
    eps = tree.root_eps()
    lam = tree.params.lambda_w
    top = len(eps) - 1
    pairs = {(i, j): top for i in range(lam) for j in range(i + 1, lam)}
    return UnboundedFn(lam, eps, pairs)


def clauses(violations):
    return sorted({v.clause for v in violations})


def test_empty_condition_ok(tree):
    for dialect in ("omega", "kappa"):
        assert validate(make_condition(dialect, ()), tree) == []


def test_point_ordering():
    a, b, c = pt("w", 0), pt("w", 1), pt("TOP", 0)
    assert sorted([c, b, a], key=point_key) == [a, b, c]


def test_point_fields_cannot_be_set_or_deleted():
    a = pt("w", 1)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'xi'"):
        a.xi = 2
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'tag'"):
        a.tag = 0
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'level'"):
        del a.level
    assert a == pt("w", 1) and hash(a) == hash(pt("w", 1))


def test_equal_points_are_one_instance():
    a = pt("w", 1)
    assert Point(parse("w"), 1) is a and Point(TOP, 2) is pt("TOP", 2)
    assert pt("w", 2) is not a and pt("w*2", 1) is not a
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert copy.deepcopy([a, pt("TOP", 2)]) == [a, pt("TOP", 2)]
    assert not a.is_top and pt("TOP", 2).is_top


def test_point_slots_cannot_be_set_or_deleted():
    a = pt("TOP", 3)
    for name in ("is_top", "_key", "level", "xi"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(a, name, False)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(a, name)
    assert a.is_top is True and a._key == (1, (), 3) and a is pt("TOP", 3)


def test_the_intern_table_lets_go_of_a_point_no_one_holds():
    level = parse("w^5*7 + w*3 + 11")  # a level no other test uses
    key = (0, level._key, 4321)
    a = Point(level, 4321)
    gone = weakref.ref(a)
    assert conditions._interned[key] is a
    del a
    gc.collect()
    assert gone() is None and key not in conditions._interned


def test_a_bool_column_is_stored_as_its_int():
    level = parse("w^5*7 + 12")  # made here first, so the bool builds it
    a = Point(level, True)
    assert type(a.xi) is int and a is Point(level, 1)
    assert repr(a) == "Point(level=Ordinal('w^5*7 + 12'), xi=1)" and str(a) == "(w^5*7 + 12, 1)"
    with pytest.raises(TypeError):
        Point(level, 1.0)
    with pytest.raises(TypeError):
        Point(level, "1")


def test_inserted_matches_an_index_built_afresh():
    """`OrderIndex.inserted` puts the old rows and level masks where an index
    built afresh over the union, with the old pairs, puts them, gives the
    new points empty rows, returns the mask of their positions and leaves
    the old index as it was.  The draws insert 0 to 3 points, given in any
    order and repeated, into raw orders (cycles, reflexive pairs), with
    slots at position 0, past the last point and next to each other, at a
    level the index has and at one it lacks."""
    cells = [pt(level, xi) for level in ("1", "w", "w+1", "w*2", "TOP") for xi in range(3)]
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def walk(data):
        old = data.draw(st.lists(st.sampled_from(cells), max_size=8, unique=True))
        new = data.draw(
            st.lists(st.sampled_from([x for x in cells if x not in old]), max_size=3, unique=True)
        )
        ends = st.sampled_from(old or cells)
        strict = data.draw(st.lists(st.tuples(ends, ends), max_size=12)) if old else []
        core = OrderIndex(old, strict)
        before = (list(core.pts), dict(core.index), list(core.down), list(core.up), dict(core.levels))
        got, fresh = core.inserted(data.draw(st.permutations(new + new[:1])))
        want = OrderIndex(old + new, strict)
        assert (got.pts, got.index, got.down, got.up, got.levels) == (
            want.pts, want.index, want.down, want.up, want.levels
        )
        assert fresh == sum(1 << want.index[x] for x in new)
        assert (core.pts, core.index, core.down, core.up, core.levels) == before
        slots = [want.index[x] for x in new]
        seen.update(
            kind
            for kind, hit in (
                ("none", not new),
                ("first", old and 0 in slots),
                ("last", old and len(want.pts) - 1 in slots),
                ("adjacent", any(q + 1 in slots for q in slots)),
                ("new level", any(x.level not in core.levels for x in new)),
                ("old level", any(x.level in core.levels for x in new)),
            )
            if hit
        )

    walk()
    assert seen == {"none", "first", "last", "adjacent", "new level", "old level"}
    a, b = pt("w"), pt("TOP")
    with pytest.raises(ConditionError, match=r"point \(w, 0\) is already in the condition"):
        OrderIndex([a, b], [(a, b)]).inserted([pt("1"), a])


def test_bits_lists_every_set_bit_lowest_first():
    """Every mask below 2**17 by lookup and byte, and masks up to 80 bits
    wide, at and around each byte boundary, against the bit-by-bit list."""
    rng = random.Random(11)
    wide = [1 << k for k in range(80)] + [(1 << k) - 1 for k in range(80)]
    wide += [rng.getrandbits(k) for k in range(1, 81) for _ in range(5)]
    for mask in itertools.chain(range(1 << 17), wide):
        assert list(conditions.bits(mask)) == [k for k in range(mask.bit_length()) if mask >> k & 1]


def test_a_negative_mask_is_refused_at_once():
    """A negative mask has no last set bit: `bits` refuses it, and so do
    `pairs` and `strict_pairs` below the every-point sentinel -1, and
    `members` at any negative mask, where a bit-by-bit walk would never
    end."""
    s, t, u = pt("1"), pt("w"), pt("w", 1)
    core = make_condition("kappa", [s, t, u], [(s, t)]).core()
    with wall_clock(10):
        for ask, mask in (
            (conditions.bits, -1),
            (conditions.bits, -(1 << 70)),
            (core.pairs, -2),
            (core.pairs, -5),
            (core.strict_pairs, -2),
            (core.strict_pairs, -(1 << 20) - 1),
            (core.members, -1),
            (core.members, -256),
        ):
            with pytest.raises(ConditionError) as err:
                ask(mask)
            assert str(err.value) == f"negative mask {mask} has no finite set of bits"
        assert core.pairs(-1) == [(0, 1), (0, 2), (1, 2)]
        assert core.strict_pairs(-1) == [(0, 1)]


def test_make_condition_closure_and_cycles():
    a, b, c = pt("1"), pt("w"), pt("w*2")
    cond = make_condition("kappa", [a, b, c], [(a, b), (b, c)])
    assert cond.lt(a, c)
    with pytest.raises(ConditionError):
        make_condition("kappa", [a, b], [(a, b), (b, a)])
    with pytest.raises(ConditionError):
        make_condition("kappa", [a], [(a, pt("w", 2))])
    with pytest.raises(ConditionError):
        make_condition("middle", [a])


def test_make_condition_complete_fills_forced_values():
    a, b, c = pt("1"), pt("w"), pt("w*2")
    cond = make_condition("omega", [a, b, c], [(a, b), (a, c)], complete=True)
    assert cond.meet(a, b) == frozenset({a})
    assert cond.meet(b, c) == frozenset({a})
    lonely = make_condition("omega", [b, c], complete=True)
    assert lonely.meet(b, c) == frozenset()


def test_kappa_isolation_ok_example(tree):
    s, t = pt("w*2"), pt("TOP")
    cond = make_condition("kappa", [s, t], [(s, t)], {(s, t): {s}})
    assert validate(cond, tree) == []


def test_kappa_isolation_violation_example(tree):
    s, t = pt("w + 1"), pt("TOP")
    cond = make_condition("kappa", [s, t], [(s, t)], {(s, t): {s}})
    found = validate(cond, tree)
    assert clauses(found) == ["isolation-interpolant"]
    assert found[0].points == (s, t)


def test_kappa_isolation_witness_restores(tree):
    s, t, u = pt("w + 1"), pt("TOP"), pt("w*2")
    cond = make_condition(
        "kappa", [s, u, t], [(s, u), (u, t)],
        {(s, u): {s}, (u, t): {u}, (s, t): {s}},
    )
    assert validate(cond, tree) == []


def test_level_monotone_and_grid(tree):
    s, t = pt("w", 0), pt("w", 1)
    cond = make_condition("kappa", [s, t], [(s, t)], {(s, t): {s}})
    assert "level-monotone" in clauses(validate(cond, tree))
    off_grid = make_condition("kappa", [pt("w", 99)])
    assert clauses(validate(off_grid, tree)) == ["grid"]
    too_high = make_condition("kappa", [pt("w^2")])
    assert clauses(validate(too_high, tree)) == ["grid"]
    wide_top = make_condition("kappa", [pt("TOP", 99)])
    assert clauses(validate(wide_top, tree)) == ["grid"]
    # kappa_w is 3 and lambda_w 6: columns 0 to 2 below the top, 0 to 5 at it
    cells = [("w", -1), ("w", 0), ("w", 2), ("w", 3), ("TOP", -1), ("TOP", 0), ("TOP", 5), ("TOP", 6)]
    edges = make_condition("kappa", [pt(level, xi) for level, xi in cells])
    assert [str(v) for v in validate(edges, tree)] == [
        "grid [(w, -1)]: column -1 out of range",
        "grid [(w, 3)]: column 3 out of range",
        "grid [(TOP, -1)]: top column -1 out of range",
        "grid [(TOP, 6)]: top column 6 out of range",
    ]


def test_meet_axiom_violation(tree):
    v, s, t = pt("0"), pt("w"), pt("w*2")
    good = make_condition(
        "kappa", [v, s, t], [(v, s), (v, t)],
        {(v, s): {v}, (v, t): {v}, (s, t): {v}},
    )
    assert validate(good, tree) == []
    dropped = make_condition(
        "kappa", [v, s, t], [(v, s), (v, t)],
        {(v, s): {v}, (v, t): {v}, (s, t): set()},
    )
    assert clauses(validate(dropped, tree)) == ["meet-axiom"]


def test_meet_axiom_matches_brute_force(tree):
    # same predicate, independently coded: compare down-set intersections
    # against union of meet cones
    v, s, t = pt("0"), pt("w"), pt("w*2")
    cond = make_condition(
        "kappa", [v, s, t], [(v, s), (v, t)],
        {(v, s): {v}, (v, t): {v}, (s, t): {v}},
    )
    for a, b in cond.pairs():
        lower = cond.down(a) & cond.down(b)
        cone = set()
        for w in cond.meet(a, b):
            cone |= cond.down(w)
        assert (lower == cone) == (
            "meet-axiom" not in {x.clause for x in validate(cond, tree)}
        )


def test_meet_arity_kappa(tree):
    v1, v2, s, t = pt("0", 0), pt("0", 1), pt("w"), pt("w*2")
    cond = make_condition(
        "kappa",
        [v1, v2, s, t],
        [(v1, s), (v1, t), (v2, s), (v2, t)],
        {(s, t): {v1, v2}},
        complete=True,
    )
    assert "meet-arity" in clauses(validate(cond, tree))


def test_kappa_meet_location_mutant(tree):
    # baseline: meet level lies on both orbits; mutant: on one only
    def family(beta_level, beta_xi=1):
        v = Point(parse(beta_level), beta_xi)
        u, s, t = pt("w*2", 1), pt("w + 5"), pt("w*2 + 5")
        rel = [(v, s), (v, u), (u, t), (v, t)]
        meets = {
            (v, s): {v}, (v, u): {v}, (v, t): {v}, (u, t): {u},
            (s, t): {v}, (s, u): {v},
        }
        return make_condition("kappa", [v, u, s, t], rel, meets)

    assert validate(family("w"), tree) == []
    mutant = validate(family("w + 1"), tree)
    assert clauses(mutant) == ["meet-location"]


def test_kappa_top_meets_need_F(tree):
    v, s, t = pt("0"), pt("TOP", 0), pt("TOP", 1)
    cond = make_condition(
        "kappa", [v, s, t], [(v, s), (v, t)], {(s, t): {v}}, complete=True
    )
    with pytest.raises(ConditionError):
        validate(cond, tree)
    assert validate(cond, tree, big_F(tree)) == []
    low_F = UnboundedFn(
        tree.params.lambda_w,
        tree.root_eps(),
        {p: 0 for p in big_F(tree).pairs()},
    )
    assert clauses(validate(cond, tree, low_F)) == ["meet-location"]


def test_kappa_mixed_pair_needs_marker(tree):
    v, s, t = pt("w"), pt("w*3"), pt("TOP")
    cond = make_condition(
        "kappa", [v, s, t], [(v, s), (v, t)], {(s, t): {v}}, complete=True
    )
    assert validate(cond, tree) == []
    off = pt("w + 1")
    shifted = make_condition(
        "kappa", [off, s, t], [(off, s), (off, t)], {(s, t): {off}}, complete=True
    )
    found = clauses(validate(shifted, tree))
    assert "meet-location" in found


def test_omega_top_meet_bound(tree):
    v, s, t = pt("w"), pt("TOP", 0), pt("TOP", 1)
    cond = make_condition(
        "omega", [v, s, t], [(v, s), (v, t)], {(s, t): {v}}, complete=True
    )
    assert validate(cond, tree, big_F(tree)) == []
    low_F = UnboundedFn(
        tree.params.lambda_w,
        tree.root_eps(),
        {p: 1 for p in big_F(tree).pairs()},
    )
    assert clauses(validate(cond, tree, low_F)) == ["top-meet-bound"]
    with pytest.raises(ConditionError, match=r"^top-top meet check needs the pair coloring F$"):
        validate(cond, tree)


def test_condition_repr_names_its_dialect_and_size():
    assert repr(make_condition("kappa", [pt("w")])) == "<Condition kappa |X|=1>"


def test_omega_same_level_meet(tree):
    v, s, t = pt("0"), pt("w", 0), pt("w", 1)
    bad = make_condition(
        "omega", [v, s, t], [(v, s), (v, t)], {(s, t): {v}}, complete=True
    )
    assert clauses(validate(bad, tree)) == ["same-level-meet"]
    good = make_condition("omega", [s, t])
    assert validate(good, tree) == []


def test_omega_successor_interpolant(tree):
    s, t = pt("w"), pt("w + 2")
    bad = make_condition("omega", [s, t], [(s, t)], complete=True)
    assert clauses(validate(bad, tree)) == ["successor-interpolant"]
    u = pt("w + 1")
    good = make_condition("omega", [s, u, t], [(s, u), (u, t)], complete=True)
    assert validate(good, tree) == []


def test_unmaterialized_level(tree):
    tiny = IntervalTree(Params(eta=parse("w^2"), e_budget=2))
    s, t = pt("w*5"), pt("TOP")
    cond = make_condition("kappa", [s, t], [(s, t)], complete=True)
    with pytest.raises(UnmaterializedLevelError):
        validate(cond, tiny)


def test_an_orbit_past_the_tree_is_an_unmaterialized_level():
    # the meet point w lies in the orbit of w*3, so w^2's orbit is asked for
    u, s, t = pt("w"), pt("w*3"), pt("w^2")
    cond = make_condition("kappa", [u, s, t], [(u, s), (u, t)], {(s, t): [u]}, complete=True)
    with pytest.raises(UnmaterializedLevelError) as err:
        validate(cond, kappa_tree())
    assert str(err.value) == "orbit(w^2): w^2 lies past the materialized children of [0, w^2)"
    assert type(err.value.__cause__) is BudgetExceededError


def test_a_cycle_is_named_by_its_first_point_in_key_order():
    for doc in cycle_documents():
        with pytest.raises(ConditionError, match=r"^order cycle through \(w, 0\)$"):
            condition_from_text(doc)
    a, b, c = pt("w*3"), pt("w*2"), pt("w")
    with pytest.raises(ConditionError, match=r"^order cycle through \(w, 0\)$"):
        make_condition("kappa", {a, b, c}, {(a, b), (b, c), (c, a)})
    d = pt("1")
    p = make_condition("kappa", [a])
    with pytest.raises(ConditionError, match=r"^order cycle through \(1, 0\)$"):
        extend_condition(p, [b, c, d], [(d, c), (c, b), (b, d)])


def test_a_bad_order_pair_is_named_by_the_least_offender_in_key_order():
    found = []
    for call, args in bad_order_pair_calls():
        with pytest.raises(ConditionError) as err:
            call(*args)
        found.append(str(err.value))
    assert found == [
        "order pair ((w, 0), (w*2, 0)) mentions unknown points",
        "order pair ((w, 0), (w*4, 0)) mentions unknown points",
        "order pair ((w*3, 0), (w, 0)) climbs from an old point",
    ]


def test_meet_location_findings_list_the_meet_points_in_key_order():
    cond, _ = condition_from_text(multi_meet_documents()[1])
    pair = (pt("w*3+1"), pt("w*5+2"))
    found = [str(v) for v in validate(cond, kappa_tree()) if v.clause == "meet-location"]
    assert found == [
        f"meet-location [{pair[0]}, {pair[1]}]: {k} outside orbit overlap" for k in (1, 2, 3, 4)
    ]


def test_top_meet_bound_findings_list_the_meet_points_in_key_order():
    cond, tree, F = omega_top_meet()
    assert [str(v) for v in validate(cond, tree, F)] == [
        f"top-meet-bound [(TOP, 0), (TOP, 1)]: meet point (w*{k}, 0) not below F value w*2"
        for k in (3, 5, 7)
    ]


def test_leq_basics(tree):
    s, t = pt("w*2"), pt("TOP")
    p = make_condition("kappa", [s, t], [(s, t)], {(s, t): {s}})
    assert leq(p, p)
    assert leq(p, make_condition("kappa", ()))
    q = make_condition(
        "kappa",
        [s, t, pt("w*3")],
        [(s, t)],
        {(s, t): {s}},
    )
    assert leq(q, p)
    assert not leq(p, q)
    assert not leq(make_condition("omega", ()), p)


def test_leq_requires_exact_restriction(tree):
    s, t = pt("w*2"), pt("TOP")
    p = make_condition("kappa", [s, t])
    q = make_condition("kappa", [s, t], [(s, t)], {(s, t): {s}})
    assert not leq(q, p)  # q relates p's points, p does not
    r = make_condition("kappa", [s, t], [(s, t)], {(s, t): set()})
    assert not leq(r, q)  # meets disagree on a shared pair


def test_extend_kappa_no_chain(tree):
    t = pt("TOP")
    p = make_condition("kappa", [t])
    p2, s = extend_below(p, t, parse("w*2"), 0, tree)
    assert s == pt("w*2", 0)
    assert p2.points == frozenset({s, t})
    assert p2.lt(s, t)
    assert p2.meet(s, t) == frozenset({s})
    assert validate(p2, tree) == []
    assert leq(p2, p)


def test_extend_kappa_chain_example(tree):
    t = pt("TOP")
    p = make_condition("kappa", [t])
    p2, s = extend_below(p, t, parse("w + 1"), 0, tree)
    assert s == pt("w + 1", 0)
    c0 = pt("w*2", 0)
    assert p2.points == frozenset({s, c0, t})
    assert p2.lt(s, c0) and p2.lt(c0, t)
    assert validate(p2, tree) == []


def test_extend_increasing_floors(tree):
    t = pt("TOP")
    p = make_condition("kappa", [t])
    seen = []
    for floor in range(3):
        p, s = extend_below(p, t, parse("w*2"), floor, tree)
        seen.append(s.xi)
    assert seen == [0, 1, 2]
    with pytest.raises(LevelBudgetError):
        extend_below(p, t, parse("w*2"), 3, tree)


def test_extend_contract_pointwise(tree):
    t = pt("TOP")
    p = make_condition("kappa", [t])
    p, u = extend_below(p, t, parse("w*3"), 0, tree)
    p, _ = extend_below(p, u, parse("w + 1"), 0, tree)
    target = pt("w*3", 0)
    p2, s = extend_below(p, target, parse("w"), 1, tree)
    for x in p.points:
        assert p2.le(s, x) == p2.le(target, x)
    assert validate(p2, tree) == []
    assert leq(p2, p)


def test_extend_omega_ladder(tree):
    t = pt("w*2 + 3")
    p = make_condition("omega", [t])
    p2, s = extend_below(p, t, parse("w"), 0, tree)
    levels = sorted(
        (x.level for x in p2.points if x != t), key=lambda l: l
    )
    assert levels == [parse(x) for x in ["w", "w*2", "w*2 + 1", "w*2 + 2"]]
    assert validate(p2, tree) == []
    assert leq(p2, p)
    for x in p.points:
        assert p2.le(s, x) == p2.le(t, x)


def test_extend_omega_limit_target(tree):
    t = pt("TOP")
    p = make_condition("omega", [t])
    p2, s = extend_below(p, t, parse("w + 4"), 2, tree)
    assert p2.points == frozenset({s, t})
    assert s.xi == 2
    assert validate(p2, tree) == []


def test_extend_refuses_a_negative_floor(tree):
    t = pt("TOP")
    for dialect in ("omega", "kappa"):
        p = make_condition(dialect, [t])
        with pytest.raises(ConditionError, match="column floor -5 is negative"):
            extend_below(p, t, parse("w"), -5, tree)

def test_extend_rejects_bad_targets(tree):
    t = pt("w*2")
    p = make_condition("kappa", [t])
    with pytest.raises(ConditionError):
        extend_below(p, pt("w*5"), parse("w"), 0, tree)
    with pytest.raises(ConditionError):
        extend_below(p, t, parse("w*3"), 0, tree)



def _extension_outcome(extend, p, tgt, alpha, floor, tree):
    try:
        p2, s = extend(p, tgt, alpha, floor, tree)
    except ConditionError as err:
        return None, (type(err).__name__, str(err))
    return p2, (condition_to_text(p2, tree.params), s)


def test_extend_below_matches_two_branch_oracle():
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        dialect=st.sampled_from(["omega", "kappa"]),
        kappa_w=st.integers(2, 8),
        e_budget=st.integers(2, 16),
        eta=st.sampled_from(["w^2", "w^3", "w^w"]),
        top=st.integers(0, 8),
        steps=st.lists(
            st.tuples(
                st.integers(0, 64), st.integers(0, 16), st.integers(0, 3), st.integers(0, 3)
            ),
            max_size=8,
        ),
    )
    def walk(dialect, kappa_w, e_budget, eta, top, steps):
        params = Params(eta=parse(eta), kappa_w=kappa_w, lambda_w=kappa_w + 1, e_budget=e_budget)
        tree = IntervalTree(params)
        eps = tree.root_eps()
        p = make_condition(dialect, [Point(TOP, top % params.lambda_w)])
        for pick, k, n, floor in steps:
            pts = p.sorted_points()
            tgt = pts[pick % len(pts)]
            alpha = eps[k % len(eps)] + n
            got, outcome = _extension_outcome(extend_below, p, tgt, alpha, floor, tree)
            _, want = _extension_outcome(naive_extend_below, p, tgt, alpha, floor, tree)
            assert outcome == want
            seen.add(outcome[0] if got is None else "ok")
            p = p if got is None else got

    walk()
    assert {"ok", "LevelBudgetError", "UnmaterializedLevelError"} <= seen

def seeded_extension_walk(dialect, tree, seed, steps=4):
    rng = random.Random(seed)
    top_seed = Point(TOP, rng.randrange(tree.params.lambda_w))
    cond = make_condition(dialect, [top_seed])
    eps = tree.root_eps()
    for _ in range(steps):
        targets = sorted(cond.points, key=point_key)
        tgt = rng.choice(targets)
        bound = tree.params.eta if tgt.is_top else tgt.level
        roots = [e for e in eps[:8] if e < bound]
        if not roots:
            continue
        alpha = rng.choice(roots) + rng.randrange(4)
        if not alpha < bound:
            continue
        try:
            cond, s = extend_below(cond, tgt, alpha, 0, tree)
        except LevelBudgetError:
            continue
    return cond


@pytest.mark.parametrize("dialect", ["omega", "kappa"])
def test_seeded_extension_walks_stay_valid(dialect, tree):
    big = IntervalTree(Params(eta=parse("w^2"), kappa_w=8, lambda_w=12, e_budget=16))
    for seed in range(40):
        cond = seeded_extension_walk(dialect, big, seed)
        assert validate(cond, big) == []


def test_round_trip_text(tree):
    t = pt("TOP")
    p = make_condition("kappa", [t])
    p, _ = extend_below(p, t, parse("w + 1"), 1, tree)
    text = condition_to_text(p, tree.params)
    cond, params = condition_from_text(text)
    assert cond == p
    assert params == tree.params
    assert condition_to_text(cond, params) == text


def test_round_trip_meets_and_order(tree):
    v, s, t = pt("0"), pt("w"), pt("TOP", 3)
    p = make_condition(
        "omega", [v, s, t], [(v, s), (v, t)], {(s, t): {v}}, complete=True
    )
    text = condition_to_text(p, tree.params)
    cond, _ = condition_from_text(text)
    assert cond == p
    assert condition_to_text(cond, tree.params) == text


def test_from_text_refuses_damaged_documents(tree):
    t = pt("TOP")
    p = make_condition("kappa", [t])
    p, _ = extend_below(p, t, parse("w + 1"), 1, tree)
    text = condition_to_text(p, tree.params)
    for bad in damaged_documents(text, "order"):
        with pytest.raises(ConditionError):
            condition_from_text(bad)


def test_from_text_rejects_garbage():
    with pytest.raises(ConditionError):
        condition_from_text("dialect kappa\n")


@pytest.mark.parametrize(
    "points, meets, message",
    [
        (["TOP 0"], {("TOP 0", "TOP 1"): []},
         "meet entry ((TOP, 0), (TOP, 1)) mentions unknown points"),
        (["TOP 0", "TOP 1"], {("TOP 0", "TOP 0"): []},
         "meet entry for identical points (TOP, 0)"),
        (["TOP 0", "TOP 1"], {("TOP 0", "TOP 1"): ["TOP 2"]},
         "meet of ((TOP, 0), (TOP, 1)) has unknown points"),
        (["TOP 0", "TOP 1", "w 0"], {("TOP 0", "TOP 1"): [], ("TOP 1", "TOP 0"): ["w 0"]},
         "conflicting meet entries for ((TOP, 1), (TOP, 0))"),
    ],
    ids=["unknown-end", "identical", "unknown-value", "conflict"],
)
def test_make_condition_refuses_bad_meet_entries(points, meets, message):
    def point(token):
        level, xi = token.split()
        return pt(level, int(xi))

    table = {tuple(map(point, key)): [point(v) for v in value] for key, value in meets.items()}
    with pytest.raises(ConditionError) as err:
        make_condition("kappa", [point(x) for x in points], (), table)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0 0 :", "0 1 :"], "meet entry for identical points (TOP, 0)"),
        (["0 1 :", "1 0 : 0"], "conflicting meet entries for ((TOP, 1), (TOP, 0))"),
        (["0 1 : 0", "0 1 :"], "conflicting meet entries for ((TOP, 0), (TOP, 1))"),
    ],
    ids=["identical", "conflict", "conflict-same-orientation"],
)
def test_from_text_refuses_bad_meet_rows(rows, message):
    block = ["points 2", "0 TOP 0", "1 TOP 1", "order 0", f"meets {len(rows)}"] + rows
    text = "\n".join(
        ["# scatterlab-fmt 1 condition", "dialect kappa", "eta w^2",
         "params kappa_w=3 lambda_w=6 e_budget=16 size_cap=32"] + block
    ) + "\n"
    with pytest.raises(ConditionError) as err:
        condition_from_text(text)
    assert str(err.value) == message
    # a poset document refuses the same rows with the same message
    text = "\n".join(["# scatterlab-fmt 1 poset", "dialect kappa"] + block + ["targeted 0"])
    with pytest.raises(GenericError) as err:
        poset_from_text(text + "\n")
    assert str(err.value) == message


def test_from_text_refuses_a_repeated_point():
    block = ["points 2", "0 w 0", "1 w 0", "order 0", "meets 0"]
    text = "\n".join(
        ["# scatterlab-fmt 1 condition", "dialect kappa", "eta w^2",
         "params kappa_w=3 lambda_w=6 e_budget=16 size_cap=32"] + block
    ) + "\n"
    with pytest.raises(ConditionError) as err:
        condition_from_text(text)
    assert str(err.value) == "point (w, 0) is listed twice"
    text = "\n".join(["# scatterlab-fmt 1 poset", "dialect kappa"] + block + ["targeted 0"])
    with pytest.raises(GenericError) as err:
        poset_from_text(text + "\n")
    assert str(err.value) == "point (w, 0) is listed twice"


def test_size_cap_is_reported():
    tree = IntervalTree(Params(eta=parse("w^2"), kappa_w=3, lambda_w=6, e_budget=16, size_cap=2))
    three_tops = make_condition("kappa", [pt("TOP", 0), pt("TOP", 1), pt("TOP", 2)])
    assert [str(v) for v in validate(three_tops, tree, big_F(tree))] == [
        "size-cap []: 3 points exceed cap 2"
    ]
    assert validate(make_condition("kappa", [pt("TOP", 0), pt("TOP", 1)]), tree, big_F(tree)) == []


def test_top_meet_off_the_root_markers(tree):
    # w*3 + 1 sits between the root markers w*3 and w*4
    v, s, t = pt("w*3 + 1"), pt("TOP", 0), pt("TOP", 1)
    cond = make_condition("kappa", [v, s, t], [(v, s), (v, t)], complete=True)
    found = [str(x) for x in validate(cond, tree, big_F(tree)) if x.clause == "meet-location"]
    assert found == [
        "meet-location [(TOP, 0), (TOP, 1)]: w*3 + 1 not a root marker below F value w*16"
    ]


def test_marker_membership_branches():
    tree = IntervalTree(Params(eta=parse("w^2"), kappa_w=3, lambda_w=6, e_budget=4))
    assert tree.root_eps()[-1] == parse("w*4")
    assert _marker_membership(tree, parse("w*2"))
    assert not _marker_membership(tree, parse("w*2 + 1"))
    with pytest.raises(UnmaterializedLevelError) as err:
        _marker_membership(tree, parse("w*4 + 1"))
    assert str(err.value) == "w*4 + 1 is past the materialized root markers"


# --- the kept verdict --------------------------------------------------------------


def full_checks(monkeypatch):
    """The conditions that `validate` checks in full from here on, in call
    order: a check reaches its dialect's clauses, and an answer from the
    kept verdict does not."""
    checked = []
    for name in ("_validate_kappa", "_validate_omega"):
        inner = getattr(conditions, name)

        def spy(p, *args, inner=inner):
            checked.append(p)
            return inner(p, *args)

        monkeypatch.setattr(conditions, name, spy)
    return checked


def top_pair(tree):
    """A kappa condition whose two tops meet at the root marker 0, valid
    under `big_F`, and an equal copy read back from its document."""
    v, s, t = pt("0"), pt("TOP", 0), pt("TOP", 1)
    cond = make_condition("kappa", [v, s, t], [(v, s), (v, t)], {(s, t): {v}}, complete=True)
    return cond, condition_from_text(condition_to_text(cond, tree.params))[0]


def test_validate_answers_from_the_kept_verdict_for_equal_params_depth_and_F(tree, monkeypatch):
    cond, _ = top_pair(tree)
    F = big_F(tree)
    checked = full_checks(monkeypatch)
    assert not cond.judged_valid(tree, F)
    assert validate(cond, tree, F) == [] and cond.judged_valid(tree, F)
    assert validate(cond, tree, F) == []
    assert validate(cond, IntervalTree(tree.params), F) == []
    assert checked == [cond]


def test_a_kept_verdict_is_checked_in_full_under_other_params(tree, monkeypatch):
    cond, _ = top_pair(tree)
    F = big_F(tree)
    assert validate(cond, tree, F) == []
    checked = full_checks(monkeypatch)
    capped = IntervalTree(Params(eta=parse("w^2"), kappa_w=3, lambda_w=6, e_budget=16, size_cap=2))
    assert [str(v) for v in validate(cond, capped, F)] == ["size-cap []: 3 points exceed cap 2"]
    assert [str(v) for v in validate(cond, capped, F)] == ["size-cap []: 3 points exceed cap 2"]
    assert checked == [cond, cond]
    # a smaller marker budget raises as it does on a condition never judged
    s, t = pt("w*5"), pt("TOP")
    deep = make_condition("kappa", [s, t], [(s, t)], complete=True)
    twin = condition_from_text(condition_to_text(deep, tree.params))[0]
    tiny = IntervalTree(Params(eta=parse("w^2"), e_budget=2))
    with pytest.raises(UnmaterializedLevelError) as want:
        validate(twin, tiny)
    assert validate(deep, tree) == []
    for _ in range(2):
        with pytest.raises(UnmaterializedLevelError) as got:
            validate(deep, tiny)
        assert str(got.value) == str(want.value)
    assert not deep.judged_valid(tiny, None) and deep.judged_valid(tree, None)


def test_a_kept_verdict_is_checked_in_full_under_another_depth_cap(tree, monkeypatch):
    cond, _ = top_pair(tree)
    F = big_F(tree)
    assert validate(cond, tree, F) == []
    checked = full_checks(monkeypatch)
    shallow = IntervalTree(tree.params, depth_cap=8)
    assert not cond.judged_valid(shallow, F)
    assert validate(cond, shallow, F) == []
    assert checked == [cond]


def test_a_kept_verdict_is_checked_in_full_under_another_F_object(tree, monkeypatch):
    cond, _ = top_pair(tree)
    F = big_F(tree)
    assert validate(cond, tree, F) == []
    checked = full_checks(monkeypatch)
    # an equal table is another object: F matches by identity
    assert validate(cond, tree, big_F(tree)) == []
    low_F = UnboundedFn(tree.params.lambda_w, tree.root_eps(), {p: 0 for p in F.pairs()})
    assert clauses(validate(cond, tree, low_F)) == ["meet-location"]
    assert checked == [cond, cond]
    # a check that raised is not kept, so it raises again
    for _ in range(2):
        with pytest.raises(ConditionError, match="needs the pair coloring F"):
            validate(cond, tree)
    assert checked == [cond] * 4


def test_the_kept_verdict_leaves_equality_hash_text_and_copies_alone(tree):
    cond, twin = top_pair(tree)
    F = big_F(tree)
    assert validate(cond, tree, F) == []
    assert cond.judged_valid(tree, F) and not twin.judged_valid(tree, F)
    assert cond == twin and hash(cond) == hash(twin)
    assert condition_to_text(cond, tree.params) == condition_to_text(twin, tree.params)
    for copied in (pickle.loads(pickle.dumps(cond)), copy.deepcopy(cond)):
        assert copied == cond and hash(copied) == hash(cond) and copied.meets == cond.meets
        assert condition_to_text(copied, tree.params) == condition_to_text(cond, tree.params)
        # the copy's verdict names a copy of F, so this F is checked in full
        assert not copied.judged_valid(tree, F)
        assert validate(copied, tree, F) == [] and copied.judged_valid(tree, F)


@st.composite
def extensions(draw):
    """A condition over points at marker and near-marker levels, its order
    acyclic along a random permutation, and one or two members: the order
    restricted to a random subset of its points, with forced meets.  The
    condition is built with `make_condition(complete=True)` from the
    members' meets, as the grid amalgam builds a leaf, so new points can
    sit under old pairs that their meets do not cover."""
    dialect = draw(st.sampled_from(("kappa", "omega")))
    eps = kappa_tree().root_eps()[:6]
    levels = list(eps) + [e + 1 for e in eps[:4]]
    # column 3 lies off the kappa_w = 3 grid
    cells = st.tuples(st.sampled_from(range(len(levels))), st.integers(0, 3))
    picked = draw(st.lists(cells, min_size=2, max_size=8, unique=True))
    pts = [Point(levels[i], xi) for i, xi in picked]
    perm = draw(st.permutations(range(len(pts))))
    density = draw(st.integers(1, 7))
    rel = {
        (pts[perm[a]], pts[perm[b]])
        for a, b in itertools.combinations(range(len(pts)), 2)
        if draw(st.integers(0, 9)) < density
    }
    whole = make_condition(dialect, pts, rel)
    members, meets = [], {}
    for _ in range(draw(st.integers(1, 2))):
        inside = draw(st.lists(st.sampled_from(pts), min_size=1, unique=True))
        strict = [(s, t) for s, t in whole.strict if s in inside and t in inside]
        member = make_condition(dialect, inside, strict, complete=True)
        members.append(member)
        meets.update(member.meet_table())
    return make_condition(dialect, pts, whole.strict, meets, complete=True), members


def outcome(check, *args):
    try:
        return check(*args)
    except ConditionError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(extensions())
def test_the_check_of_what_an_extension_adds_matches_the_full_oracle(drawn):
    """Given the members that a condition extends and that are judged
    valid, `violations_touching` reports, or raises, exactly what the full
    check does."""
    cond, members = drawn
    tree = kappa_tree()
    settled = [m for m in members if leq(cond, m) and outcome(validate, m, tree) == []]
    assert all(m.judged_valid(tree, None) for m in settled)
    want = outcome(naive_validate, cond, tree)
    assert outcome(conditions.violations_touching, cond, tree, None, -1, settled) == want


@settings(max_examples=300, deadline=None)
@given(extensions(), st.data())
def test_the_check_of_a_mask_is_the_full_oracle_on_its_points_and_pairs(drawn, data):
    """With a mask of positions, `violations_touching` reports, in order,
    exactly the findings of the full oracle that name a point of the mask,
    and the size cap; the mask is drawn whole, one bit, two bits (adjacent
    or far apart) or any subset."""
    cond, _ = drawn
    tree = kappa_tree()
    n = cond.size
    bit = st.integers(0, n - 1)
    mask = data.draw(
        st.one_of(
            st.just((1 << n) - 1),
            bit.map(lambda i: 1 << i),
            st.tuples(bit, bit).map(lambda ij: 1 << ij[0] | 1 << ij[1]),
            st.integers(0, (1 << n) - 1),
        )
    )
    index = cond.core().index
    want = outcome(naive_validate, cond, tree)
    got = outcome(conditions.violations_touching, cond, tree, None, mask)
    if isinstance(want, list):
        want = [v for v in want if not v.points or any(mask >> index[x] & 1 for x in v.points)]
        assert got == want
    else:
        assert got == want or isinstance(got, list)


def test_the_check_of_what_an_extension_adds_counts_meet_points_on_cross_pairs(tree):
    # (a, b) has one end in the member and one outside it, and two meet points
    a, b, c, d = pt("w*3"), pt("w*4"), pt("w", 0), pt("w", 1)
    member = make_condition("kappa", [a])
    cond = make_condition("kappa", [a, b, c, d], [(c, a), (c, b), (d, a), (d, b)], complete=True)
    assert validate(member, tree) == [] and leq(cond, member)
    found = outcome(conditions.violations_touching, cond, tree, None, -1, (member,))
    assert "meet-arity [(w*3, 0), (w*4, 0)]: 2 meet points" in [str(x) for x in found]
    assert found == outcome(naive_validate, cond, tree)


def test_the_check_of_what_an_extension_adds_keeps_the_meet_axiom_on_old_pairs(tree):
    # v is new under the old pair (a, b), whose recorded meet stays empty
    a, b, v = pt("w*3"), pt("w*4"), pt("w")
    member = make_condition("kappa", [a, b], complete=True)
    cond = make_condition("kappa", [a, b, v], [(v, a), (v, b)], member.meet_table(), complete=True)
    assert validate(member, tree) == [] and leq(cond, member)
    found = conditions.violations_touching(cond, tree, None, -1, (member,))
    assert [str(x) for x in found] == ["meet-axiom [(w*3, 0), (w*4, 0)]: lower-bound set mismatch at {(w, 0)}"]
    assert found == validate(cond, tree)
