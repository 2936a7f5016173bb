import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab.conditions import (
    TOP,
    _marker_membership,
    Condition,
    ConditionError,
    LevelBudgetError,
    Point,
    UnmaterializedLevelError,
    condition_from_text,
    condition_to_text,
    extend_below,
    leq,
    make_condition,
    point_key,
    validate,
)
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import parse
from scatterlab.unbounded import UnboundedFn, f_generate

from .corpus import damaged_documents
from .oracles import naive_extend_below


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
    ],
    ids=["identical", "conflict"],
)
def test_from_text_refuses_bad_meet_rows(rows, message):
    text = "\n".join(
        ["# scatterlab-fmt 1 condition", "dialect kappa", "eta w^2",
         "params kappa_w=3 lambda_w=6 e_budget=16 size_cap=32",
         "points 2", "0 TOP 0", "1 TOP 1", "order 0", f"meets {len(rows)}"] + rows
    ) + "\n"
    with pytest.raises(ConditionError) as err:
        condition_from_text(text)
    assert str(err.value) == message


def test_size_cap_is_reported():
    tree = IntervalTree(Params(eta=parse("w^2"), kappa_w=3, lambda_w=6, e_budget=16, size_cap=2))
    three_tops = make_condition("kappa", [pt("TOP", 0), pt("TOP", 1), pt("TOP", 2)])
    assert [str(v) for v in validate(three_tops, tree, big_F(tree))] == [
        "size-cap []: 3 points exceed cap 2"
    ]


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
