"""Schedule runs and the poset checkers: replay, determinism, densities,
bone levels, tightness counting, and the refusal paths."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .corpus import damaged_documents, damaged_schedules, flat_F
from scatterlab.conditions import TOP, Point, pair_key, leq, validate
from scatterlab.generic import (
    CardinalProfile,
    FinitePoset,
    GenericError,
    PredecessorBelow,
    ProbeInconclusiveError,
    RealizePoint,
    Schedule,
    ScheduleError,
    cardinal_profile,
    poset_from_text,
    poset_to_text,
    run_schedule,
    schedule_from_text,
    schedule_to_text,
    skeleton_check,
    sposet_check,
    tightness_probe,
)
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import ONE, from_int, parse

W = parse("w")


@pytest.fixture(scope="module")
def tree():
    return IntervalTree(Params(parse("w^2"), kappa_w=8, lambda_w=12, e_budget=16))


@pytest.fixture(scope="module")
def F(tree):
    return flat_F(tree, 12, 12)


def run(tree, F, steps, dialect="kappa"):
    return run_schedule(Schedule(tuple(steps)), tree, F, dialect)


def planted(tree, F, k=3):
    """x at a successor level, k predecessors at the level below, one
    family point tied below each."""
    x = Point(W + ONE, 0)
    steps = [RealizePoint(x.level, 0)] + [PredecessorBelow(x, W, 0)] * k
    T = run(tree, F, steps)
    us = [u for u in T.points_at(W) if T.lt(u, x)]
    steps += [PredecessorBelow(u, from_int(1), 0) for u in us]
    T = run(tree, F, steps)
    return T, x, list(T.points_at(from_int(1)))


def test_empty_schedule(tree, F):
    T = run(tree, F, [])
    assert not T.points and not T.strict
    rep = sposet_check(T, 5)
    assert rep.ok and rep.density == ()
    assert str(cardinal_profile(T)) == "( | 0)"


def test_two_chain_replay(tree, F):
    steps = [RealizePoint(TOP, 0), PredecessorBelow(Point(TOP, 0), parse("w*2"), 0)]
    for dialect in ("omega", "kappa"):
        T = run(tree, F, steps, dialect)
        s = Point(parse("w*2"), 0)
        assert s in T.points and T.lt(s, Point(TOP, 0))
        assert len(T.provenance) == 3
        rep = sposet_check(T, 1)
        assert rep.ok
        assert rep.density == ((parse("w*2"), Point(TOP, 0), 1),)


def test_determinism_and_round_trips(tree, F):
    steps = [
        RealizePoint(TOP, 0),
        RealizePoint(TOP, 3),
        PredecessorBelow(Point(TOP, 0), parse("w*2"), 0),
        PredecessorBelow(Point(TOP, 3), parse("w*4 + 2"), 1),
    ]
    sch = Schedule(tuple(steps), seed=9)
    T1 = run_schedule(sch, tree, F, "kappa")
    T2 = run_schedule(sch, tree, F, "kappa")
    assert T1 == T2
    assert schedule_from_text(schedule_to_text(sch)) == sch
    assert poset_from_text(poset_to_text(T1)) == T1
    text = poset_to_text(T1)
    assert text == poset_to_text(poset_from_text(text))


def test_poset_from_text_refuses_damaged_documents(tree, F):
    steps = [RealizePoint(TOP, 0), PredecessorBelow(Point(TOP, 0), parse("w*2"), 0)]
    T = run_schedule(Schedule(tuple(steps)), tree, F, "kappa")
    for bad in damaged_documents(poset_to_text(T), "order"):
        with pytest.raises(GenericError):
            poset_from_text(bad)


def test_realize_is_idempotent(tree, F):
    T = run(tree, F, [RealizePoint(TOP, 0)] * 3)
    assert len(T.points) == 1


def test_chain_is_descending_and_valid(tree, F):
    steps = [
        RealizePoint(TOP, 0),
        PredecessorBelow(Point(TOP, 0), parse("w*3"), 0),
        PredecessorBelow(Point(TOP, 0), parse("w"), 2),
        RealizePoint(parse("w*5"), 1),
    ]
    for dialect in ("omega", "kappa"):
        T = run(tree, F, steps, dialect)
        chain = T.provenance
        for p in chain:
            assert validate(p, tree, F) == []
        for earlier, later in zip(chain, chain[1:]):
            assert leq(later, earlier)


def test_schedule_error_unrealized_target(tree, F):
    with pytest.raises(ScheduleError) as err:
        run(tree, F, [PredecessorBelow(Point(TOP, 0), W, 0)])
    assert err.value.step == 0
    assert len(err.value.trace) == 1


def test_schedule_error_caps_exhausted(tree, F):
    steps = [RealizePoint(TOP, 0)]
    steps += [PredecessorBelow(Point(TOP, 0), W, 0)] * 9
    with pytest.raises(ScheduleError) as err:
        run(tree, F, steps)
    assert err.value.step == 9  # eight columns fit, the ninth does not
    assert len(err.value.trace) == 10
    assert isinstance(err.value.requirement, PredecessorBelow)


def test_schedule_error_bad_column(tree, F):
    with pytest.raises(ScheduleError):
        run(tree, F, [RealizePoint(W, 8)])
    with pytest.raises(ScheduleError):
        run(tree, F, [RealizePoint(TOP, 12)])


def test_schedule_error_negative_floor(tree, F):
    steps = [RealizePoint(TOP, 0), PredecessorBelow(Point(TOP, 0), W, -5)]
    with pytest.raises(ScheduleError, match="column floor -5 is negative") as err:
        run(tree, F, steps)
    assert err.value.step == 1

def test_schedule_error_level_out_of_range(tree, F):
    with pytest.raises(ScheduleError):
        run(tree, F, [RealizePoint(parse("w^2"), 0)])


def test_schedule_text_rejects_garbage():
    with pytest.raises(GenericError):
        schedule_from_text("seed 0\n")
    with pytest.raises(GenericError):
        schedule_from_text(
            "# scatterlab-fmt 1 schedule\nseed 0\nsteps 1\nfrobnicate TOP 0\n"
        )


def test_schedule_from_text_refuses_damaged_documents():
    steps = [
        RealizePoint(TOP, 0),
        PredecessorBelow(Point(TOP, 0), parse("w*2"), 0),
        PredecessorBelow(Point(TOP, 0), W, 1),
    ]
    for bad in damaged_schedules(schedule_to_text(Schedule(tuple(steps)))):
        with pytest.raises(GenericError):
            schedule_from_text(bad)


def test_density_budget_met(tree, F):
    steps = [RealizePoint(TOP, 0), RealizePoint(TOP, 1)]
    steps += [PredecessorBelow(Point(TOP, 0), W, 0)] * 5
    steps += [PredecessorBelow(Point(TOP, 1), parse("w*3"), 0)] * 5
    for dialect in ("omega", "kappa"):
        T = run(tree, F, steps, dialect)
        rep = sposet_check(T, 5)
        assert rep.ok
        assert {(lvl, pt): n for lvl, pt, n in rep.density} == {
            (W, Point(TOP, 0)): 5,
            (parse("w*3"), Point(TOP, 1)): 5,
        }
        starved = sposet_check(T, 6)
        assert not starved.ok and len(starved.density_failures) == 2
        assert starved.core_ok


def test_sposet_mutations():
    a, b, x = Point(from_int(2), 0), Point(from_int(3), 0), Point(W, 0)
    broken_meet = FinitePoset(
        "kappa",
        {a, b, x},
        {(a, x), (a, b)},
        {
            pair_key(a, x): frozenset({a}),
            pair_key(a, b): frozenset({a}),
            pair_key(b, x): frozenset(),
        },
    )
    rep = sposet_check(broken_meet, 0)
    assert rep.meet_witness and not rep.partition and not rep.level_order
    assert "meet axiom" in rep.meet_witness[0]

    cyc = FinitePoset("kappa", {a, b}, {(a, b), (b, a)}, {pair_key(a, b): frozenset()})
    assert sposet_check(cyc, 0).partition

    down = FinitePoset("kappa", {a, x}, {(x, a)}, {pair_key(a, x): frozenset({x})})
    assert sposet_check(down, 0).level_order

    missing = FinitePoset("kappa", {a, b}, set(), {})
    rep = sposet_check(missing, 0)
    assert any("no recorded meet" in line for line in rep.meet_witness)


def test_skeleton_on_generic_runs(tree, F):
    steps = [
        RealizePoint(TOP, 0),
        RealizePoint(TOP, 1),
        PredecessorBelow(Point(TOP, 0), parse("w*2 + 1"), 0),
        PredecessorBelow(Point(TOP, 1), parse("w*4"), 0),
        PredecessorBelow(Point(TOP, 0), W, 0),
    ]
    for dialect in ("omega", "kappa"):
        T = run(tree, F, steps, dialect)
        rep = skeleton_check(T, T.sub_top_levels())
        assert rep.ok
        assert rep.bones == tuple(T.sub_top_levels())


def test_skeleton_same_level_meet_flagged():
    s, t, v = Point(W, 0), Point(W, 1), Point(from_int(0), 0)
    T = FinitePoset(
        "kappa",
        {s, t, v},
        {(v, s), (v, t)},
        {
            pair_key(s, t): frozenset({v}),
            pair_key(v, s): frozenset({v}),
            pair_key(v, t): frozenset({v}),
        },
    )
    rep = skeleton_check(T, [W])
    assert not rep.ok
    assert any("same-level-meet" in line for _, lines in rep.verdicts for line in lines)


def test_skeleton_missing_interpolant_flagged():
    x, y, z = Point(W + ONE, 0), Point(from_int(0), 0), Point(W, 0)
    T = FinitePoset(
        "kappa",
        {x, y, z},
        {(y, x)},
        {
            pair_key(y, x): frozenset({y}),
            pair_key(y, z): frozenset(),
            pair_key(z, x): frozenset(),
        },
    )
    rep = skeleton_check(T, [W])
    assert not rep.ok
    assert any("interpolant" in line for _, lines in rep.verdicts for line in lines)
    # vacuous when the level above is unpopulated
    assert skeleton_check(T, [parse("w*2")]).ok


def test_tightness_planted(tree, F):
    T, x, A = planted(tree, F, k=3)
    rep = tightness_probe(T, x, A)
    assert rep.ok
    assert len(rep.u_set) == 3
    assert rep.alpha == W
    assert len({a for _, a in rep.witnesses}) == 3
    for u, a in rep.witnesses:
        assert T.le(a, u) and T.lt(u, x)


def test_tightness_single_family_point(tree, F):
    T, x, A = planted(tree, F, k=2)
    rep = tightness_probe(T, x, A[:1])
    assert rep.ok and len({a for _, a in rep.witnesses}) == 1


def test_tightness_mutant_flagged(tree, F):
    T, x, A = planted(tree, F, k=3)
    y = Point(W, 7)
    rel = set(T.strict) | {(A[0], y), (A[1], y), (y, x)}
    meets = dict(T.meets)
    for t in T.sorted_points():
        meets[pair_key(y, t)] = frozenset()
    T2 = FinitePoset("kappa", set(T.points) | {y}, rel, meets)
    rep = tightness_probe(T2, x, A)
    assert not rep.ok
    (bad_y, hits), = rep.violations
    assert bad_y == y and set(hits) == {A[0], A[1]}


def test_tightness_preconditions(tree, F):
    T, x, A = planted(tree, F, k=2)
    with pytest.raises(GenericError):
        tightness_probe(T, Point(W, 0), A)  # limit-indexed level
    with pytest.raises(GenericError):
        tightness_probe(T, x, [x])  # not strictly below x
    a, xx = Point(from_int(2), 0), Point(W + ONE, 0)
    lone = FinitePoset("kappa", {a, xx}, {(a, xx)}, {pair_key(a, xx): frozenset({a})})
    with pytest.raises(ProbeInconclusiveError):
        tightness_probe(lone, xx, [a])


def test_cardinal_profile_shape(tree, F):
    steps = [RealizePoint(TOP, i) for i in range(5)]
    for k, level in enumerate(["1", "w", "w*2", "w*3"]):
        steps += [RealizePoint(parse(level), i) for i in range(3)]
    T = run(tree, F, steps)
    prof = cardinal_profile(T)
    assert str(prof) == "(3, 3, 3, 3 | 5)"
    assert prof.top_width == 5
    assert [n for _, n in prof.widths] == [3, 3, 3, 3]


def test_cardinal_profile_ignores_renaming(tree, F):
    steps = [RealizePoint(TOP, 0), RealizePoint(W, 1), RealizePoint(W, 4)]
    other = [RealizePoint(TOP, 7), RealizePoint(W, 0), RealizePoint(W, 2)]
    assert cardinal_profile(run(tree, F, steps)) == cardinal_profile(
        run(tree, F, other)
    )


def test_cardinal_profile_refuses_broken_meets():
    a, b, x = Point(from_int(2), 0), Point(from_int(3), 0), Point(W, 0)
    T = FinitePoset(
        "kappa",
        {a, b, x},
        {(a, x), (a, b)},
        {
            pair_key(a, x): frozenset({a}),
            pair_key(a, b): frozenset({a}),
            pair_key(b, x): frozenset(),
        },
    )
    with pytest.raises(GenericError):
        cardinal_profile(T)


def test_kappa_interpolation_points_land_on_interval_ends(tree, F):
    alpha = parse("w*2 + 1")
    steps = [RealizePoint(TOP, 0), PredecessorBelow(Point(TOP, 0), alpha, 0)]
    T = run(tree, F, steps, "kappa")
    ends = {iv.hi for iv in tree.path(alpha)}
    extra = {p.level for p in T.points if not p.is_top} - {alpha}
    assert extra and extra <= ends


def test_validation_past_the_budget_is_a_schedule_error():
    # the second extension plants an interpolant at w^8, the last root
    # marker, whose split check needs a child the budget never made
    tree = IntervalTree(Params(parse("w^w"), kappa_w=7, lambda_w=12, e_budget=8))
    top = Point(TOP, 2)
    steps = [
        RealizePoint(TOP, 2),
        PredecessorBelow(top, parse("w^4 + 2"), 0),
        PredecessorBelow(top, parse("w^7 + 1"), 2),
    ]
    with pytest.raises(ScheduleError) as err:
        run(tree, flat_F(tree, 12, 8), steps)
    assert err.value.step == 2
    assert len(err.value.trace) == 3
    assert str(err.value).endswith(
        "split(w^7 + 1, w^8): w^8 lies past the materialized children of [0, w^w)"
    )


def test_schedule_chains_descend():
    """Every chain a run exposes, finished or cut short by a ScheduleError,
    is a descending sequence of conditions."""
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        dialect=st.sampled_from(["omega", "kappa"]),
        kappa_w=st.integers(2, 8),
        e_budget=st.integers(2, 16),
        eta=st.sampled_from(["w^2", "w^3", "w^w"]),
        draws=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 16), st.integers(0, 16),
                st.integers(0, 3), st.integers(0, 3),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def walk(dialect, kappa_w, e_budget, eta, draws):
        params = Params(parse(eta), kappa_w=kappa_w, lambda_w=kappa_w + 1, e_budget=e_budget)
        tree = IntervalTree(params)
        eps = tree.root_eps()
        realized, steps = [], []
        for below, pick, k, n, col in draws:
            level = eps[k % len(eps)] + n
            if below and realized:
                steps.append(PredecessorBelow(realized[pick % len(realized)], level, col))
            else:
                x = Point(TOP, pick % params.lambda_w) if pick % 3 == 0 else Point(level, col)
                realized.append(x)
                steps.append(RealizePoint(x.level, x.xi))
        try:
            chain = run(tree, flat_F(tree, params.lambda_w, len(eps) - 1), steps, dialect).provenance
            seen.add("done")
        except ScheduleError as err:
            chain = err.trace
            seen.add("cut")
        for earlier, later in zip(chain, chain[1:]):
            assert leq(later, earlier)

    walk()
    assert seen == {"done", "cut"}


def test_skeleton_routes_through_the_level():
    # 3 < w < w + 1 passes through level w; 5 < w + 1 does not
    y, z, x, y2 = (Point(parse(t), 0) for t in ("3", "w", "w + 1", "5"))
    T = FinitePoset("kappa", [y, z, x, y2], [(y, z), (z, x), (y, x), (y2, x)], {})
    rep = skeleton_check(T, [W])
    assert rep.verdicts == (
        (W, ("interpolant: no route for (5, 0) < (w + 1, 0) through level w",)),
    )
