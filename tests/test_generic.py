"""Schedule runs and the poset checkers: replay, determinism, densities,
bone levels, tightness counting, and the refusal paths."""

import copy
import pickle
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .corpus import (
    damaged_documents,
    damaged_schedules,
    finite_poset,
    flat_F,
    messy_poset_document,
)
from .oracles import full_run_schedule, naive_sposet_check, naive_validate
from scatterlab import generic
from scatterlab.conditions import (
    TOP,
    ConditionError,
    Point,
    condition_to_text,
    extend_condition,
    leq,
    make_condition,
    pair_key,
    validate,
    violations_touching,
)
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
from scatterlab.intervals import IntervalTree, Params, TreeError
from scatterlab.ordinals import ONE, from_int, parse

W = parse("w")
GOLDEN = Path(__file__).parent / "golden"


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


def test_poset_document_with_pairs_left_out_reads_only_its_entries():
    """A poset document may leave meet pairs out: `meets` lists exactly the
    entries given, in `pairs()` order, `meet` reads None elsewhere, and the
    document is written back byte for byte."""
    text = "\n".join([
        "# scatterlab-fmt 1 poset", "dialect kappa", "points 3",
        "0 w 0", "1 w*2 0", "2 TOP 0", "order 2", "0 2", "1 2",
        "meets 2", "0 2 : 0", "1 2 : 1", "targeted 0",
    ]) + "\n"
    T = poset_from_text(text)
    a, b, top = T.sorted_points()
    assert T.meets == (((a, top), frozenset({a})), ((b, top), frozenset({b})))
    assert T.meet(top, b) == frozenset({b})
    assert T.meet(a, b) is None and T.meet(b, a) is None
    assert poset_to_text(T) == text


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
    broken_meet = finite_poset(
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

    cyc = finite_poset("kappa", {a, b}, {(a, b), (b, a)}, {pair_key(a, b): frozenset()})
    assert sposet_check(cyc, 0).partition

    down = finite_poset("kappa", {a, x}, {(x, a)}, {pair_key(a, x): frozenset({x})})
    assert sposet_check(down, 0).level_order

    missing = finite_poset("kappa", {a, b}, set(), {})
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
    T = finite_poset(
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
    T = finite_poset(
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
    T2 = finite_poset("kappa", set(T.points) | {y}, rel, meets)
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
    lone = finite_poset("kappa", {a, xx}, {(a, xx)}, {pair_key(a, xx): frozenset({a})})
    with pytest.raises(ProbeInconclusiveError):
        tightness_probe(lone, xx, [a])


def test_tightness_probe_refuses_a_point_outside_the_poset(tree, F):
    T, _, A = planted(tree, F, k=2)
    with pytest.raises(GenericError, match=r"^\(w\*9 \+ 1, 5\) is not in the poset$"):
        tightness_probe(T, Point(parse("w*9+1"), 5), A)


def test_run_schedule_refuses_an_unknown_requirement(tree, F):
    with pytest.raises(ScheduleError) as err:
        run(tree, F, [RealizePoint(TOP, 0), "grow"])
    assert str(err.value) == "step 1 'grow': unknown requirement kind str"
    assert (err.value.step, err.value.requirement, len(err.value.trace)) == (1, "grow", 2)


def test_core_findings_come_in_position_order():
    T = poset_from_text(messy_poset_document())
    rep = sposet_check(T, 1)
    assert rep == naive_sposet_check(T, 1)
    assert rep.partition == (
        "reflexive strict pair: (1, 0)",
        "two-cycle: (1, 0) / (1, 0)",
        "reflexive strict pair: (2, 0)",
        "two-cycle: (2, 0) / (2, 0)",
        "two-cycle: (3, 0) / (4, 0)",
        "two-cycle: (4, 0) / (3, 0)",
        "not transitive: (3, 0) < (4, 0) < (3, 0)",
        "not transitive: (4, 0) < (3, 0) < (4, 0)",
        "not transitive: (5, 0) < (6, 0) < (1, 0)",
        "not transitive: (5, 0) < (6, 0) < (2, 0)",
        "not transitive: (5, 0) < (6, 0) < (7, 0)",
    )
    climbs = ("(1, 0) < (1, 0)", "(2, 0) < (2, 0)", "(4, 0) < (3, 0)")
    climbs += ("(6, 0) < (1, 0)", "(6, 0) < (2, 0)")
    assert rep.level_order == tuple(f"order does not climb levels: {c}" for c in climbs)
    assert rep.meet_witness[:5] == (
        "meet point (3, 0) of (1, 0), (2, 0) is not below both",
        "meet point (4, 0) of (1, 0), (2, 0) is not below both",
        "meet point (5, 0) of (1, 0), (2, 0) is not below both",
        "meet point (7, 0) of (1, 0), (2, 0) is not below both",
        "meet axiom fails at (3, 0) for pair (1, 0), (2, 0)",
    )


def test_negative_columns_are_partition_findings_in_key_order():
    doc = (
        "# scatterlab-fmt 1 poset\ndialect kappa\npoints 3\n0 w -2\n1 w -1\n2 w*2 -3\n"
        "order 0\nmeets 3\n0 1 :\n0 2 :\n1 2 :\ntargeted 0\n"
    )
    T = poset_from_text(doc)
    want = ("negative column: (w, -2)", "negative column: (w, -1)", "negative column: (w*2, -3)")
    assert sposet_check(T, 1).partition == want
    with pytest.raises(GenericError, match=r"^profile refused: negative column: \(w, -2\); "):
        cardinal_profile(T)


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
    T = finite_poset(
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
    T = finite_poset("kappa", [y, z, x, y2], [(y, z), (z, x), (y, x), (y2, x)], {})
    rep = skeleton_check(T, [W])
    assert rep.verdicts == (
        (W, ("interpolant: no route for (5, 0) < (w + 1, 0) through level w",)),
    )


# --- incremental steps against the full rebuild --------------------------------


def outcome(fn, *args, errors=(ConditionError, TreeError, ScheduleError)):
    try:
        return fn(*args)
    except errors as err:
        return err


def shown(result):
    """A result or error in a form that compares by value."""
    if isinstance(result, ScheduleError):
        return ("ScheduleError", str(result), result.step, result.trace)
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    if isinstance(result, FinitePoset):
        return (result, result.provenance)
    return result


def same_condition(got, want):
    assert got._fields() == want._fields()
    assert got.meets == want.meets  # in pairs() order
    a, b = got.core(), want.core()
    assert (a.pts, a.index, a.up, a.down, a.levels) == (b.pts, b.index, b.up, b.down, b.levels)
    assert got.meet_table() == dict(want.meets)


def gated_run_schedule(sch, tree, F, dialect):
    """`run_schedule`, with every step checked against the full rebuild: the
    step's condition equals the one `make_condition` builds from scratch,
    the findings on its new pairs equal `validate` and `naive_validate` on
    the whole of it, and the run ends in the same poset or ScheduleError."""
    steps = []

    def spy(p, tree, F, fresh):
        found = outcome(violations_touching, p, tree, F, fresh)
        steps.append((p, found))
        if isinstance(found, Exception):
            raise found
        return found

    with mock.patch.object(generic, "violations_touching", spy):
        got = outcome(generic.run_schedule, sch, tree, F, dialect)
    record = []
    want = outcome(full_run_schedule, sch, tree, F, dialect, record)
    assert len(steps) == len(record)
    for (p, found), (full, full_found) in zip(steps, record):
        same_condition(p, full)
        assert shown(found) == shown(full_found) == shown(outcome(naive_validate, full, tree, F))
    assert shown(got) == shown(want)
    if isinstance(got, ScheduleError):
        raise got
    return got


# the tests above that run schedules on the module's tree and F
SCHEDULE_TESTS = (
    test_empty_schedule, test_two_chain_replay, test_determinism_and_round_trips,
    test_poset_from_text_refuses_damaged_documents, test_realize_is_idempotent,
    test_chain_is_descending_and_valid, test_schedule_error_unrealized_target,
    test_schedule_error_caps_exhausted, test_schedule_error_bad_column,
    test_schedule_error_negative_floor, test_schedule_error_level_out_of_range,
    test_density_budget_met, test_skeleton_on_generic_runs, test_tightness_planted,
    test_tightness_single_family_point, test_tightness_mutant_flagged,
    test_tightness_preconditions, test_cardinal_profile_shape,
    test_cardinal_profile_ignores_renaming, test_kappa_interpolation_points_land_on_interval_ends,
)


def test_incremental_steps_match_the_full_rebuild(tree, F):
    """Every step of every schedule this module runs, of every draw of
    test_schedule_chains_descend and of the golden schedule in both
    dialects, gated against the full rebuild."""
    with mock.patch(f"{__name__}.run_schedule", gated_run_schedule):
        for test in SCHEDULE_TESTS:
            test(tree, F)
        test_validation_past_the_budget_is_a_schedule_error()
        test_schedule_chains_descend()
    sch = schedule_from_text((GOLDEN / "schedule.txt").read_text())
    for dialect in ("omega", "kappa"):
        gated_run_schedule(sch, tree, F, dialect)


def test_incremental_steps_fail_as_the_full_rebuild_does():
    """Small caps and budgets, so that steps fail on the size cap, the width
    caps and unmaterialized levels; each failure is the full path's, byte
    for byte."""
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        dialect=st.sampled_from(["omega", "kappa"]),
        kappa_w=st.integers(2, 5),
        size_cap=st.integers(1, 12),
        e_budget=st.integers(2, 8),
        eta=st.sampled_from(["w^2", "w^3", "w^w"]),
        draws=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 16), st.integers(0, 16),
                st.integers(0, 3), st.integers(0, 6),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def walk(dialect, kappa_w, size_cap, e_budget, eta, draws):
        params = Params(
            parse(eta), kappa_w=kappa_w, lambda_w=kappa_w + 1, e_budget=e_budget,
            size_cap=size_cap,
        )
        tree = IntervalTree(params)
        eps = tree.root_eps()
        realized, steps = [], []
        for below, pick, k, n, col in draws:
            level = eps[k % len(eps)] + n if k < 14 else parse("w^9") + n
            if below and realized:
                steps.append(PredecessorBelow(realized[pick % len(realized)], level, col))
            else:
                x = Point(TOP, pick % (params.lambda_w + 1)) if pick % 3 == 0 else Point(level, col)
                realized.append(x)
                steps.append(RealizePoint(x.level, x.xi))
        F = flat_F(tree, params.lambda_w, len(eps) - 1)
        try:
            gated_run_schedule(Schedule(tuple(steps)), tree, F, dialect)
            seen.add("done")
        except ScheduleError as err:
            text = str(err)
            for kind, mark in (
                ("size", "size-cap"), ("width", "width cap"), ("column", "no free column"),
                ("unmaterialized", "materialized"),
            ):
                if mark in text:
                    seen.add(kind)

    walk()
    assert seen == {"done", "size", "width", "column", "unmaterialized"}


def test_extend_condition_matches_make_condition():
    """New points tied below one old target, or below nothing, at any level
    and with any order among themselves: `extend_condition` builds what
    `make_condition` builds from scratch, and the findings on the new pairs
    are all of `validate`'s."""
    tree = IntervalTree(Params(parse("w^2"), kappa_w=4, lambda_w=5, e_budget=8, size_cap=12))
    F = flat_F(tree, 5, 7)
    eps = tree.root_eps()
    base = [RealizePoint(TOP, 0), RealizePoint(TOP, 2), RealizePoint(eps[5] + 1, 0)]
    base += [PredecessorBelow(Point(TOP, 0), eps[3], 0), PredecessorBelow(Point(TOP, 2), eps[3], 1)]
    base += [PredecessorBelow(Point(eps[5] + 1, 0), eps[5], 0)]
    conds = {d: run(tree, F, base, d).provenance for d in ("omega", "kappa")}
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        dialect=st.sampled_from(["omega", "kappa"]),
        at=st.integers(0, len(base)),
        target=st.integers(0, 16),
        news=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 4), st.booleans()),
            min_size=1,
            max_size=4,
        ),
        links=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
    )
    def walk(dialect, at, target, news, links):
        p = conds[dialect][at]
        old = p.sorted_points()
        tgt = old[target % len(old)] if old and target < 12 else None
        fresh = []
        for k, n, xi, tied in news:
            x = Point(TOP, xi) if k == 7 else Point(eps[k] + n, xi)
            if x not in p.points and x not in fresh:
                fresh.append(x)
        rel = [(x, tgt) for x, (_, _, _, tied) in zip(fresh, news) if tied and tgt]
        rel += [(fresh[a % len(fresh)], fresh[b % len(fresh)]) for a, b in links if fresh]
        got = outcome(extend_condition, p, fresh, rel)
        want = outcome(make_condition, dialect, p.points | set(fresh), p.strict | set(rel),
                       p.meet_table(), True)
        if isinstance(want, Exception):
            # a cycle is named through its first point in set order
            assert type(got) is type(want)
            assert str(got).split(" through ")[0] == str(want).split(" through ")[0]
            seen.add("refused")
            return
        same_condition(got, want)
        mask = 0
        for x in fresh:
            mask |= 1 << got.core().index[x]
        found = shown(outcome(violations_touching, got, tree, F, mask))
        assert found == shown(outcome(validate, want, tree, F))
        assert found == shown(outcome(naive_validate, want, tree, F))
        seen.add("flagged" if found else "valid")

    walk()
    assert seen == {"refused", "flagged", "valid"}


def test_extend_condition_refuses_a_pair_from_an_old_point():
    a, b = Point(W, 0), Point(TOP, 0)
    p = make_condition("kappa", [b])
    with pytest.raises(ConditionError, match="climbs from an old point"):
        extend_condition(p, [a], [(b, a)])
    with pytest.raises(ConditionError, match="already in the condition"):
        extend_condition(p, [b], [])
    assert extend_condition(p, [a], [(a, b)]) == make_condition(
        "kappa", [a, b], [(a, b)], complete=True
    )


def test_schedule_chain_conditions_match_the_rebuild(tree, F):
    """Every condition of a schedule chain, from `T.provenance` and from
    `ScheduleError.trace`, matches its `make_condition(..., complete=True)`
    rebuild on equality, hash, document bytes and pickle and deepcopy round
    trips, each check on a fresh run; and its rows read the same whether
    `meet_table()` was read first or not."""
    sch = schedule_from_text((GOLDEN / "schedule.txt").read_text())
    failing = [RealizePoint(TOP, 0)] + [PredecessorBelow(Point(TOP, 0), W, 0)] * 9

    def chains():
        """Fresh runs, so that no hash of a chain condition is cached yet."""
        for dialect in ("omega", "kappa"):
            yield run_schedule(sch, tree, F, dialect).provenance
            with pytest.raises(ScheduleError) as err:
                run(tree, F, failing, dialect)
            yield err.value.trace

    def rebuild(p):
        return make_condition(p.dialect, p.points, p.strict, complete=True)

    checks = (
        lambda p, q: p == q and q == p and hash(p) == hash(q),
        lambda p, q: condition_to_text(p, tree.params) == condition_to_text(q, tree.params),
        lambda p, q: pickle.loads(pickle.dumps(p)) == q and hash(pickle.loads(pickle.dumps(p))) == hash(q),
        lambda p, q: copy.deepcopy(p) == q and copy.deepcopy(p).meets == q.meets,
        lambda p, q: p.meets == q.meets and p.meet_table() == q.meet_table(),
        lambda p, q: p.meet_table() == q.meet_table() and p.meets == q.meets,
    )
    for check in checks:
        for chain in chains():
            assert len(chain) > 2
            for p in chain:
                assert check(p, rebuild(p))


# --- the kept core verdict ---------------------------------------------------------


def broken_posets():
    """Fresh posets that each fail one core clause: the meet axiom, a
    two-cycle, an order going down a level, and a pair with no meet."""
    a, b, x = Point(from_int(2), 0), Point(from_int(3), 0), Point(W, 0)
    meets = {
        pair_key(a, x): frozenset({a}),
        pair_key(a, b): frozenset({a}),
        pair_key(b, x): frozenset(),
    }
    return [
        finite_poset("kappa", {a, b, x}, {(a, x), (a, b)}, meets),
        finite_poset("kappa", {a, b}, {(a, b), (b, a)}, {pair_key(a, b): frozenset()}),
        finite_poset("kappa", {a, x}, {(x, a)}, {pair_key(a, x): frozenset({x})}),
        finite_poset("kappa", {a, b}, set(), {}),
    ]


def some_posets(tree, F):
    """Fresh posets, broken ones and finished schedule runs in both dialects."""
    T, _, _ = planted(tree, F)
    steps = [RealizePoint(TOP, 0), PredecessorBelow(Point(TOP, 0), parse("w*2 + 1"), 0)]
    return broken_posets() + [T] + [run(tree, F, steps, d) for d in ("omega", "kappa")]


def refusal(T):
    with pytest.raises(GenericError) as err:
        cardinal_profile(T)
    return str(err.value)


def test_cardinal_profile_refuses_alike_after_a_check():
    for unchecked, checked in zip(broken_posets(), broken_posets()):
        sposet_check(checked, 3)
        rep = naive_sposet_check(unchecked, 0)
        want = "profile refused: " + "; ".join(
            rep.partition + rep.level_order + rep.meet_witness
        )
        assert refusal(unchecked) == refusal(checked) == want


def test_a_checked_poset_is_not_judged_again(tree, F, monkeypatch):
    judged = []
    judge = FinitePoset._judge

    def counted(T):
        judged.append(T)
        return judge(T)

    monkeypatch.setattr(FinitePoset, "_judge", counted)
    for T in some_posets(tree, F):
        judged.clear()
        sposet_check(T, 2)
        outcome(cardinal_profile, T, errors=GenericError)
        sposet_check(T, 0)
        assert len(judged) == 1 and judged[0] is T
    for T in some_posets(tree, F):
        judged.clear()
        outcome(cardinal_profile, T, errors=GenericError)
        sposet_check(T, 1)
        assert len(judged) == 1


def test_checked_and_unchecked_posets_compare_equal(tree, F):
    for checked, unchecked in zip(some_posets(tree, F), some_posets(tree, F)):
        sposet_check(checked, 1)
        outcome(cardinal_profile, checked, errors=GenericError)
        assert checked == unchecked and unchecked == checked
        assert poset_to_text(checked) == poset_to_text(unchecked)


def test_repeated_sposet_checks_match_the_oracle(tree, F):
    for T in some_posets(tree, F):
        for budget in (0, 2, 0, 5):
            assert sposet_check(T, budget) == naive_sposet_check(T, budget)
