"""Derivative machinery: exact finite spaces against the brute-force
topology oracle, the lower-set space construction, and the symbolic
ordinal reports."""

import random

import pytest

from .corpus import damaged_documents, flat_F
from .oracles import naive_cb
from scatterlab.analysis import (
    AnalysisError,
    CapExceededError,
    FiniteSpace,
    ordinal_space_levels,
    finite_cb,
    omega_valuation,
    space_from_poset,
    space_from_text,
    space_to_text,
)
from scatterlab.conditions import TOP, Point
from scatterlab.generic import (
    PredecessorBelow,
    RealizePoint,
    Schedule,
    run_schedule,
)
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import cb_level, from_int, omega_pow, parse


def random_space(rng, max_points=8):
    n = rng.randint(1, max_points)
    points = frozenset(range(n))
    subbase = tuple(
        frozenset(x for x in points if rng.random() < 0.5)
        for _ in range(rng.randint(0, 2 * n))
    )
    return FiniteSpace(points, subbase)


# --- explicit finite spaces -------------------------------------------------


def test_discrete_space():
    sp = FiniteSpace(frozenset(range(5)), tuple(frozenset({i}) for i in range(5)))
    rep = finite_cb(sp)
    assert rep.widths == (5,) and rep.height == 1
    assert rep.residual == () and rep.scattered


def test_sierpinski_space():
    rep = finite_cb(FiniteSpace(frozenset("ab"), (frozenset("a"),)))
    assert rep.levels == ((0, ("a",)), (1, ("b",)))
    assert rep.height == 2 and rep.widths == (1, 1)


def test_indiscrete_space_keeps_residual():
    rep = finite_cb(FiniteSpace(frozenset("xy"), ()))
    assert rep.levels == () and rep.height is None
    assert set(rep.residual) == {"x", "y"}
    assert not rep.scattered
    assert rep.ht_minus == 0


def test_cap_guard():
    with pytest.raises(CapExceededError):
        finite_cb(FiniteSpace(frozenset(range(17)), ()))
    finite_cb(FiniteSpace(frozenset(range(17)), ()), cap=20)


def test_subbase_must_stay_inside():
    with pytest.raises(AnalysisError):
        FiniteSpace(frozenset({1}), (frozenset({1, 2}),))


def test_matches_naive_oracle():
    rng = random.Random(77)
    for _ in range(60):
        sp = random_space(rng)
        want_levels, want_residual = naive_cb(sp.points, sp.subbase)
        rep = finite_cb(sp)
        assert [frozenset(m) for _, m in rep.levels] == want_levels
        assert frozenset(rep.residual) == want_residual


def test_levels_partition_points():
    rng = random.Random(13)
    for _ in range(40):
        sp = random_space(rng)
        rep = finite_cb(sp)
        seen = set(rep.residual)
        total = len(rep.residual)
        for _, members in rep.levels:
            assert not (set(members) & seen)
            seen |= set(members)
            total += len(members)
        assert seen == set(sp.points) and total == len(sp.points)
        assert rep.widths == tuple(len(m) for _, m in rep.levels)
        assert all(w >= 1 for w in rep.widths)


# --- spaces from posets --------------------------------------------------------


@pytest.fixture(scope="module")
def tree():
    return IntervalTree(Params(parse("w^2"), kappa_w=8, lambda_w=12, e_budget=16))


def test_two_point_chain_subbase(tree):
    F = flat_F(tree, 12, 12)
    sch = Schedule(
        (RealizePoint(TOP, 0), PredecessorBelow(Point(TOP, 0), parse("w*2"), 0))
    )
    T = run_schedule(sch, tree, F, "kappa")
    s, t = Point(parse("w*2"), 0), Point(TOP, 0)
    sp = space_from_poset(T)
    assert len(sp.subbase) == 2 * len(sp.points)
    assert frozenset({s}) in sp.subbase
    assert frozenset({s, t}) in sp.subbase
    assert frozenset({t}) in sp.subbase  # complement of U(s)


def test_antichain_space_is_discrete(tree):
    sch = Schedule(tuple(RealizePoint(TOP, i) for i in range(4)))
    T = run_schedule(sch, tree, None, "kappa")
    rep = finite_cb(space_from_poset(T))
    assert rep.height == 1 and rep.widths == (4,)


def test_poset_space_degenerates_to_discrete(tree):
    # separating meets make finite fragments discrete; the honest report
    # is a single level holding everything
    F = flat_F(tree, 12, 12)
    steps = [RealizePoint(TOP, 0), RealizePoint(TOP, 1)]
    steps += [PredecessorBelow(Point(TOP, 0), parse("w"), 0)] * 3
    steps += [PredecessorBelow(Point(TOP, 1), parse("w*4 + 1"), 0)] * 2
    for dialect in ("omega", "kappa"):
        T = run_schedule(Schedule(tuple(steps)), tree, F, dialect)
        sp = space_from_poset(T)
        rep = finite_cb(sp)
        assert rep.height == 1
        assert rep.widths == (len(sp.points),)


def test_space_text_round_trip(tree):
    sch = Schedule(
        (RealizePoint(TOP, 0), PredecessorBelow(Point(TOP, 0), parse("w*3"), 0))
    )
    T = run_schedule(sch, tree, flat_F(tree, 12, 12), "kappa")
    sp = space_from_poset(T)
    text = space_to_text(sp)
    again = space_from_text(text)
    assert len(again.points) == len(sp.points)
    assert len(again.subbase) == len(sp.subbase)
    assert space_to_text(space_from_text(text)) == text
    with pytest.raises(AnalysisError):
        space_from_text("points 1\n0 a\nsubbase 0\n")


def test_space_from_text_refuses_damaged_documents():
    space = FiniteSpace(frozenset("abc"), (frozenset("a"), frozenset("ab")))
    for bad in damaged_documents(space_to_text(space), "subbase"):
        with pytest.raises(AnalysisError):
            space_from_text(bad)


# --- symbolic ordinal reports ----------------------------------------------------


def test_ordinal_levels_finite():
    rep = ordinal_space_levels(from_int(5))
    assert rep.tags == ((0, "6"),)
    assert rep.height == 1 and rep.ht_minus == 0
    assert rep.finite_members == (
        (0, tuple(from_int(k) for k in range(6))),
    )


def test_ordinal_levels_omega():
    rep = ordinal_space_levels(parse("w"))
    assert rep.tags == ((0, "w"), (1, "1"))
    assert rep.height == 2 and rep.ht_minus == 1
    assert rep.finite_members == ((1, (parse("w"),)),)


def test_ordinal_levels_w2_times_2():
    rep = ordinal_space_levels(parse("w^2*2"))
    assert rep.tags == ((0, "w"), (1, "w"), (2, "2"))
    assert rep.height == 3 and rep.ht_minus == 2
    assert rep.finite_members == ((2, (parse("w^2"), parse("w^2*2"))),)
    assert rep.tag(1) == "w" and rep.tag(5) is None


def test_ordinal_levels_zero():
    rep = ordinal_space_levels(parse("0"))
    assert rep.tags == ((0, "1"),) and rep.height == 1


def test_ordinal_levels_range_guard():
    with pytest.raises(AnalysisError):
        ordinal_space_levels(parse("w^w"))
    ordinal_space_levels(parse("w^3*2 + w*4 + 1"))


def test_height_tracks_leading_exponent():
    for text, height in [("w^3", 4), ("w^3 + w", 4), ("w*7 + 3", 2), ("4", 1)]:
        assert ordinal_space_levels(parse(text)).height == height


def test_valuation_agrees_with_level_reader():
    rng = random.Random(101)
    for _ in range(1000):
        beta = (
            omega_pow(from_int(3), rng.randint(0, 2))
            + omega_pow(from_int(2), rng.randint(0, 3))
            + omega_pow(from_int(1), rng.randint(0, 3))
            + from_int(rng.randint(0, 6))
        )
        assert omega_valuation(beta) == cb_level(beta)


def test_finite_members_sit_on_their_level():
    for text in ["w^2*2", "w^3", "w*5", "17"]:
        rep = ordinal_space_levels(parse(text))
        for e, members in rep.finite_members:
            for beta in members:
                assert omega_valuation(beta) == e or beta.is_zero
