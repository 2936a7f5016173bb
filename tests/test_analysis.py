"""Derivative machinery: exact finite spaces against the brute-force
topology oracle, the lower-set space construction, and the symbolic
ordinal reports."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import wall_clock
from .corpus import damaged_documents, finite_poset, flat_F
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


def small_subbases(max_points=6):
    """A point count and a dense subbase over range(n): up to 2n sets."""
    return st.integers(1, max_points).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(0, n - 1)), max_size=2 * n),
        )
    )


def raw_posets(max_points=5):
    """Tops 0..n-1 and any strict pairs among them: no closure, no meets."""
    return st.integers(1, max_points).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
        )
    )


def assert_matches_oracle(sp):
    want_levels, want_residual = naive_cb(sp.points, sp.subbase)
    rep = finite_cb(sp)
    assert [frozenset(m) for _, m in rep.levels] == want_levels
    assert frozenset(rep.residual) == want_residual


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_subbases())
def test_dense_subbases_match_naive_oracle(drawn):
    n, subbase = drawn
    assert_matches_oracle(FiniteSpace(frozenset(range(n)), tuple(subbase)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(raw_posets())
def test_raw_poset_spaces_match_naive_oracle(drawn):
    n, pairs = drawn
    tops = [Point(TOP, i) for i in range(n)]
    strict = [(tops[i], tops[j]) for i, j in pairs if i != j]
    assert_matches_oracle(space_from_poset(finite_poset("kappa", tops, strict, {})))


def test_forest_space_above_the_default_cap():
    # each node's open set is itself with its descendants; with three
    # children a node over four ranks, the leaves go first and the root last
    ranks = [["r3n0"]]
    children = {}
    for r in (2, 1, 0):
        row = []
        for parent in ranks[-1]:
            children[parent] = [f"r{r}n{len(row) + k}" for k in range(3)]
            row += children[parent]
        ranks.append(row)

    def below(x):
        return frozenset({x}).union(*(below(kid) for kid in children.get(x, ())))

    points = frozenset(x for row in ranks for x in row)
    rep = finite_cb(FiniteSpace(points, tuple(below(x) for x in points)), cap=64)
    assert rep.widths == (27, 9, 3, 1) and rep.height == 4
    assert [set(m) for _, m in rep.levels] == [set(row) for row in reversed(ranks)]


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


def test_sixteen_point_poset_space_at_the_default_cap(tree):
    F = flat_F(tree, 12, 12)
    steps = [RealizePoint(TOP, i) for i in range(4)]
    steps += [PredecessorBelow(Point(TOP, i % 4), parse(f"w*{i + 2}"), 0) for i in range(12)]
    for dialect in ("omega", "kappa"):
        sp = space_from_poset(run_schedule(Schedule(tuple(steps)), tree, F, dialect))
        assert len(sp.points) == 16
        with wall_clock(1):
            rep = finite_cb(sp)
        assert rep.levels == ((0, tuple(sorted(sp.points, key=str))),)


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


def test_space_from_text_refuses_a_repeated_point():
    text = "# scatterlab-fmt 1 space\npoints 2\n0 a\n1 a\nsubbase 0\n"
    with pytest.raises(AnalysisError) as err:
        space_from_text(text)
    assert str(err.value) == "point a is listed twice"


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


def test_valuation_refuses_an_infinite_last_exponent():
    with wall_clock(5):
        for text in ["w^w", "w^(w + 1)", "w^(w^2) + w^w*3"]:
            with pytest.raises(AnalysisError, match="is not a natural number"):
                omega_valuation(parse(text))


def test_valuation_reads_only_the_last_term():
    with wall_clock(5):
        assert omega_valuation(parse("w^(w + 1) + w^2")) == 2
        assert omega_valuation(parse("w^w*2 + w^5*3")) == 5
        assert omega_valuation(parse("w^w + 7")) == 0
        assert omega_valuation(parse("0")) == 0
