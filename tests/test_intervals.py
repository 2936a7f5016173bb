import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab.amalgam import _interval_data
from scatterlab.conditions import _marker_membership
from scatterlab.intervals import (
    BudgetExceededError,
    DegenerateIntervalError,
    DepthCapError,
    Interval,
    IntervalTree,
    Params,
    TreeError,
    tree_axiom_report,
)
from scatterlab.ordinals import ONE, ZERO, Ordinal, from_int, parse

from .conftest import deep_ordinals, limit_ordinals, outcome, wall_clock
from .oracles import (
    full_interval_data,
    full_locate,
    full_marker_membership,
    full_orbit,
    full_path,
    full_step,
    naive_markers,
)


def iv(lo: str, hi: str) -> Interval:
    return Interval(parse(lo), parse(hi))


def make_tree(eta: str, e_budget: int = 16, depth_cap: int = 32) -> IntervalTree:
    return IntervalTree(Params(eta=parse(eta), e_budget=e_budget), depth_cap=depth_cap)


def test_interval_basics():
    assert str(iv("w", "w*2")) == "[w, w*2)"
    assert iv("5", "6").is_singleton
    assert iv("5", "5").is_empty
    assert iv("w", "w*2").contains(parse("w + 3"))
    assert not iv("w", "w*2").contains(parse("w*2"))
    with pytest.raises(TreeError):
        iv("w", "3")


@given(deep_ordinals(), deep_ordinals(), st.sampled_from(["+0", "+1", "+2", "+b", "+1+b"]))
def test_is_singleton_is_one_step_up(lo, b, how):
    hi = {"+0": lo, "+1": lo + ONE, "+2": lo + 2, "+b": lo + b, "+1+b": lo + ONE + b}[how]
    assert Interval(lo, hi).is_singleton == (hi == lo + ONE)


@pytest.mark.parametrize("e_budget", [16, 64])
@pytest.mark.parametrize("eta", ["w^2", "w^3*2", "w^w"])
def test_markers_follow_the_successor_building_rule(eta, e_budget):
    tree = make_tree(eta, e_budget)
    count = e_budget + 1
    assert list(tree.root_eps()) == naive_markers(tree.root.hi, ZERO, count)
    # nodes whose left end passes the first steps take the successor branch
    for lo in ("w + 5", "w*3 + 2", "w*40 + 1"):
        node = Interval(parse(lo), tree.root.hi)
        assert list(tree.e_set(node)) == naive_markers(node.hi, node.lo, count)


def test_params_validation():
    with pytest.raises(TreeError):
        Params(eta=parse("w + 1"))
    with pytest.raises(TreeError):
        Params(eta=parse("w^2"), kappa_w=1)
    with pytest.raises(TreeError):
        Params(eta=parse("w^2"), kappa_w=4, lambda_w=4)
    with pytest.raises(TreeError):
        Params(eta=parse("w^2"), e_budget=1)


def test_params_bound_lambda_w():
    assert Params(eta=parse("w^2"), lambda_w=1000).lambda_w == 1000
    with pytest.raises(TreeError, match="would hold 500500 entries"):
        Params(eta=parse("w^2"), lambda_w=1001)


def test_children_limit_case():
    t = make_tree("w^2")
    assert t.children(iv("0", "w^2"), 3) == [iv("0", "w"), iv("w", "w*2"), iv("w*2", "w*3")]
    assert t.children(iv("w", "w*2"), 2) == [iv("w", "w + 1"), iv("w + 1", "w + 2")]


def test_children_successor_case():
    t = make_tree("w^2")
    assert t.children(iv("5", "7")) == [iv("5", "6"), iv("6", "7")]
    with pytest.raises(DegenerateIntervalError):
        t.children(iv("6", "7"))


def test_children_budget():
    t = make_tree("w^2", e_budget=4)
    assert len(t.children(t.root)) == 4
    with pytest.raises(BudgetExceededError):
        t.children(t.root, 5)


def test_e_set_examples():
    t = make_tree("w^2")
    assert t.e_set(t.root, 4) == tuple(parse(s) for s in ["0", "w", "w*2", "w*3"])
    assert t.e_set(iv("5", "7")) == (from_int(5), from_int(6))
    assert t.e_set(iv("6", "7")) == (from_int(6),)
    # a cut falling at or below the left end is pushed strictly inside
    deep = IntervalTree(Params(eta=parse("w^w")))
    assert deep.e_set(iv("w", "w^2"), 3) == tuple(parse(s) for s in ["w", "w + 1", "w*2"])
    with pytest.raises(TreeError, match=r"^empty interval \[w, w\) has no markers$"):
        t.e_set(iv("w", "w"))


def test_locate_examples():
    t = make_tree("w^2")
    a = parse("w*2 + 5")
    assert t.locate(a, 0) == t.root == iv("0", "w^2")
    assert t.locate(a, 1) == iv("w*2", "w*3")
    assert t.locate(a, 2) == iv("w*2 + 5", "w*2 + 6")
    assert t.locate(a, 4) == iv("w*2 + 5", "w*2 + 6")  # singletons persist
    with pytest.raises(TreeError):
        t.locate(parse("w^2"), 0)


def test_locate_budget_error():
    t = make_tree("w^2", e_budget=2)
    with pytest.raises(BudgetExceededError):
        t.locate(parse("w*5"), 1)


def test_n_of_examples():
    t = make_tree("w^2")
    assert t.n_of(ZERO) == 0
    assert t.n_of(parse("w*2")) == 1
    assert t.n_of(parse("w*2 + 5")) == 2


def test_n_of_depth_cap():
    t = make_tree("w^2", depth_cap=1)
    with pytest.raises(DepthCapError):
        t.n_of(parse("w*2 + 5"))


def test_orbit_examples():
    t = make_tree("w^2")
    assert t.orbit(ZERO) == ()
    assert t.orbit(parse("w*2")) == (ZERO, parse("w"))
    assert t.orbit(parse("w*2 + 5")) == tuple(
        parse(s) for s in ["0", "w", "w*2", "w*2 + 1", "w*2 + 2", "w*2 + 3", "w*2 + 4"]
    )


def test_j_and_J_examples():
    t = make_tree("w^2")
    assert t.j_and_J(parse("w + 3"), parse("w*2 + 5")) == (0, iv("w", "w*2"))
    assert t.j_and_J(parse("w + 3"), parse("w^2")) == (None, iv("w", "w*2"))
    assert t.j_and_J(parse("w + 3"), parse("w*2")) == (0, iv("w", "w*2"))
    j, J = t.j_and_J(parse("w + 3"), parse("w + 5"))
    assert (j, J) == (1, iv("w + 3", "w + 4"))
    with pytest.raises(TreeError):
        t.j_and_J(parse("w + 3"), parse("w + 3"))


def scan_locate(tree: IntervalTree, alpha: Ordinal, depth: int) -> Interval:
    """Independent route: enumerate the whole stratum and scan for membership."""
    stratum = [tree.root]
    for _ in range(depth):
        stratum = [
            kid for iv in stratum for kid in ([iv] if iv.is_singleton else tree.children(iv))
        ]
    hits = [node for node in stratum if node.contains(alpha)]
    assert len(hits) == 1
    return hits[0]


def test_locate_matches_stratum_scan():
    t = make_tree("w^2", e_budget=8)
    rng = random.Random(7)
    for _ in range(60):
        a, b = rng.randint(0, 7), rng.randint(0, 20)
        alpha = Ordinal(((from_int(1), a),)) + b if a else from_int(b)
        for depth in (0, 1, 2, 3):
            try:
                found = t.locate(alpha, depth)
            except BudgetExceededError:
                continue
            assert found == scan_locate(t, alpha, depth)


def test_orbit_via_stratum_scan():
    t = make_tree("w^2", e_budget=8)
    rng = random.Random(11)
    for _ in range(40):
        a, b = rng.randint(0, 7), rng.randint(0, 7)
        alpha = Ordinal(((from_int(1), a),)) + b if a else from_int(b)
        n = t.n_of(alpha)
        expected = set()
        for m in range(n):
            node = scan_locate(t, alpha, m)
            expected.update(e for e in t.e_set(node) if e < alpha)
        assert t.orbit(alpha) == tuple(sorted(expected))


def test_orbit_claim_small():
    t = make_tree("w^2", e_budget=16)
    eps = t.root_eps()
    for nu in range(16):
        assert t.orbit(eps[nu]) == tuple(eps[:nu])


def test_split_interval_claim_seeded():
    t = make_tree("w^2", e_budget=12)
    eps = t.root_eps()
    rng = random.Random(3)
    for _ in range(200):
        zeta = rng.randint(0, 10)
        alpha = eps[zeta] + rng.randint(0, 9)
        hi_choices = [eps[z] + rng.randint(0, 9) for z in range(zeta + 1, 12)]
        beta = rng.choice(hi_choices + [t.params.eta])
        if not beta <= t.params.eta or not alpha < beta:
            continue
        _, J = t.j_and_J(alpha, beta)
        assert J == Interval(eps[zeta], eps[zeta + 1])


def test_orbit_monotone_under_budget_growth():
    small = make_tree("w^2", e_budget=8)
    big = make_tree("w^2", e_budget=24)
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randint(0, 7), rng.randint(0, 7)
        alpha = Ordinal(((from_int(1), a),)) + b if a else from_int(b)
        assert small.orbit(alpha) == big.orbit(alpha)


@pytest.mark.parametrize("eta", ["w*5", "w^2", "w^2*3", "w^3"])
def test_axioms_on_truncations(eta):
    t = make_tree(eta, e_budget=8)
    samples = [ZERO, parse("w + 3"), parse("w*2")]
    report = tree_axiom_report(t, depth=4, sample_points=samples)
    assert report.ok, report.failures
    assert report.checks["child-start"] > 0
    assert report.checks["limit-endpoint-drop"] > 0


def test_axiom_report_catches_seeded_breakage():
    t = make_tree("w^2", e_budget=8)
    report = tree_axiom_report(t, depth=2, sample_points=[parse("w^2") + 0])
    assert not report.ok  # the sample lies outside the root
    assert any("endpoint-realized" in f for f in report.failures)


@given(st.integers(0, 7), st.integers(0, 30), st.integers(0, 4))
def test_locate_contains_and_nests(a, b, depth):
    t = make_tree("w^2", e_budget=8)
    alpha = Ordinal(((from_int(1), a),)) + b if a else from_int(b)
    try:
        chain = [t.locate(alpha, d) for d in range(depth + 1)]
    except BudgetExceededError:
        return
    for node in chain:
        assert node.contains(alpha)
    for outer, inner in zip(chain, chain[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


@given(st.integers(0, 7), st.integers(0, 7))
def test_orbit_strictly_below(a, b):
    t = make_tree("w^2", e_budget=8)
    alpha = Ordinal(((from_int(1), a),)) + b if a else from_int(b)
    orb = t.orbit(alpha)
    assert all(x < alpha for x in orb)
    assert list(orb) == sorted(set(orb))


def test_e_set_strictly_increasing_inside():
    t = IntervalTree(Params(eta=parse("w^3"), e_budget=10))
    for node in [t.root, iv("w^2", "w^2*2"), iv("w", "w*2"), iv("w^2*2", "w^2*3")]:
        marks = t.e_set(node)
        assert marks[0] == node.lo
        assert all(x < y for x, y in zip(marks, marks[1:]))
        assert all(node.contains(m) for m in marks)


def test_dump_shape():
    t = make_tree("w^2", e_budget=2)
    text = t.dump(2)
    lines = text.splitlines()
    assert lines[0].startswith("I=[0, w^2) depth=0 E=[0, w, w*2]")
    assert any(line.strip().startswith("I=[w, w*2) depth=1") for line in lines)
    assert all("E=[" in line for line in lines)


def _grid_points(a_max: int, b_max: int):
    return [
        Ordinal(((from_int(1), a),)) + b if a else from_int(b)
        for a in range(a_max)
        for b in range(b_max)
    ]


def test_warm_memos_answer_like_a_fresh_tree():
    warm = make_tree("w^2", e_budget=8)
    points = _grid_points(8, 8)
    # past the last root marker, w*8, and past eta
    past = [parse("w*8 + 1"), parse("w*9"), warm.params.eta]
    pairs = [(x, y) for x in points for y in points + [warm.params.eta] if x < y]
    rng = random.Random(11)
    for _ in range(3):
        for alpha in rng.sample(points, len(points)):
            warm.locate(alpha, rng.randrange(6))
            warm.orbit(alpha)
            warm.orbit_set(alpha)
            warm.path(alpha)
        for beta in rng.sample(points + past, len(points + past)):
            outcome(_marker_membership, warm, beta)
        for alpha, beta in rng.sample(pairs, len(pairs) // 2):
            warm.j_and_J(alpha, beta)

    def fresh():
        return make_tree("w^2", e_budget=8)

    for alpha in points:
        assert warm.orbit(alpha) == fresh().orbit(alpha)
        assert warm.path(alpha) == fresh().path(alpha)
        assert [warm.locate(alpha, k) for k in range(6)] == [
            fresh().locate(alpha, k) for k in range(6)
        ]
        orbit = fresh().orbit(alpha)
        assert [b in warm.orbit_set(alpha) for b in points] == [b in orbit for b in points]
    for beta in points + past:
        want = outcome(full_marker_membership, fresh(), beta)
        assert outcome(_marker_membership, warm, beta) == want
    for alpha, beta in pairs:
        assert warm.j_and_J(alpha, beta) == fresh().j_and_J(alpha, beta)


def test_path_returns_a_fresh_list_each_call():
    t = make_tree("w^2")
    alpha = parse("w*2 + 5")
    first = t.path(alpha)
    expected = list(first)
    first.append(t.root)
    first[0] = iv("w", "w*2")
    assert t.path(alpha) == expected
    t.path(alpha).clear()
    assert t.path(alpha) == expected
    assert t.orbit(alpha) == make_tree("w^2").orbit(alpha)


def test_failed_navigation_raises_again_when_repeated():
    capped = make_tree("w^2", depth_cap=1)
    deep = make_tree("w^3", e_budget=8, depth_cap=0)
    small = make_tree("w^2", e_budget=8)
    past = parse("w*9")
    calls = [
        (DepthCapError, lambda: capped.path(parse("w*2 + 5"))),
        (DepthCapError, lambda: capped.orbit(parse("w*2 + 5"))),
        (DepthCapError, lambda: deep.j_and_J(parse("w^2 + w + 1"), parse("w^2 + w + 2"))),
        (BudgetExceededError, lambda: small.path(past)),
        (BudgetExceededError, lambda: small.orbit(past)),
        (BudgetExceededError, lambda: small.j_and_J(past, past + 1)),
        (BudgetExceededError, lambda: small.j_and_J(past, small.params.eta)),
    ]
    for _ in range(3):
        for error, call in calls:
            with pytest.raises(error):
                call()


def test_n_of_stops_at_the_depth_cap_as_path_does():
    t = IntervalTree(Params(parse("w^2")), depth_cap=1)
    with pytest.raises(DepthCapError):
        t.n_of(parse("w*3 + 20"))
    with pytest.raises(DepthCapError):
        t.path(parse("w*3 + 20"))


@st.composite
def prefix_questions(draw):
    """(params, questions) for the tree's prefix queries: orbits, orbit
    memberships, paths, locations at a depth and root memberships of any
    ordinal, steps from a node at an ordinal at or above its start, and
    interval data of a limit-ended node.  The ordinals sit on the nodes'
    markers, just above them, past them, past eta, or anywhere."""
    kappa_w = draw(st.integers(2, 4))
    params = Params(
        draw(limit_ordinals()), kappa_w=kappa_w, lambda_w=kappa_w + 3,
        e_budget=draw(st.integers(2, 20)),
    )
    full = IntervalTree(params)
    nodes = [full.root] + full.children(full.root)
    nodes += [kid for node in nodes[1:4] if not node.is_singleton for kid in full.children(node)]

    def near(node):
        return st.sampled_from(sorted({m + d for m in full.e_set(node) for d in (ZERO, ONE)}))

    def ordinal(*pools):
        return st.one_of(near(full.root), st.sampled_from([params.eta, params.eta + ONE]),
                         deep_ordinals(), *pools)

    def step(node):
        return st.tuples(st.just("step"), st.just(node), ordinal(near(node)))

    def interval(node):
        levels = st.lists(ordinal(near(node)), max_size=4).map(lambda bs: tuple(sorted(set(bs))))
        return st.tuples(st.just("interval"), st.just(node), levels)

    kinds = [
        st.tuples(st.just("orbit"), ordinal()),
        st.tuples(st.just("in-orbit"), ordinal(), ordinal()),
        st.tuples(st.just("path"), ordinal()),
        st.tuples(st.just("locate"), ordinal(), st.integers(-1, 6)),
        st.tuples(st.just("member"), ordinal()),
        st.sampled_from(nodes).flatmap(step),
        st.sampled_from([n for n in nodes if n.hi.is_limit]).flatmap(interval),
    ]
    return params, draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))


def _ask(tree, question, oracle=False):
    kind, *args = question
    if kind == "orbit":
        return outcome(full_orbit if oracle else IntervalTree.orbit, tree, *args)
    if kind == "in-orbit":
        beta, alpha = args
        orbit = full_orbit if oracle else IntervalTree.orbit_set
        return outcome(lambda: beta in orbit(tree, alpha))
    if kind == "path":
        return outcome(full_path if oracle else IntervalTree.path, tree, *args)
    if kind == "locate":
        return outcome(full_locate if oracle else IntervalTree.locate, tree, *args)
    if kind == "member":
        return outcome(full_marker_membership if oracle else _marker_membership, tree, *args)
    if kind == "step":
        node, alpha = args
        alpha = alpha if node.lo <= alpha else node.lo
        return outcome(full_step if oracle else IntervalTree._step, tree, node, alpha)
    if oracle:
        return outcome(full_interval_data, tree, *args)
    return outcome(_interval_data, tree, *args, {})


@settings(max_examples=200)
@given(case=prefix_questions(), data=st.data())
def test_prefix_queries_answer_like_the_full_marker_oracles(case, data):
    params, questions = case
    oracle = IntervalTree(params)
    expected = [_ask(oracle, q, oracle=True) for q in questions]
    assert [_ask(IntervalTree(params), q) for q in questions] == expected
    warm = IntervalTree(params)
    for i in data.draw(st.permutations(range(len(questions)))):
        assert _ask(warm, questions[i]) == expected[i], questions[i]
    for i in reversed(range(len(questions))):
        assert _ask(warm, questions[i]) == expected[i], questions[i]


def test_a_huge_budget_costs_only_the_markers_read():
    t = make_tree("w^2", e_budget=10**6)
    with wall_clock(5):
        assert t.orbit(parse("w*3")) == tuple(parse(s) for s in ["0", "w", "w*2"])
        assert t.j_and_J(parse("w*3"), parse("w*5")) == (0, iv("w*3", "w*4"))
        for alpha in ("w^2", "w^w"):
            with pytest.raises(BudgetExceededError, match="lies past the materialized"):
                t.orbit(parse(alpha))
