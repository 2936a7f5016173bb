"""Amalgamation layer: sunflowers, separated families, both dialect
amalgams, the push/pull pipeline, and their failure modes."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from .conftest import outcome, wall_clock
from .corpus import (
    broken_mirror,
    eta_inputs,
    flat_F,
    kappa_instance,
    kappa_tree,
    level_sharing_family,
    mirror_of,
    missing_pull_back,
    omega_hypotheses_pair,
    omega_instance,
    omega_tree,
    order_mismatch_family,
    root_level_family,
    root_moving_family,
)
from .oracles import (
    naive_check_adequate,
    naive_deficient,
    naive_eta_base,
    naive_eta_search,
    naive_first_deficient,
    naive_pairing_clauses,
    naive_pull_back,
    naive_push_down,
    naive_r2_report,
    naive_separated_report,
    naive_sunflower,
    naive_tag_of,
    naive_validate,
    omega_cross_filter,
)
from scatterlab import amalgam
from scatterlab.amalgam import (
    AmalgamError,
    EquivalenceStamp,
    FGapError,
    HypothesisViolationError,
    InfeasibleTargetError,
    MaxUndefinedError,
    RefineError,
    SearchExhaustedError,
    SeparatedFamily,
    _first_deficient,
    _pairing_clauses,
    _tag_of,
    amalgamate_eta,
    amalgamate_kappa,
    amalgamate_omega,
    canonical_pairing,
    check_adequate,
    delta_root,
    equivalence_stamp,
    kerneldown_check,
    pull_back,
    push_down,
    r2_report,
    separated_refine,
    separated_report,
)
from scatterlab.conditions import (
    TOP,
    Point,
    leq,
    make_condition,
    point_key,
    validate,
    violations_touching,
)
from scatterlab.intervals import (
    BudgetExceededError,
    DepthCapError,
    Interval,
    IntervalTree,
    Params,
    TreeError,
)
from scatterlab.ordinals import ONE, parse
from scatterlab.unbounded import UnboundedFn


@pytest.fixture(autouse=True)
def fail_fast():
    """Every test here answers within 30 s, well above the slowest one's
    few seconds, so a tree walk that stops advancing fails its test
    instead of hanging the file."""
    with wall_clock(30):
        yield


def pt(level, xi=0):
    return Point(TOP if level == "top" else parse(level), xi)


def assert_rebuilt(cond, want):
    """`cond` equals `want`, built by `make_condition`, down to the order
    index: the same strict pairs, sorted points, masks and level masks."""
    assert cond == want and cond.strict == want.strict
    got, ref = cond.core(), want.core()
    assert (got.pts, got.index, got.up, got.down) == (ref.pts, ref.index, ref.up, ref.down)
    assert got.levels == ref.levels


@pytest.fixture(scope="module")
def ktree():
    return kappa_tree()


@pytest.fixture(scope="module")
def otree():
    return omega_tree()


# --- sunflower extraction ------------------------------------------------------


def test_sunflower_frozen_example():
    sub, root = delta_root([{1, 2}, {1, 3}, {1, 4}, {2, 3}], 3)
    assert root == {1}
    assert sorted(sorted(s) for s in sub) == [[1, 2], [1, 3], [1, 4]]


def test_sunflower_identical_sets():
    sub, root = delta_root([{5, 6}] * 4, 4)
    assert len(sub) == 4 and root == {5, 6}


def test_sunflower_singleton_family():
    sub, root = delta_root([{7, 8}], 1)
    assert sub == [frozenset({7, 8})] and root == {7, 8}


def test_sunflower_target_past_the_family_size():
    with pytest.raises(InfeasibleTargetError) as err:
        delta_root([{1}, {2}], 3)
    assert str(err.value) == "target 3 exceeds family size 2"
    assert err.value.best == [] and err.value.root == frozenset()


def test_sunflower_infeasible_carries_best():
    with pytest.raises(InfeasibleTargetError) as err:
        delta_root([{1, 2}, {1, 3}, {1, 4}, {2, 3}], 4)
    assert len(err.value.best) == 3 and err.value.root == {1}


def test_sunflower_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 7)
        sets = [
            frozenset(rng.sample(range(8), rng.randint(0, 4))) for _ in range(n)
        ]
        want, _ = naive_sunflower(sets)
        sub, root = delta_root(sets, 1)
        assert len(sub) == want
        for a, b in itertools.combinations(sub, 2):
            assert a & b == root


def test_sunflower_greedy_scale():
    sets = [frozenset({0, 1}) | {10 + i} for i in range(30)]
    sub, root = delta_root(sets, 30)
    assert len(sub) == 30 and root == {0, 1}


@settings(max_examples=200, deadline=None)
@given(sets=st.lists(st.frozensets(st.integers(0, 11), max_size=5), min_size=2, max_size=26))
def test_two_or_more_sets_give_a_sunflower_of_at_least_two(sets):
    # the root sets[0] & sets[1] leaves those two with disjoint petals, on
    # the exact branch (below 20 sets) and the greedy one alike
    sub, root = delta_root(sets, 2)
    assert len(sub) >= 2
    assert all(a & b == root for a, b in itertools.combinations(sub, 2))


# --- adequacy ------------------------------------------------------------------


def test_adequate_identity_is_clean():
    pts = [pt("w", 0), pt("w*2", 1), pt("top", 0)]
    assert check_adequate({p: p for p in pts}) == []


def test_adequate_clause_names():
    a, b = pt("w", 0), pt("w*2", 0)
    z0, z1 = pt("top", 0), pt("top", 1)
    # crossing the top boundary
    assert any("strata" in c for c in check_adequate({a: z0}))
    # reordering levels
    bad = check_adequate({a: pt("w*3", 0), b: pt("w", 0)})
    assert any("level-order" in c for c in bad)
    # moving a column below top
    assert any("column-preserved" in c for c in check_adequate({a: pt("w", 2)}))
    # swapping top columns
    swap = check_adequate({z0: z1, z1: z0})
    assert any("top-column-order" in c for c in swap)
    # collapsing two points
    squash = check_adequate({a: pt("w*3", 0), b: pt("w*3", 0)})
    assert any("injective" in c for c in squash)


ADEQUACY_LEVELS = [parse(x) for x in ("1", "w", "w + 1", "w*2", "w*3")]
ADEQUACY_CELLS = [Point(lv, xi) for lv in ADEQUACY_LEVELS for xi in range(3)]
ADEQUACY_CELLS += [Point(TOP, xi) for xi in range(4)]


@st.composite
def adequacy_maps(draw):
    """A map between grid points: a relabelling of its domain that keeps
    strata, level order and columns, with up to three edits, each one a
    random image, two points sent to one image, a point sent across the
    top boundary, a level tie, two images swapped (top columns reordered
    when both are tops) or a column moved."""
    dom = sorted(
        draw(st.lists(st.sampled_from(ADEQUACY_CELLS), min_size=1, max_size=7, unique=True)),
        key=point_key,
    )
    old = sorted({x.level for x in dom if not x.is_top})
    new = draw(st.lists(st.sampled_from(ADEQUACY_LEVELS), min_size=len(old), max_size=len(old), unique=True))
    level = dict(zip(old, sorted(new)))
    tops = [x for x in dom if x.is_top]
    cols = draw(st.lists(st.integers(0, 5), min_size=len(tops), max_size=len(tops), unique=True))
    g = {x: Point(level[x.level], x.xi) for x in dom if not x.is_top}
    g.update((x, Point(TOP, c)) for x, c in zip(tops, sorted(cols)))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["any", "merge", "cross", "tie", "swap", "column"]))
        s, t = draw(st.sampled_from(dom)), draw(st.sampled_from(dom))
        if edit == "any":
            g[s] = draw(st.sampled_from(ADEQUACY_CELLS))
        elif edit == "merge":
            g[s] = g[t]
        elif edit == "cross":
            g[s] = Point(ADEQUACY_LEVELS[0] if g[s].is_top else TOP, g[s].xi)
        elif edit == "tie":
            g[s] = Point(g[t].level, g[s].xi)
        elif edit == "swap":
            g[s], g[t] = g[t], g[s]
        else:
            g[s] = Point(g[s].level, g[s].xi + 1)
    return g


def test_adequacy_names_what_the_pairwise_oracle_names():
    """`check_adequate` accepts a clean map in one pass and names a bad
    one's clauses by comparing every pair; both give `naive_check_adequate`'s
    list exactly, clean maps and each kind of break alike."""
    seen = set()

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(adequacy_maps())
    def judge(g):
        got = check_adequate(g)
        assert got == naive_check_adequate(g)
        seen.update(line.split(":")[0] for line in got)
        seen.add("clean" if not got else "broken")

    judge()
    assert seen == {
        "clean", "broken", "strata", "level-order", "top-column-order", "column-preserved"
    }


def test_adequacy_of_two_points_whose_one_pair_is_reordered():
    """The one-pass acceptance compares each point and its image with the
    last ones: a level tie sent apart either way, two levels sent to one
    and two top columns swapped are each refused, and named by comparing
    every pair."""
    cases = [
        ({pt("w", 0): pt("w", 0), pt("w", 1): pt("w*2", 1)}, "level-order: ((w, 0), (w, 1))"),
        ({pt("w", 0): pt("1", 0), pt("w", 1): pt("w", 1)}, "level-order: ((w, 0), (w, 1))"),
        ({pt("w", 0): pt("w", 0), pt("w*2", 1): pt("w", 1)}, "level-order: ((w, 0), (w*2, 1))"),
        ({pt("top", 0): pt("top", 2), pt("top", 1): pt("top", 1)}, "top-column-order: ((TOP, 0), (TOP, 1))"),
    ]
    for g, pair in cases:
        assert check_adequate(g) == naive_check_adequate(g) == [f"{pair} reordered"]


def test_pairings_are_judged_as_the_point_pair_oracle_judges_them(ktree):
    """`_pairing_clauses` moves rows and meets by position; it gives
    `naive_pairing_clauses`'s list exactly, over the canonical pairing and
    random bijections of `kappa_instance` members, raw and pushed down,
    each with the other and with itself."""
    members = []
    for seed in range(30):
        r_nu, r_mu, pp, qq = eta_inputs(ktree, seed)[:4]
        members += [(r_nu, r_mu), (pp, qq), (qq, pp), (r_nu, r_nu)]
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(pair=st.sampled_from(members), canonical=st.booleans(), data=st.data())
    def judge(pair, canonical, data):
        p, q = pair
        image = q.sorted_points()
        if not canonical:
            image = data.draw(st.permutations(image))
        h = dict(zip(p.sorted_points(), image))
        root = p.points & q.points
        got = _pairing_clauses(p, q, h, root)
        assert got == naive_pairing_clauses(p, q, h, root)
        seen.update(line.split(":")[0] for line in got)
        seen.add("clean" if not got else "broken")

    judge()
    assert {"clean", "broken", "root-fixing", "order", "meets", "level-order"} <= seen


def test_canonical_pairing_requires_matching_strata():
    p = make_condition("kappa", [pt("w"), pt("top")])
    q = make_condition("kappa", [pt("top")])
    with pytest.raises(AmalgamError):
        canonical_pairing(p, q)


# --- separated families ----------------------------------------------------------


def two_member_family(ktree, seed=0):
    rng = random.Random(seed)
    r_nu, r_mu, zn, zm, F = kappa_instance(ktree, rng)
    pp, _ = push_down(r_nu, zn, ktree)
    qq, _ = push_down(r_mu, zm, ktree)
    pairing = canonical_pairing(pp, qq)
    fam = SeparatedFamily((pp, qq), pp.points & qq.points, {(0, 1): pairing})
    return fam, F


def test_separated_report_clean(ktree):
    fam, _ = two_member_family(ktree)
    assert separated_report(fam) == []


def test_separated_report_flags_level_sharing(ktree):
    eps = ktree.root_eps()
    u = Point(eps[1], 0)
    a = make_condition("kappa", [u, Point(eps[5], 0)], [(u, Point(eps[5], 0))])
    b = make_condition("kappa", [u, Point(eps[5], 1)], [(u, Point(eps[5], 1))])
    fam = SeparatedFamily(
        (a, b), frozenset({u}), {(0, 1): canonical_pairing(a, b)}
    )
    report = separated_report(fam)
    assert any("level-sharing" in line for line in report)
    assert any("column-preserved" in line for line in report)


def test_separated_report_flags_order_mismatch(ktree):
    eps = ktree.root_eps()
    u, s1, s2 = Point(eps[1], 0), Point(eps[5], 0), Point(eps[6], 0)
    a = make_condition("kappa", [u, s1], [(u, s1)], complete=True)
    b = make_condition("kappa", [u, s2], [], complete=True)
    fam = SeparatedFamily(
        (a, b), frozenset({u}), {(0, 1): canonical_pairing(a, b)}
    )
    assert any("order" in line for line in separated_report(fam))


def test_separated_report_names_delta_level_sharing_and_bijection_findings(ktree):
    eps = ktree.root_eps()
    u, x, y, z = Point(eps[1], 0), Point(eps[3], 0), Point(eps[1], 1), Point(eps[3], 1)
    a = make_condition("kappa", [u, x, y])
    b = make_condition("kappa", [u, x, z])
    fam = SeparatedFamily((a, b), frozenset({u}), {(0, 1): {}})
    assert separated_report(fam) == naive_separated_report(fam) == [
        "delta: members 0,1 intersect off-root",
        "level-sharing: member 0 adds (w, 1) at a root level",
        "level-sharing: level w*3 used by members 0,1",
        "level-sharing: level w*3 used by members 0,1",
        "bijection: pairing 0,1 has wrong domain or range",
    ]


def test_separated_report_lists_points_in_key_order():
    fam = root_level_family()
    assert separated_report(fam) == naive_separated_report(fam) == [
        f"level-sharing: member 0 adds {x} at a root level"
        for x in ("(w, 1)", "(w, 2)", "(w*2, 1)", "(w*2, 2)")
    ]
    fam = root_moving_family()
    assert separated_report(fam) == naive_separated_report(fam)
    assert [line for line in separated_report(fam) if "root-fixing" in line] == [
        f"pair 0,1 root-fixing: moves ({level}, 0)" for level in ("w", "w*2", "w*3", "w*4")
    ]


def test_pairing_of_a_member_with_itself_and_of_a_reversed_pair():
    fam = root_moving_family()
    root = sorted(fam.root, key=point_key)
    assert list(fam.pairing(0, 0).items()) == [(x, x) for x in root]
    back = fam.pairing(1, 0)
    assert back == {root[(k + 1) % 4]: x for k, x in enumerate(root)}
    assert all(back[fam.pairing(0, 1)[x]] is x for x in root)


def test_separated_refine_groups_compatible_shape(ktree):
    eps = ktree.root_eps()
    u = Point(eps[1], 0)
    members = []
    for k in range(4):
        s = Point(eps[4 + k], 0)
        rel = [(u, s)] if k != 3 else []
        members.append(make_condition("kappa", [u, s], rel, complete=True))
    fam = separated_refine(members, 3)
    assert len(fam.members) == 3
    assert fam.root == {u}
    assert separated_report(fam) == []
    with pytest.raises(RefineError) as err:
        separated_refine(members, 4)
    assert err.value.report


def test_separated_refine_drops_level_reuse(ktree):
    eps = ktree.root_eps()
    u = Point(eps[1], 0)
    s_lvl = eps[5]
    a = make_condition("kappa", [u, Point(s_lvl, 0)], [(u, Point(s_lvl, 0))])
    b = make_condition("kappa", [u, Point(s_lvl, 1)], [(u, Point(s_lvl, 1))])
    c = make_condition("kappa", [u, Point(eps[6], 0)], [(u, Point(eps[6], 0))])
    fam = separated_refine([a, b, c], 2)
    # one of the level-sharing twins must have been dropped
    assert len(fam.members) == 2


def test_separated_refine_refuses_an_empty_family():
    with pytest.raises(RefineError) as err:
        separated_refine([], 1)
    assert str(err.value) == "empty family" and err.value.report == ["no members"]


def test_separated_refine_refuses_mixed_dialects(ktree):
    u = Point(ktree.root_eps()[1], 0)
    family = [make_condition("omega", [u]), make_condition("kappa", [u])]
    with pytest.raises(RefineError) as err:
        separated_refine(family, 1)
    assert str(err.value) == "mixed dialects"
    assert err.value.report == ["dialects ['kappa', 'omega']"]


def is_subsequence(members, family):
    rest = iter(family)
    return all(any(m is x for x in rest) for m in members)


def test_separated_refine_keeps_input_order(ktree):
    # amalgamate_kappa relies on this to read the family as (pp, qq)
    for seed in range(60):
        fam, _ = two_member_family(ktree, seed)
        pp, qq = fam.members
        refined = separated_refine([pp, qq], 2)
        assert refined.members[0] is pp and refined.members[1] is qq
        assert refined.pairing(0, 1) == canonical_pairing(pp, qq)
    eps = ktree.root_eps()
    u = Point(eps[1], 0)
    members = [
        make_condition("kappa", [u, Point(eps[4 + k], 0)], [(u, Point(eps[4 + k], 0))])
        for k in range(3)
    ]
    members.insert(1, make_condition("kappa", [u, Point(eps[8], 0)]))
    fam = separated_refine(members, 3)
    assert len(fam.members) == 3 and is_subsequence(fam.members, members)
    twins = [
        make_condition("kappa", [u, Point(eps[5], 0)], [(u, Point(eps[5], 0))]),
        make_condition("kappa", [u, Point(eps[5], 1)], [(u, Point(eps[5], 1))]),
        make_condition("kappa", [u, Point(eps[6], 0)], [(u, Point(eps[6], 0))]),
    ]
    fam = separated_refine(twins, 2)
    assert is_subsequence(fam.members, twins)


def refine_families(ktree):
    """(family, target) pairs of two and three members: seeded pushed pairs,
    seeded pairs with a third pushed member from another seed, members
    over one root point of which all but one share a shape, and level
    twins."""
    out = []
    for seed in range(12):
        fam, _ = two_member_family(ktree, seed)
        other, _ = two_member_family(ktree, seed + 12)
        out.append((list(fam.members), 2))
        out += [(list(fam.members) + [other.members[k]], t) for k in (0, 1) for t in (2, 3)]
    eps = ktree.root_eps()
    u = Point(eps[1], 0)
    shaped = [
        make_condition("kappa", [u, Point(eps[4 + k], 0)], [(u, Point(eps[4 + k], 0))] if k != 1 else [])
        for k in range(4)
    ]
    out += [(shaped, 3), (shaped, 4), (shaped[1:], 2), (shaped[1:], 3)]
    twins = [make_condition("kappa", [u, Point(eps[5], k)], [(u, Point(eps[5], k))]) for k in (0, 1)]
    out += [(twins, 2), (twins + [shaped[0]], 2)]
    return out


def assert_clean_refinement(fam):
    """`fam` passes both reports, and its bijections are the canonical
    pairings: those from the first member judged by the grouping, the rest
    composed from them."""
    assert separated_report(fam) == naive_separated_report(fam) == []
    m = fam.members
    pairs = itertools.combinations(range(len(m)), 2)
    assert fam.bijections == {(i, j): canonical_pairing(m[i], m[j]) for i, j in pairs}


def test_every_refined_family_passes_the_report_it_is_not_judged_by(ktree):
    """`separated_refine` returns its family unjudged, and every family it
    returns is clean."""
    outcomes = set()
    for family, target in refine_families(ktree):
        try:
            fam = separated_refine(family, target)
        except RefineError as err:
            outcomes.add(err.args[0])
            continue
        outcomes.add(len(fam.members))
        assert_clean_refinement(fam)
    assert {2, 3, "refinement fell short"} <= outcomes


@pytest.fixture(scope="module")
def refine_pool(ktree):
    """Every member of `refine_families`, once each."""
    pool = []
    for family, _ in refine_families(ktree):
        pool += [m for m in family if not any(m is x for x in pool)]
    return pool


@settings(max_examples=150, deadline=None)
@given(picks=st.lists(st.integers(0, 999), min_size=1, max_size=6), target=st.integers(1, 4))
def test_refined_families_of_drawn_members_pass_the_report(refine_pool, picks, target):
    family = [refine_pool[k % len(refine_pool)] for k in picks]
    try:
        fam = separated_refine(family, target)
    except RefineError:
        return
    assert_clean_refinement(fam)


def test_kerneldown_clean(ktree):
    fam, _ = two_member_family(ktree)
    assert kerneldown_check(fam) is None


def test_kerneldown_counterexample(ktree):
    eps = ktree.root_eps()
    a, b = Point(eps[2], 0), Point(eps[3], 0)
    v = Point(eps[1], 0)
    member = make_condition(
        "kappa", [a, b, v], [(v, a), (v, b)], complete=True
    )
    fam = SeparatedFamily(
        (member,), frozenset({a, b}), {}
    )
    hit = kerneldown_check(fam)
    assert hit is not None
    idx, pair, value = hit
    assert idx == 0 and set(pair) == {a, b} and value == {v}


def test_kerneldown_skips_a_root_pair_of_two_tops(ktree):
    # the tops meet at v, off the root, which a sub-top root pair may not
    v, z0, z1 = Point(ktree.root_eps()[1], 0), Point(TOP, 0), Point(TOP, 1)
    member = make_condition("kappa", [v, z0, z1], [(v, z0), (v, z1)], complete=True)
    assert member.meet(z0, z1) == {v}
    assert kerneldown_check(SeparatedFamily((member,), frozenset({z0, z1}))) is None


# --- omega amalgamation -----------------------------------------------------------


def test_omega_amalgam_corpus(otree):
    for seed in range(60):
        rng = random.Random(seed)
        p, q, root, F = omega_instance(otree, rng)
        r = amalgamate_omega(p, q, root, F, otree)
        assert leq(r, p) and leq(r, q)
        assert validate(r, otree, F) == []
        for key, want in omega_cross_filter(p, q, root).items():
            x, y = tuple(key)
            assert r.meet(x, y) == want


def test_omega_amalgam_rejects_root_mismatch(otree):
    rng = random.Random(3)
    p, q, root, F = omega_instance(otree, rng)
    with pytest.raises(HypothesisViolationError):
        amalgamate_omega(p, q, root | {pt("w*11", 2)}, F, otree)


def test_omega_amalgam_refuses_a_kappa_member(otree):
    rng = random.Random(3)
    p, q, root, F = omega_instance(otree, rng)
    kappa = make_condition("kappa", q.points, q.strict, q.meet_table())
    with pytest.raises(HypothesisViolationError) as err:
        amalgamate_omega(p, kappa, root, F, otree)
    assert str(err.value) == "both members must use the omega dialect"


def test_omega_amalgam_rejects_level_sharing(otree):
    eps = otree.root_eps()
    u, z = Point(eps[0], 0), Point(TOP, 0)
    root = frozenset({u, z})
    x1, x2 = Point(eps[3], 0), Point(eps[3], 1)
    p = make_condition("omega", [u, z, x1], [(u, z), (u, x1), (x1, z)], complete=True)
    q = make_condition("omega", [u, z, x2], [(u, z), (u, x2), (x2, z)], complete=True)
    F = flat_F(otree, otree.params.lambda_w, 12)
    with pytest.raises(HypothesisViolationError) as err:
        amalgamate_omega(p, q, root, F, otree)
    assert any("level-sharing" in d for d in err.value.details)


def test_omega_amalgam_hypothesis_details_list_points_in_key_order():
    p, q, root, F, tree = omega_hypotheses_pair()
    with pytest.raises(HypothesisViolationError) as err:
        amalgamate_omega(p, q, root, F, tree)
    assert err.value.details == [
        "level-sharing: members reuse a sub-top level",
        "first member adds (0, 1) at a root level",
        "initial-segment: first member point (w, 0) below root top level",
        "initial-segment: first member point (w, 1) below root top level",
        "first member adds (w*2, 1) at a root level",
        "second member adds (0, 2) at a root level",
        "initial-segment: second member point (w, 2) below root top level",
        "second member adds (w*2, 2) at a root level",
    ]


def test_omega_amalgam_fgap(otree):
    for seed in range(30):
        rng = random.Random(seed)
        p, q, root, F = omega_instance(otree, rng)
        if not any(x.is_top and x not in root for x in p.points):
            continue
        if not any(x.is_top and x not in root for x in q.points):
            continue
        low = flat_F(otree, otree.params.lambda_w, 0)
        with pytest.raises(FGapError):
            amalgamate_omega(p, q, root, low, otree)


def test_omega_amalgam_fgap_names_the_first_failing_column_pair(otree):
    # tops 0, 1 against 2, 3 over a root at w: F(0,2) = w*2 clears the gap,
    # F(0,3) = w is the first pair in column order that does not
    eps = otree.root_eps()
    u = Point(eps[1], 0)
    tops = [Point(TOP, xi) for xi in range(4)]
    p = make_condition("omega", [u] + tops[:2], [(u, t) for t in tops[:2]], complete=True)
    q = make_condition("omega", [u] + tops[2:], [(u, t) for t in tops[2:]], complete=True)
    lam = otree.params.lambda_w
    entries = {(i, j): 2 for i in range(lam) for j in range(i + 1, lam)}
    entries.update({(0, 3): 1, (1, 2): 0})
    with pytest.raises(FGapError) as err:
        amalgamate_omega(p, q, frozenset({u}), UnboundedFn(lam, eps, entries), otree)
    assert str(err.value) == "F(0,3) = w not above root top level w"


# --- interval stamps ---------------------------------------------------------------


def test_stamp_frozen_windows(ktree):
    fam, _ = two_member_family(ktree, seed=1)
    stamps = equivalence_stamp(fam, ktree)
    eps = ktree.root_eps()
    root_iv = Interval(parse("0"), ktree.params.eta)
    assert root_iv in stamps.intervals
    assert stamps.xi_of[root_iv] == 3
    assert stamps.d_of[root_iv] == (eps[3], eps[4], eps[5])
    assert stamps.gamma_of[root_iv] == eps[6]
    assert stamps.gamma == eps[5] + ONE
    # points at root-marker levels carry singleton tags; everything else
    # shares the full root window
    for p, iv in stamps.tags.items():
        if p.level in stamps.root_levels:
            assert iv.is_singleton and iv.lo == p.level
        else:
            assert iv == root_iv


def test_stamp_rejects_top_points(ktree):
    z = Point(TOP, 0)
    cond = make_condition("kappa", [z])
    fam = SeparatedFamily((cond,), frozenset(), {})
    with pytest.raises(HypothesisViolationError):
        equivalence_stamp(fam, ktree)


def test_stamp_rejects_mismatched_tags(ktree):
    eps = ktree.root_eps()
    u = Point(eps[1], 0)
    a = make_condition("kappa", [u, Point(eps[4], 0)], [(u, Point(eps[4], 0))])
    b = make_condition("kappa", [u, Point(eps[5], 0)], [(u, Point(eps[5], 0))])
    fam = SeparatedFamily(
        (a, b), frozenset({u}), {(0, 1): canonical_pairing(a, b)}
    )
    # both member points sit below the root window, so their tags are
    # different singletons
    with pytest.raises(HypothesisViolationError):
        equivalence_stamp(fam, ktree)


def test_stamp_intervals_are_the_tags_of_the_first_member(ktree):
    """The stamp's intervals and windows are those of the first member's
    tags, even where a pairing left partial by its caller leaves another
    member's tags unchecked."""
    eps = ktree.root_eps()
    u, x = Point(eps[1], 0), Point(eps[5] + ONE, 0)
    a = make_condition("kappa", [u, x], [(u, x)], complete=True)
    b = make_condition("kappa", [u])
    root_iv, u_iv = Interval(parse("0"), ktree.params.eta), Interval(eps[1], eps[1] + ONE)
    for members, want in (((a, b), (root_iv, u_iv)), ((b, a), (u_iv,))):
        stamps = equivalence_stamp(SeparatedFamily(members, frozenset({u}), {(0, 1): {}}), ktree)
        assert stamps.intervals == want
        assert list(stamps.d_of) == [iv for iv in want if not iv.is_singleton]


def test_stamp_tags_match_the_walk_from_the_root(ktree):
    """Every tag equals `naive_tag_of`'s, which locates each depth afresh
    from the root: the stamped tags of `kappa_instance` pairs, and the tags
    and errors of a grid of levels on one warm tree, inside [0, eta) and
    outside it.  A depth cap the walk passes does not stop it."""
    for seed in range(0, 60, 2):
        stamps = eta_inputs(ktree, seed)[7]
        for s, tag in stamps.tags.items():
            assert tag == naive_tag_of(ktree, s.level, stamps.root_levels)
    deep = Params(parse("w^3"), kappa_w=3, lambda_w=8, e_budget=6)
    grids = [
        (ktree.params, [f"w*{a} + {b}" for a in range(1, 19) for b in range(0, 20, 3)]),
        (deep, [f"w^2*{a} + w*{b} + {c}" for a in (1, 2, 3) for b in range(1, 8) for c in (0, 5)]),
    ]
    for params, names in grids:
        warm, eta = IntervalTree(params), params.eta
        levels = [parse(name) for name in names] + [eta, eta + ONE]
        for root_levels in ((), warm.root_eps(4)[1:], (parse("w*2 + 7"),), (parse("w*15"),)):
            for alpha in levels:
                got = outcome(_tag_of, warm, alpha, root_levels, {})
                want = outcome(naive_tag_of, IntervalTree(params), alpha, root_levels)
                assert got == want, alpha
    for alpha in (eta, eta + ONE):
        assert outcome(_tag_of, warm, alpha, (), {}) == (
            TreeError, f"{alpha} is outside [0, {eta})"
        )
    capped, alpha = IntervalTree(ktree.params, depth_cap=1), parse("w + 2")
    with pytest.raises(DepthCapError):
        capped.path(alpha)
    assert _tag_of(capped, alpha, (), {}) == Interval(alpha, alpha + ONE)


def test_a_tag_judges_no_interval_below_one_its_level_starts():
    """w*2 starts [w*2, w*3), so its tag is its singleton.  Judging that
    interval too would count its markers up to the root level w*2 + 7,
    which takes more than e_budget = 6 of them."""
    params = Params(parse("w^2"), kappa_w=3, lambda_w=8, e_budget=6)
    tree, alpha, root_levels = IntervalTree(params), parse("w*2"), (parse("w*2 + 7"),)
    assert tree.locate(alpha, 1) == Interval(alpha, parse("w*3"))
    singleton = Interval(alpha, alpha + ONE)
    assert _tag_of(tree, alpha, root_levels, {}) == singleton
    assert naive_tag_of(IntervalTree(params), alpha, root_levels) == singleton
    with pytest.raises(BudgetExceededError):
        amalgam._interval_data(tree, tree.locate(alpha, 1), root_levels, {})


def test_a_tree_that_has_stamped_other_families_stamps_as_a_fresh_one():
    """Stamps are read from the tree's memo by (level, root levels): every
    field of a family's stamp on a tree that has stamped the other seeds'
    families, single members and swapped pairs is that of a fresh tree."""
    warm = kappa_tree()
    families = []
    for seed in range(30):
        _, _, pp, qq, _, _, pairing, _, _ = eta_inputs(warm, seed)
        root = pp.points & qq.points
        families.append(SeparatedFamily((pp, qq), root, {(0, 1): pairing}))
        families.append(SeparatedFamily((qq, pp), root, {(0, 1): canonical_pairing(qq, pp)}))
        families.append(SeparatedFamily((qq,), frozenset(), {}))
    for fam in families:
        equivalence_stamp(fam, warm)
    for fam in families:
        got = equivalence_stamp(fam, warm)
        want = equivalence_stamp(fam, kappa_tree())
        assert (got.tags, got.intervals, got.root_levels) == (want.tags, want.intervals, want.root_levels)
        assert (got.xi_of, got.gamma_of, got.d_of, got.gamma) == (
            want.xi_of, want.gamma_of, want.d_of, want.gamma
        )


def test_a_stamp_that_overruns_the_budget_is_kept_nowhere():
    """w*2 + 3 sits in [w*2, w*3), whose markers up to the root level
    w*2 + 7 overrun e_budget = 6: the stamp raises the same error twice,
    and the memo keeps only the level stamped before it, w."""
    params = Params(parse("w^2"), kappa_w=3, lambda_w=8, e_budget=6)
    tree = IntervalTree(params)
    u, s, w = pt("w*2 + 7"), pt("w*2 + 3"), pt("w")
    fam = SeparatedFamily((make_condition("kappa", [w, s, u]),), frozenset({u}), {})
    first = outcome(equivalence_stamp, fam, tree)
    assert first == (BudgetExceededError, "requested 8 markers of [w*2, w*3), budget is 7")
    assert outcome(equivalence_stamp, fam, tree) == first
    assert list(tree._stamps) == [(w.level, (u.level,))]


# --- push down ---------------------------------------------------------------------


def test_push_down_frozen(ktree):
    eps = ktree.root_eps()
    s, c, z = pt("w + 1"), pt("w*2"), pt("top")
    r = make_condition(
        "kappa",
        [s, c, z],
        [(s, c), (s, z), (c, z)],
        complete=True,
    )
    assert validate(r, ktree) == []
    pushed, g = push_down(r, 6, ktree)
    landed = Point(eps[6], 0)
    assert landed in pushed.points
    assert g[landed] == z
    assert g[s] == s and g[c] == c
    assert pushed.lt(s, landed) and pushed.lt(c, landed)
    assert pushed.meet(s, landed) == {s}
    assert validate(pushed, ktree) == []


def test_push_down_rejects_bad_zeta(ktree):
    r = make_condition("kappa", [pt("w"), pt("top")], [(pt("w"), pt("top"))])
    with pytest.raises(HypothesisViolationError):
        push_down(r, 7, ktree)  # not a multiple of the column budget
    with pytest.raises(HypothesisViolationError):
        push_down(r, 0, ktree)


def test_push_down_rejects_high_levels(ktree):
    r = make_condition(
        "kappa", [pt("w*5"), pt("top")], [(pt("w*5"), pt("top"))], complete=True
    )
    with pytest.raises(HypothesisViolationError) as err:
        push_down(r, 6, ktree)  # fence is eps[5] = w*5, not strictly above
    assert err.value.details == [pt("w*5")]


def test_push_down_rejects_top_overflow(ktree):
    tops = [Point(TOP, i) for i in range(4)]
    r = make_condition("kappa", tops)
    with pytest.raises(HypothesisViolationError):
        push_down(r, 6, ktree)


def push_source(ktree, source):
    """(r, zeta): a seeded pair's member and its push level, or a hand-built
    condition whose tops sit in the drawn columns, each above the root
    point u when its flag is set, with no sub-top point but u."""
    if source[0] == "seed":
        _, seed, side = source
        r_nu, r_mu, zn, zm, _ = kappa_instance(ktree, random.Random(seed))
        return (r_nu, zn) if side == 0 else (r_mu, zm)
    _, cols, flags = source
    u = Point(ktree.root_eps()[1], 0)
    tops = [Point(TOP, c) for c in cols]
    rel = [(u, z) for z, flag in zip(tops, flags) if flag]
    return make_condition("kappa", [u, *tops], rel, complete=True), 9


PUSH_SOURCES = st.one_of(
    st.tuples(st.just("seed"), st.integers(0, 59), st.integers(0, 1)),
    st.tuples(
        st.just("tops"),
        st.lists(st.integers(0, 7), max_size=3, unique=True),
        st.lists(st.booleans(), min_size=3, max_size=3),
    ),
)


@settings(max_examples=80, deadline=None)
@given(source=PUSH_SOURCES)
@example(source=("tops", [5, 2, 7], [True, False, True]))
@example(source=("tops", [], [False] * 3))
def test_push_down_renames_the_order_index_in_place(ktree, source):
    """The pushed condition is `make_condition`'s rebuild of the renamed
    parts, index and all, and a refusal names the rebuild's findings."""
    r, zeta = push_source(ktree, source)
    want, want_g = naive_push_down(r, zeta, ktree)
    try:
        pushed, g = push_down(r, zeta, ktree)
    except AmalgamError as err:
        found = "; ".join(str(v) for v in naive_validate(want, ktree))
        assert str(err) == f"push-down failed validation: {found}"
        return
    assert g == want_g
    assert_rebuilt(pushed, want)


def test_push_down_refuses_a_top_pair_that_meets_at_a_top(ktree):
    x, y, z = (Point(TOP, c) for c in range(3))
    r = make_condition("kappa", [x, y, z], (), {(x, y): [z]}, complete=True)
    with pytest.raises(AmalgamError) as err:
        push_down(r, 9, ktree)
    assert str(err.value) == (
        "push-down failed validation: meet-axiom [(w*9, 0), (w*9, 1)]: "
        "lower-bound set mismatch at {(w*9, 2)}"
    )


# --- grid amalgamation ----------------------------------------------------------


def test_eta_trivial_on_equal_inputs(ktree):
    _, _, pp, _, _, _, _, stamps, _ = eta_inputs(ktree, 0)
    res = amalgamate_eta(pp, pp, {s: s for s in pp.points}, stamps, ktree)
    assert res.condition == pp and res.fresh_points == ()


def test_eta_chain_root_needs_no_fresh_point(ktree):
    # chain-root shape: the root pair is comparable, so cross commons
    # already have a unique maximum
    for seed in range(80):
        rng = random.Random(seed)
        r_nu, r_mu, zn, zm, F = kappa_instance(ktree, rng)
        if not any(r_nu.comparable(a, b) for a, b in itertools.combinations(
            sorted(r_nu.points & r_mu.points, key=str), 2
        )):
            continue
        pp, _ = push_down(r_nu, zn, ktree)
        qq, _ = push_down(r_mu, zm, ktree)
        pairing = canonical_pairing(pp, qq)
        fam = SeparatedFamily((pp, qq), pp.points & qq.points, {(0, 1): pairing})
        stamps = equivalence_stamp(fam, ktree)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        assert res.fresh_points == ()
        return
    pytest.fail("no chain-root instance found")


def test_eta_anti_root_places_least_window_level(ktree):
    eps = ktree.root_eps()
    for seed in range(80):
        rng = random.Random(seed)
        r_nu, r_mu, zn, zm, F = kappa_instance(ktree, rng)
        root = r_nu.points & r_mu.points
        subtop = [x for x in root if not x.is_top]
        if any(r_nu.comparable(a, b) for a, b in itertools.combinations(subtop, 2)):
            continue
        pp, _ = push_down(r_nu, zn, ktree)
        qq, _ = push_down(r_mu, zm, ktree)
        pairing = canonical_pairing(pp, qq)
        fam = SeparatedFamily((pp, qq), pp.points & qq.points, {(0, 1): pairing})
        stamps = equivalence_stamp(fam, ktree)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        assert len(res.fresh_points) == 1
        v = res.fresh_points[0]
        assert v == Point(eps[3], 0)  # least admissible window level
        assert res.condition.meet(*next(
            (s, t) for s, t in res.condition.pairs()
            if res.condition.meet(s, t) == frozenset({v})
        )) == {v}
        return
    pytest.fail("no anti-root instance found")


def test_eta_rejects_tops(ktree):
    _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, 0)
    z = Point(TOP, 0)
    topped = make_condition("kappa", set(pp.points) | {z}, pp.strict, dict(pp.meets))
    with pytest.raises(HypothesisViolationError):
        amalgamate_eta(topped, qq, pairing, stamps, ktree)


def test_eta_rejects_inadequate_pairing(ktree):
    _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, 2)
    # swap two image points to break level order
    imgs = sorted(pairing.values(), key=str)
    twisted = dict(pairing)
    ks = sorted(twisted, key=str)
    twisted[ks[0]], twisted[ks[1]] = pairing[ks[1]], pairing[ks[0]]
    with pytest.raises(HypothesisViolationError):
        amalgamate_eta(pp, qq, twisted, stamps, ktree)


def test_eta_refuses_a_pairing_that_moves_a_root_point(ktree):
    # a -> b -> c keeps columns and level order, and moves the root point b
    eps = ktree.root_eps()
    a, b, c = Point(eps[1], 0), Point(eps[2], 0), Point(eps[3], 0)
    pp = make_condition("kappa", [a, b], [(a, b)], complete=True)
    qq = make_condition("kappa", [b, c], [(b, c)], complete=True)
    pairing = {a: b, b: c}
    assert check_adequate(pairing) == []
    stamps = flat_stamps([a, b, c], eps[4:6], eps[7])
    with pytest.raises(HypothesisViolationError) as err:
        amalgamate_eta(pp, qq, pairing, stamps, ktree)
    assert str(err.value) == "pairing moves a root point"


def test_eta_refuses_omega_members(ktree):
    _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, 0)
    omega = [make_condition("omega", m.points, m.strict, m.meet_table()) for m in (pp, qq)]
    with pytest.raises(HypothesisViolationError) as err:
        amalgamate_eta(*omega, pairing, stamps, ktree)
    assert str(err.value) == "grid amalgamation expects the kappa dialect"


def test_eta_rejects_disagreeing_root_meets(ktree):
    # both members are the same three root points, c under u1 and u2, but
    # only pp records c as the meet of (u1, u2)
    eps = ktree.root_eps()
    c, u1, u2 = Point(eps[1], 0), Point(eps[2], 0), Point(eps[3], 0)
    pp = make_condition("kappa", [c, u1, u2], [(c, u1), (c, u2)], complete=True)
    meets = dict(pp.meets)
    meets[(u1, u2)] = frozenset()
    qq = make_condition("kappa", pp.points, pp.strict, meets)
    pairing = {s: s for s in pp.points}
    fam = SeparatedFamily((pp, qq), pp.points, {(0, 1): pairing})
    stamps = equivalence_stamp(fam, ktree)
    with pytest.raises(HypothesisViolationError, match="disagree on the root meet"):
        amalgamate_eta(pp, qq, pairing, stamps, ktree)


def test_eta_exhaustion_reports_blocking_pair(ktree):
    _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, 11)
    starved = EquivalenceStamp(
        tags=stamps.tags,
        intervals=stamps.intervals,
        xi_of=stamps.xi_of,
        gamma_of=stamps.gamma_of,
        d_of={iv: () for iv in stamps.d_of},
        gamma=stamps.gamma,
        root_levels=stamps.root_levels,
    )
    try:
        res = amalgamate_eta(pp, qq, pairing, starved, ktree)
    except SearchExhaustedError as err:
        assert err.constraint is not None
        return
    # seeds whose amalgam needs no fresh point cannot starve; find one that does
    for seed in range(40):
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        starved = EquivalenceStamp(
            stamps.tags, stamps.intervals, stamps.xi_of, stamps.gamma_of,
            {iv: () for iv in stamps.d_of}, stamps.gamma, stamps.root_levels,
        )
        try:
            amalgamate_eta(pp, qq, pairing, starved, ktree)
        except SearchExhaustedError as err:
            assert err.constraint is not None
            return
    pytest.fail("no starving instance found")


def test_eta_matches_exhaustive_oracle(ktree):
    agreements = 0
    for seed in range(40):
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        assert len(pp.points | qq.points) <= 12
        successes = naive_eta_search(pp, qq, pairing, stamps, ktree, max_fresh=3)
        try:
            res = amalgamate_eta(pp, qq, pairing, stamps, ktree, max_fresh=3)
        except SearchExhaustedError:
            assert successes == []
            continue
        assert any(res.condition == c for c in successes)
        agreements += 1
    assert agreements >= 30


# --- eta search branches ---------------------------------------------------------
# Each instance below steers the search into one branch: a cut-off, a skipped
# candidate level, or a leaf refused after placement.  The seeded inputs reach
# the first two kinds through hand-built stamps; the leaf refusals need
# members whose pairing keeps levels and columns but not the order.


def restamped(stamps, window=None, gamma=None):
    """`stamps` with every marker window replaced by `window`, or its bound
    by `gamma`."""
    d_of = stamps.d_of if window is None else {iv: tuple(window) for iv in stamps.d_of}
    return EquivalenceStamp(
        stamps.tags, stamps.intervals, stamps.xi_of, stamps.gamma_of, d_of,
        stamps.gamma if gamma is None else gamma, stamps.root_levels,
    )


def flat_stamps(points, window, gamma):
    """One tag over every point, whose fresh-point window is `window`."""
    iv = Interval(parse("0"), parse("w^2"))
    return EquivalenceStamp(
        {x: iv for x in points}, (iv,), {iv: 0}, {iv: gamma}, {iv: tuple(window)}, gamma, ()
    )


def eta_against_oracle(pp, qq, pairing, stamps, tree, max_fresh=3):
    """`amalgamate_eta`'s answer, checked against `naive_eta_search`: a result
    is one of the oracle's successes; exhaustion needs the oracle to have
    none, and a named constraint is the first pair its partial must fix."""
    successes = naive_eta_search(pp, qq, pairing, stamps, tree, max_fresh=max_fresh)
    try:
        res = amalgamate_eta(pp, qq, pairing, stamps, tree, max_fresh=max_fresh)
    except SearchExhaustedError as err:
        assert successes == []
        if err.partial is not None:
            keys = {frozenset(k) for k in pp.meet_table() | qq.meet_table()}
            assert err.constraint == naive_deficient(err.partial, keys, tree)[0]
        return err
    assert any(res.condition == c for c in successes)
    return res


NEEDS_FRESH = (0, 1, 3)  # seeds whose amalgam places one fresh point at w*3


def test_eta_max_fresh_zero_blocks_the_first_deficient_pair(ktree):
    for seed in NEEDS_FRESH:
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        err = eta_against_oracle(pp, qq, pairing, stamps, ktree, max_fresh=0)
        assert isinstance(err, SearchExhaustedError)
        assert err.partial == naive_eta_base(pp, qq)
        assert err.constraint is not None


def test_eta_skips_window_levels_not_above_every_lower_bound(ktree):
    # the root points sit at w and w*2 below the blocked pair, so the search
    # passes over both levels and places at w*3 as the true windows do
    eps = ktree.root_eps()
    for seed in NEEDS_FRESH:
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        low = restamped(stamps, window=eps[1:4])
        res = eta_against_oracle(pp, qq, pairing, low, ktree)
        assert res.fresh_points == (Point(eps[3], 0),)


def test_eta_skips_window_levels_outside_the_corner_orbits(ktree):
    # w*10 and w*11 lie above a corner, so nothing is placed at all
    eps = ktree.root_eps()
    for seed in NEEDS_FRESH:
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        high = restamped(stamps, window=eps[10:12])
        err = eta_against_oracle(pp, qq, pairing, high, ktree)
        assert isinstance(err, SearchExhaustedError)
        assert err.partial == naive_eta_base(pp, qq)


def test_eta_refuses_leaves_with_a_fresh_level_at_gamma(ktree):
    eps = ktree.root_eps()
    for seed in NEEDS_FRESH:
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        assert res.fresh_points == (Point(eps[3], 0),)
        err = eta_against_oracle(pp, qq, pairing, restamped(stamps, gamma=eps[3]), ktree)
        assert isinstance(err, SearchExhaustedError)


def test_eta_skips_a_full_level(ktree):
    # pp fills all kappa_w = 3 columns of w*4, its image fills w*3; the pair
    # (a, b) over the two incomparable roots needs a fresh point
    eps = ktree.root_eps()
    u1, u2, a, b = Point(eps[1], 0), Point(eps[2], 0), Point(eps[6], 0), Point(eps[7], 0)
    cs = [Point(eps[4], k) for k in range(3)]
    ds = [Point(eps[3], k) for k in range(3)]
    pp = make_condition("kappa", [u1, u2, a, *cs], [(u1, a), (u2, a)], complete=True)
    qq = make_condition("kappa", [u1, u2, b, *ds], [(u1, b), (u2, b)], complete=True)
    pairing = {u1: u1, u2: u2, a: b, **dict(zip(cs, ds))}
    points, gamma = pp.points | qq.points, eps[13]
    res = eta_against_oracle(pp, qq, pairing, flat_stamps(points, eps[4:6], gamma), ktree)
    assert res.fresh_points == (Point(eps[5], 0),)
    err = eta_against_oracle(pp, qq, pairing, flat_stamps(points, eps[4:5], gamma), ktree)
    assert isinstance(err, SearchExhaustedError)
    assert err.partial == naive_eta_base(pp, qq)
    assert err.constraint == (a, b)


def validation_instance(ktree):
    """Members whose pairing maps a1, above both roots, to the isolated b1;
    the one placement under (a1, b2) and its mirror puts both roots below
    b1, whose recorded meets with them stay empty.  Returns pp, qq, the
    pairing, the stamps, and that one leaf: v at w*3."""
    eps = ktree.root_eps()
    u1, u2 = Point(eps[1], 0), Point(eps[2], 0)
    a1, a2, b1, b2 = (Point(eps[k], 0) for k in (6, 11, 5, 12))
    pp = make_condition("kappa", [u1, u2, a1, a2], [(u1, a1), (u2, a1)], complete=True)
    qq = make_condition("kappa", [u1, u2, b1, b2], [(u1, b2), (u2, b2)], complete=True)
    pairing = {u1: u1, u2: u2, a1: b1, a2: b2}
    stamps = flat_stamps(pp.points | qq.points, eps[3:4], eps[5])
    base, v = naive_eta_base(pp, qq), Point(eps[3], 0)
    rel = set(base.strict) | {(u1, v), (u2, v)} | {(v, c) for c in (a1, a2, b1, b2)}
    meets = pp.meet_table() | qq.meet_table()
    leaf = make_condition("kappa", base.points | {v}, rel, meets, complete=True)
    return pp, qq, pairing, stamps, leaf


def test_eta_refuses_a_leaf_that_fails_validation(ktree):
    pp, qq, pairing, stamps, leaf = validation_instance(ktree)
    err = eta_against_oracle(pp, qq, pairing, stamps, ktree)
    assert isinstance(err, SearchExhaustedError)
    assert "meet-axiom" in {found.clause for found in validate(leaf, ktree)}


def r2_instance(ktree):
    """Members whose pairing sends x, below the root u, to y, below u and
    alone under b; (a, b) is deficient over r and y.  Returns pp, qq, the
    pairing, and the one leaf the search builds: v at w*4 under a and b."""
    eps = ktree.root_eps()
    r, u, x, a, y, b = (Point(eps[k], c) for k, c in ((3, 0), (5, 1), (2, 0), (8, 2), (1, 0), (6, 2)))
    pp = make_condition("kappa", [r, u, x, a], [(x, u), (x, a), (r, a), (u, a)], complete=True)
    qq = make_condition("kappa", [r, u, y, b], [(r, b), (y, u), (y, b)], complete=True)
    base, v = naive_eta_base(pp, qq), Point(eps[4], 0)
    rel = set(base.strict) | {(r, v), (y, v), (v, a), (v, b)}
    meets = pp.meet_table() | qq.meet_table()
    leaf = make_condition("kappa", base.points | {v}, rel, meets, complete=True)
    return pp, qq, {r: r, u: u, x: y, a: b}, leaf


def test_eta_refuses_a_leaf_that_breaks_the_cross_structure(ktree):
    pp, qq, pairing, leaf = r2_instance(ktree)
    stamps = flat_stamps(pp.points | qq.points, [ktree.root_eps()[4]], ktree.root_eps()[13])
    err = eta_against_oracle(pp, qq, pairing, stamps, ktree)
    assert isinstance(err, SearchExhaustedError)
    assert validate(leaf, ktree) == []
    assert r2_report(leaf, pp, qq, mirror_of(pp, pairing))


def test_eta_leaf_refusals_name_no_blocking_pair(ktree):
    """When every placement is refused at a leaf, no task was blocked, so
    the exhaustion carries neither a partial condition nor a constraint."""
    eps = ktree.root_eps()
    pp, qq, pairing, stamps, _ = validation_instance(ktree)
    instances = [(pp, qq, pairing, stamps)]
    pp, qq, pairing, _ = r2_instance(ktree)
    instances.append((pp, qq, pairing, flat_stamps(pp.points | qq.points, [eps[4]], eps[13])))
    for pp, qq, pairing, stamps in instances:
        with pytest.raises(SearchExhaustedError) as err:
            amalgamate_eta(pp, qq, pairing, stamps, ktree)
        assert err.value.partial is None and err.value.constraint is None


def test_r2_report_names_mirror_down_root_passage_and_cross_order(ktree):
    pp, qq, pairing, leaf = r2_instance(ktree)
    mirror = mirror_of(pp, pairing)
    eps = ktree.root_eps()
    x, y, v = Point(eps[2], 0), Point(eps[1], 0), Point(eps[4], 0)
    assert r2_report(leaf, pp, qq, mirror) == [
        f"mirror-down: ({x}, {v}) breaks the pairing",
        f"root-passage: {y} reaches {v} off the root",
    ]
    # x lies under the root u, which does not lie under b in qq
    b = Point(eps[6], 2)
    base = naive_eta_base(pp, qq)
    crossed = make_condition("kappa", base.points, set(base.strict) | {(x, b)}, dict(base.meets))
    assert r2_report(crossed, pp, qq, mirror) == [
        f"cross-order: ({x}, {b}) disagrees with interpolants",
    ]
    # x < v mends the mirror, but x, above the lowest position, reaches v
    # off the root, and b through v
    passed = make_condition("kappa", leaf.points, set(leaf.strict) | {(x, v)}, dict(leaf.meets))
    assert leaf.core().index[x] > 0
    assert r2_report(passed, pp, qq, mirror) == [
        f"root-passage: {y} reaches {v} off the root",
        f"root-passage: {x} reaches {v} off the root",
        f"cross-order: ({x}, {b}) disagrees with interpolants",
    ]
    for r in (leaf, crossed, passed):
        assert r2_report(r, pp, qq, mirror) == naive_r2_report(r, pp, qq, mirror)


def full_level_instance(ktree):
    """The members of `test_eta_skips_a_full_level` and their pairing."""
    eps = ktree.root_eps()
    u1, u2, a, b = Point(eps[1], 0), Point(eps[2], 0), Point(eps[6], 0), Point(eps[7], 0)
    cs = [Point(eps[4], k) for k in range(3)]
    ds = [Point(eps[3], k) for k in range(3)]
    pp = make_condition("kappa", [u1, u2, a, *cs], [(u1, a), (u2, a)], complete=True)
    qq = make_condition("kappa", [u1, u2, b, *ds], [(u1, b), (u2, b)], complete=True)
    return pp, qq, {u1: u1, u2: u2, a: b, **dict(zip(cs, ds))}


def leaf_instance(ktree, source):
    """(pp, qq, pairing, stamps, max_fresh) for one drawn source: a seeded
    pushed pair under its own stamps, a low window or a bound gamma at the
    level the seed places at; the full-level members under a two- or
    one-level window; or the hand-built validation and cross-structure
    refusals."""
    eps = ktree.root_eps()
    kind = source[0]
    if kind == "seed":
        _, seed, window, max_fresh = source
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        if window == "low":
            stamps = restamped(stamps, window=eps[1:4])
        elif window == "gamma":
            stamps = restamped(stamps, gamma=eps[3])
        return pp, qq, pairing, stamps, max_fresh
    if kind == "full-level":
        pp, qq, pairing = full_level_instance(ktree)
        window = eps[4:4 + source[1]]
        return pp, qq, pairing, flat_stamps(pp.points | qq.points, window, eps[13]), 3
    if kind == "validation":
        pp, qq, pairing, stamps, _ = validation_instance(ktree)
        return pp, qq, pairing, stamps, 3
    pp, qq, pairing, _ = r2_instance(ktree)
    return pp, qq, pairing, flat_stamps(pp.points | qq.points, [eps[4]], eps[13]), 3


LEAF_SOURCES = st.one_of(
    st.tuples(
        st.just("seed"),
        st.integers(0, 39),
        st.sampled_from(["stamps", "low", "gamma"]),
        st.integers(0, 3),
    ),
    st.sampled_from([("full-level", 2), ("full-level", 1), ("validation",), ("r2",)]),
)


@settings(max_examples=100, deadline=None)
@given(source=LEAF_SOURCES)
@example(source=("validation",))
@example(source=("r2",))
@example(source=("full-level", 2))
@example(source=("seed", 0, "stamps", 3))
def test_a_leaf_judged_by_what_it_adds_gets_the_full_verdict(ktree, source):
    """With both members validated first, every leaf that extends both is
    judged only on what it adds, and one that does not (the validation
    refusal's) by the full `validate`; either way the findings are
    `naive_validate`'s, and the search answers as `naive_eta_search`."""
    pp, qq, pairing, stamps, max_fresh = leaf_instance(ktree, source)
    for member in (pp, qq):
        assert validate(member, ktree) == [] and member.judged_valid(ktree, None)
    leaves = []

    def added(cond, tree, F, fresh, members=()):
        found = violations_touching(cond, tree, F, fresh, members)
        leaves.append(("added", cond, found))
        return found

    def full(cond, tree, F=None):
        found = validate(cond, tree, F)
        leaves.append(("full", cond, found))
        return found

    with mock.patch.object(amalgam, "violations_touching", added):
        with mock.patch.object(amalgam, "validate", full):
            eta_against_oracle(pp, qq, pairing, stamps, ktree, max_fresh)
    for path, leaf, found in leaves:
        assert found == naive_validate(leaf, ktree)
        assert path == ("added" if leq(leaf, pp) and leq(leaf, qq) else "full")
    if source[0] == "validation":
        assert [path for path, _, _ in leaves] == ["full"] and leaves[0][2]
    if source[0] == "r2":
        assert [(path, found) for path, _, found in leaves] == [("added", [])]


def root_order_instance(ktree):
    """Members over the roots u1, u2 that agree on the root meet {u1} but
    not on the root order: u1 < u2 in pp only, and qq puts u2 alone under
    b, so the union needs closing (u1 < b)."""
    eps = ktree.root_eps()
    u1, u2, a, b = Point(eps[1], 0), Point(eps[2], 0), Point(eps[6], 0), Point(eps[7], 0)
    pp = make_condition("kappa", [u1, u2, a], [(u1, u2), (u2, a)], complete=True)
    qq = make_condition(
        "kappa", [u1, u2, b], [(u2, b)], {(u1, u2): frozenset({u1})}, complete=True
    )
    stamps = flat_stamps(pp.points | qq.points, eps[3:5], eps[13])
    return pp, qq, {u1: u1, u2: u2, a: b}, stamps, 3


def search_nodes(pp, qq, pairing, stamps, tree, max_fresh):
    """Every node `amalgamate_eta` builds, in the order it judges them."""
    nodes = []
    first = amalgam._first_deficient

    def spy(cond, base_meets, tree):
        nodes.append(cond)
        return first(cond, base_meets, tree)

    with mock.patch.object(amalgam, "_first_deficient", spy):
        try:
            amalgamate_eta(pp, qq, pairing, stamps, tree, max_fresh)
        except SearchExhaustedError:
            pass
    return nodes


@settings(max_examples=100, deadline=None)
@given(source=st.one_of(LEAF_SOURCES, st.just(("root-order",))))
@example(source=("root-order",))
@example(source=("seed", 0, "stamps", 3))
@example(source=("full-level", 2))
def test_search_nodes_equal_their_rebuild(ktree, source):
    """The base node is `naive_eta_base`, and each child equals
    `make_condition(..., complete=True)` on its parent's order with the
    fresh point's pairs added and the members' meets, index and all."""
    if source[0] == "root-order":
        pp, qq, pairing, stamps, max_fresh = root_order_instance(ktree)
    else:
        pp, qq, pairing, stamps, max_fresh = leaf_instance(ktree, source)
    nodes = search_nodes(pp, qq, pairing, stamps, ktree, max_fresh)
    assert_rebuilt(nodes[0], naive_eta_base(pp, qq))
    base = pp.meet_table() | qq.meet_table()
    for k, node in enumerate(nodes[1:], 1):
        # depth-first: the parent is the last node one point smaller
        parent = next(p for p in reversed(nodes[:k]) if p.size == node.size - 1)
        (v,) = node.points - parent.points
        rel = set(parent.strict) | {(a, b) for a, b in node.strict if v in (a, b)}
        want = make_condition("kappa", parent.points | {v}, rel, base, complete=True)
        assert_rebuilt(node, want)


def test_root_order_disagreement_is_closed_as_the_oracle_closes_it(ktree):
    pp, qq, pairing, stamps, max_fresh = root_order_instance(ktree)
    base = naive_eta_base(pp, qq)
    u1, b = Point(ktree.root_eps()[1], 0), Point(ktree.root_eps()[7], 0)
    assert (u1, b) in base.strict and (u1, b) not in pp.strict | qq.strict
    eta_against_oracle(pp, qq, pairing, stamps, ktree, max_fresh)


def test_grid_base_is_the_union_with_its_cross_order_completed(ktree):
    """The base node, built from the members' rows, is `make_condition(...,
    complete=True)` on both strict sets and the cross order, index and all,
    for every seeded pair and for members whose root orders disagree; the
    cross order is the root-interpolant relation, read by point tests."""
    instances = [eta_inputs(ktree, seed)[2:4] for seed in range(60)]
    instances += [root_order_instance(ktree)[:2], r2_instance(ktree)[:2]]
    # private points on both sides of the root u, none at the lowest position,
    # and the root points r and w below u: the cross order is (s, t) and
    # (s2, t2)
    eps = ktree.root_eps()
    r, s, s2, w, u, t, t2 = (Point(eps[k], 0) for k in (1, 2, 3, 4, 5, 6, 7))
    below = [(r, u), (w, u)]
    pp = make_condition("kappa", [r, s, w, u, t2], below + [(s, u), (u, t2)], complete=True)
    qq = make_condition("kappa", [r, s2, w, u, t], below + [(s2, u), (u, t)], complete=True)
    assert amalgam._cross_order(pp, qq, frozenset({r, w, u})) == {s: [t], s2: [t2]}
    instances.append((pp, qq))
    for pp, qq in instances:
        root = pp.points & qq.points
        ordered = sorted(root, key=point_key)
        for m in (pp, qq):
            rows = [[t for t in ordered if m.lt(u, t)] for u in ordered]
            assert amalgam._root_rows(m, root) == rows
        cross = amalgam._cross_order(pp, qq, root)
        pairs = {(s, t) for s, tops in cross.items() for t in tops}
        want = {
            (s, t)
            for a, b in ((pp, qq), (qq, pp))
            for s in a.points - root
            for t in b.points - root
            if any(a.lt(s, u) and b.lt(u, t) for u in root)
        }
        assert pairs == want
        assert all(tops == sorted(tops, key=point_key) for tops in cross.values())
        base_meets = pp.meet_table() | qq.meet_table()
        rel = pp.strict | qq.strict | pairs
        full = make_condition("kappa", pp.points | qq.points, rel, base_meets, complete=True)
        assert_rebuilt(amalgam._grid_base(pp, qq, root, cross, base_meets), full)


def test_the_cross_order_of_every_seeded_amalgam_is_accepted_by_rows(ktree):
    """`r2_report` lists the cross pairs one by one only when a row differs:
    every seeded amalgam and the member union are accepted by rows, and a
    union with one cross pair added is not."""
    for seed in range(60):
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        root = pp.points & qq.points
        cross = amalgam._cross_order(pp, qq, root)
        mine, theirs = pp.points - root, qq.points - root
        r = amalgamate_eta(pp, qq, pairing, stamps, ktree).condition
        for cond in (r, naive_eta_base(pp, qq)):
            assert amalgam._cross_rows_agree(cond.core(), mine, theirs, cross)
    pp, qq, pairing, _ = r2_instance(ktree)
    root = pp.points & qq.points
    x, b = Point(ktree.root_eps()[2], 0), Point(ktree.root_eps()[6], 2)
    base = naive_eta_base(pp, qq)
    crossed = make_condition("kappa", base.points, set(base.strict) | {(x, b)}, dict(base.meets))
    cross = amalgam._cross_order(pp, qq, root)
    assert amalgam._cross_rows_agree(base.core(), pp.points - root, qq.points - root, cross)
    assert not amalgam._cross_rows_agree(crossed.core(), pp.points - root, qq.points - root, cross)


def test_r2_report_flags_broken_mirror(ktree):
    for seed in range(40):
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        if not res.fresh_points:
            continue
        v = res.fresh_points[0]
        r = res.condition
        above = sorted(
            (x for x in qq.points - pp.points if not r.comparable(v, x)),
            key=str,
        )
        if not above:
            continue
        mirror = {}
        for s in pp.points:
            mirror[s] = pairing[s]
            mirror[pairing[s]] = s
        broken = make_condition(
            "kappa", r.points, set(r.strict) | {(v, above[0])}, dict(r.meets)
        )
        report = r2_report(broken, pp, qq, mirror)
        assert any("mirror" in line for line in report)
        return
    pytest.fail("no asymmetric extension found")


def first_deficient_agrees(cond, base_meets, tree):
    want = naive_deficient(cond, {frozenset(k) for k in base_meets}, tree)
    assert _first_deficient(cond, base_meets, tree) == (want[0] if want else None)


def test_reports_and_first_deficient_match_the_oracles(ktree):
    # every seed's family and amalgam, the amalgam with each one-pair break
    # of its mirror symmetry, the member union before any cross order, and
    # the broken cases
    for seed in range(60):
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
        fam = SeparatedFamily((pp, qq), pp.points & qq.points, {(0, 1): pairing})
        assert separated_report(fam) == naive_separated_report(fam)
        mirror = mirror_of(pp, pairing)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        r = res.condition
        assert r2_report(r, pp, qq, mirror) == naive_r2_report(r, pp, qq, mirror)
        for v in res.fresh_points:
            for x in sorted(r.points - {v}, key=point_key):
                if not r.comparable(v, x):
                    broken = make_condition(
                        "kappa", r.points, set(r.strict) | {(v, x)}, dict(r.meets)
                    )
                    want = naive_r2_report(broken, pp, qq, mirror)
                    assert r2_report(broken, pp, qq, mirror) == want
        base = dict(pp.meets)
        base.update(qq.meets)
        union = make_condition(
            "kappa", pp.points | qq.points, pp.strict | qq.strict, base, complete=True
        )
        first_deficient_agrees(union, base, ktree)
        first_deficient_agrees(r, base, ktree)
    for fam in (level_sharing_family(ktree), order_mismatch_family(ktree)):
        assert separated_report(fam) == naive_separated_report(fam)
    args = broken_mirror(ktree)
    assert r2_report(*args) == naive_r2_report(*args)


@st.composite
def completed_conditions(draw):
    """A kappa condition over points at marker and near-marker levels, its
    order acyclic along a random permutation, built with
    `make_condition(complete=True)` from a random subset of its pairs given
    arbitrary meets; returns it with that subset."""
    eps = kappa_tree().root_eps()[:6]
    levels = list(eps) + [e + 1 for e in eps[:4]]
    cells = st.tuples(st.sampled_from(range(len(levels))), st.integers(0, 2))
    picked = draw(st.lists(cells, min_size=2, max_size=7, unique=True))
    pts = [Point(levels[i], xi) for i, xi in picked]
    perm = draw(st.permutations(range(len(pts))))
    density = draw(st.integers(1, 7))
    rel = {
        (pts[perm[a]], pts[perm[b]])
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
        if draw(st.integers(0, 9)) < density
    }
    pairs = list(itertools.combinations(sorted(pts, key=point_key), 2))
    keys = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    value = st.lists(st.sampled_from(pts), max_size=2).map(frozenset)
    base = {key: draw(value) for key in keys}
    return make_condition("kappa", pts, rel, base, complete=True), base


@settings(max_examples=150, deadline=None)
@given(completed_conditions())
def test_first_deficient_matches_the_oracle(drawn):
    cond, base = drawn
    first_deficient_agrees(cond, base, kappa_tree())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), max_fresh=st.integers(0, 3))
@example(seed=3, max_fresh=3)
def test_first_deficient_matches_the_full_scan_on_eta_search_nodes(ktree, seed, max_fresh):
    """Every node of the grid amalgam's search on `kappa_instance`'s pair
    for `seed`: the pairs read from the order masks find the meet row that
    a scan of every row finds."""
    _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(ktree, seed)
    base = pp.meet_table() | qq.meet_table()
    for node in search_nodes(pp, qq, pairing, stamps, ktree, max_fresh):
        assert _first_deficient(node, base, ktree) == naive_first_deficient(node, base, ktree)


# --- pull back -------------------------------------------------------------------


def test_pipeline_end_to_end(ktree):
    for seed in range(60):
        r_nu, r_mu, pp, qq, g_nu, g_mu, pairing, stamps, F = eta_inputs(ktree, seed)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        r = pull_back(res.condition, r_nu, r_mu, g_nu, g_mu, ktree, F, res.gamma)
        assert validate(r, ktree, F) == []
        assert leq(r, r_nu) and leq(r, r_mu)
        for member in (r_nu, r_mu):
            for (a, b), want in member.meets:
                assert r.meet(a, b) == want
        for v in res.fresh_points:
            assert v.level < res.gamma


def test_pull_back_shared_top_reidentifies(ktree):
    hit = False
    for seed in range(60):
        rng = random.Random(seed)
        r_nu, r_mu, zn, zm, F = kappa_instance(ktree, rng)
        shared_tops = {x for x in r_nu.points & r_mu.points if x.is_top}
        if not shared_tops:
            continue
        pp, g_nu = push_down(r_nu, zn, ktree)
        qq, g_mu = push_down(r_mu, zm, ktree)
        pairing = canonical_pairing(pp, qq)
        fam = SeparatedFamily((pp, qq), pp.points & qq.points, {(0, 1): pairing})
        stamps = equivalence_stamp(fam, ktree)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        r = pull_back(res.condition, r_nu, r_mu, g_nu, g_mu, ktree, F, res.gamma)
        z = next(iter(shared_tops))
        # the shared top returns as one point with two preimages, so the
        # meet maximum ranges over two candidates per pair
        assert z in r.points
        assert validate(r, ktree, F) == []
        hit = True
    assert hit


def test_pull_back_max_undefined(ktree):
    # two preimages of one shared top whose meets against a third point are
    # incomparable, so the candidate family has no maximum
    eps = ktree.root_eps()
    u1, u2 = Point(eps[1], 0), Point(eps[2], 0)
    a, b, c = Point(eps[9], 1), Point(eps[9], 2), Point(eps[12], 3)
    rp = make_condition(
        "kappa",
        [u1, u2, a, b, c],
        [(u1, a), (u1, c), (u2, b), (u2, c)],
        {(a, c): frozenset({u1}), (b, c): frozenset({u2}),
         (a, b): frozenset(), (u1, u2): frozenset(),
         (u1, a): frozenset({u1}), (u1, c): frozenset({u1}),
         (u2, b): frozenset({u2}), (u2, c): frozenset({u2}),
         (u1, b): frozenset(), (u2, a): frozenset()},
    )
    ta, tc = Point(TOP, 1), Point(TOP, 2)
    r_nu = make_condition(
        "kappa", [u1, u2, ta, tc], [(u1, ta), (u1, tc)], complete=True
    )
    r_mu = make_condition("kappa", [u1, u2, ta], [(u2, ta)], complete=True)
    g_nu = {u1: u1, u2: u2, a: ta, c: tc}
    g_mu = {u1: u1, u2: u2, b: ta}
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    with pytest.raises(MaxUndefinedError) as err:
        pull_back(rp, r_nu, r_mu, g_nu, g_mu, ktree, F)
    assert set(err.value.pair) == {ta, tc}


def test_meet_max_names_its_pair_in_order(ktree):
    eps = ktree.root_eps()
    u1, u2, s, t = Point(eps[1], 0), Point(eps[2], 0), Point(TOP, 0), Point(TOP, 1)
    core = make_condition("kappa", [u1, u2, s, t]).core()
    with pytest.raises(MaxUndefinedError) as err:
        amalgam._meet_max(core, [frozenset({u1}), frozenset({u2})], (s, t))
    assert str(err.value) == "meet candidates of ((TOP, 0), (TOP, 1)) have no maximum"
    assert err.value.pair == (s, t)


def test_pull_back_checks_the_f_gap_above_the_root_alone(ktree):
    """With gamma left out, the gap bound is the root's top level w, not
    the first member's private point at w*6: a table of w*3 passes, and a
    table of w is refused by name."""
    eps = ktree.root_eps()
    u, x = Point(eps[1], 0), Point(eps[6], 0)
    t1, t2 = Point(TOP, 1), Point(TOP, 2)
    a, b = Point(eps[8], 1), Point(eps[8], 2)
    r_nu = make_condition("kappa", [u, x, t1], [(u, t1), (x, t1)], complete=True)
    r_mu = make_condition("kappa", [u, t2], [(u, t2)], complete=True)
    rp = make_condition("kappa", [u, x, a, b], [(u, a), (x, a), (u, b)], complete=True)
    args = (r_nu, r_mu, {u: u, x: x, a: t1}, {u: u, b: t2}, ktree)
    r = pull_back(rp, *args, flat_F(ktree, ktree.params.lambda_w, 3))
    assert r.points == {u, x, t1, t2}
    with pytest.raises(FGapError) as err:
        pull_back(rp, *args, flat_F(ktree, ktree.params.lambda_w, 1))
    assert str(err.value) == "F(1,2) = w not above w"


def test_pull_back_breaks_an_equal_hull_tie_by_the_last_preimage(ktree):
    """The shared top's preimages, in point order, are b (w*9) and a (w*10).
    An omega amalgam may give c a meet with each that covers the same
    lower bounds, {u} with a and {u, w} with b; the maximum is then the
    candidate of the last preimage, a, which the kappa result can keep."""
    eps = ktree.root_eps()
    w, u, c = Point(eps[1], 0), Point(eps[2], 0), Point(eps[12], 0)
    a, b, top = Point(eps[10], 0), Point(eps[9], 0), Point(TOP, 1)
    rel = [(w, u), (u, a), (u, b), (u, c)]
    rp = make_condition("omega", [w, u, a, b, c], rel, {(b, c): {u, w}}, complete=True)
    assert validate(rp, ktree) == [] and rp.meet(a, c) == {u}
    member = make_condition("kappa", [w, u, top], [(w, u), (u, top)], complete=True)
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    r = pull_back(rp, member, member, {w: w, u: u, a: top}, {w: w, u: u, b: top}, ktree, F)
    assert r.meet(c, top) == {u}


def test_pull_back_fgap(ktree):
    r_nu, r_mu, pp, qq, g_nu, g_mu, pairing, stamps, F = eta_inputs(ktree, 1)
    res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
    low = flat_F(ktree, ktree.params.lambda_w, 1)
    if {x for x in r_nu.points if x.is_top} - r_mu.points and {
        x for x in r_mu.points if x.is_top
    } - r_nu.points:
        with pytest.raises(FGapError):
            pull_back(res.condition, r_nu, r_mu, g_nu, g_mu, ktree, low, res.gamma)


def judged_pull_back(rp, *args):
    """`pull_back(rp, *args)`'s result or AmalgamError, and every check it
    ran as (fresh, within, condition, findings): its narrowed
    `violations_touching` call, if any, then its `validate` call, which
    reads within as -1."""
    calls = []

    def narrowed(cond, tree, F, fresh, members=(), within=-1):
        found = violations_touching(cond, tree, F, fresh, members, within)
        calls.append((fresh, within, cond, found))
        return found

    def full(cond, tree, F=None, fresh=-1):
        found = validate(cond, tree, F, fresh)
        calls.append((fresh, -1, cond, found))
        return found

    with mock.patch.object(amalgam, "validate", full):
        with mock.patch.object(amalgam, "violations_touching", narrowed):
            try:
                return pull_back(rp, *args), calls
            except AmalgamError as err:
                return err, calls


def unjudged(cond):
    """An equal condition with no kept verdict."""
    return make_condition(cond.dialect, cond.points, cond.strict, cond.meet_table())


def tops_mask(cond):
    core = cond.core()
    return core.levels.get(TOP, 0)


PULL_TABLES = st.one_of(st.none(), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 59), flat=PULL_TABLES)
@example(seed=5, flat=6)
@example(seed=10, flat=7)
@example(seed=5, flat=None)
@example(seed=0, flat=None)
def test_pull_back_judges_the_returned_tops_as_validate_judges_all(ktree, seed, flat):
    """With the amalgam's verdict kept, pull_back checks only the returned
    tops and the pairs of two tops, and answers as the full check of an
    unjudged twin: the same condition, or the same refusal; the narrowed
    findings are `naive_validate`'s, and the condition judged, built from
    the amalgam's order index, is `naive_pull_back`'s, index and all.  The
    `validate` that follows answers from a clean check's verdict, or finds
    the same clauses.  Seeds 5 and 10 share a top, so its two landing
    points merge and each meet is a maximum over preimages; seed 0 merges
    none, and its meets are rp's, renamed."""
    r_nu, r_mu, pp, qq, g_nu, g_mu, pairing, stamps, F = eta_inputs(ktree, seed)
    if flat is not None:
        F = flat_F(ktree, ktree.params.lambda_w, flat)
    res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
    assert res.condition.judged_valid(ktree, None)
    args = (r_nu, r_mu, g_nu, g_mu, ktree, F, res.gamma)
    fast, checks = judged_pull_back(res.condition, *args)
    full, whole = judged_pull_back(unjudged(res.condition), *args)
    assert [(fresh, within) for fresh, within, _, _ in whole] == [(-1, -1)] * len(whole)
    assert len(checks) == 2 * len(whole) <= 2
    for narrowed, last, (_, _, twin, want) in zip(checks[::2], checks[1::2], whole):
        fresh, within, r, found = narrowed
        assert fresh == within == tops_mask(r) and r == twin
        assert found == want == naive_validate(r, ktree, F)
        assert last == (-1, -1, r, want)
        assert_rebuilt(r, naive_pull_back(res.condition, g_nu, g_mu))
    if isinstance(full, AmalgamError):
        assert type(fast) is type(full) and str(fast) == str(full)
    else:
        assert fast == full and fast.judged_valid(ktree, F)


def test_pull_back_examples_merge_on_a_shared_top_only(ktree):
    for seed, shared in ((5, True), (10, True), (0, False)):
        r_nu, r_mu = eta_inputs(ktree, seed)[:2]
        assert any(x.is_top for x in r_nu.points & r_mu.points) is shared


def pushed_top(ktree, col):
    """r: the root point u under one top in column `col`, and its
    push-down to eps[9] with the bijection."""
    u, z = Point(ktree.root_eps()[1], 0), Point(TOP, col)
    r = make_condition("kappa", [u, z], [(u, z)], complete=True)
    pp, g = push_down(r, 9, ktree)
    return r, pp, g


def test_pull_back_names_the_missing_points_in_key_order():
    with pytest.raises(AmalgamError) as err:
        pull_back(*missing_pull_back())
    landed = ", ".join(f"Point(level=Ordinal('w*9'), xi={xi})" for xi in range(3))
    assert str(err.value) == f"pushed points missing from the amalgam: {{{landed}}}"


def test_pull_back_refuses_pushed_points_missing_from_the_amalgam(ktree):
    r, pp, g = pushed_top(ktree, 0)
    landed = Point(ktree.root_eps()[9], 0)
    rp = make_condition("kappa", pp.points - {landed})
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    with pytest.raises(AmalgamError) as err:
        pull_back(rp, r, r, g, g, ktree, F)
    assert str(err.value) == f"pushed points missing from the amalgam: {{{landed!r}}}"


@pytest.mark.parametrize("name", ["first", "second"])
def test_pull_back_refuses_a_result_not_below_a_member(ktree, name):
    # u < a in the related member only; the amalgam keeps u and a apart
    eps = ktree.root_eps()
    u, a = Point(eps[1], 0), Point(eps[6], 0)
    related = make_condition("kappa", [u, a], [(u, a)], complete=True)
    apart = make_condition("kappa", [u, a])
    assert validate(apart, ktree) == []
    members = (related, apart) if name == "first" else (apart, related)
    ident = {x: x for x in apart.points}
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    with pytest.raises(AmalgamError) as err:
        pull_back(apart, *members, ident, ident, ktree, F)
    assert str(err.value) == f"pull-back is not below the {name} member"


def test_pull_back_without_a_kept_verdict_validates_in_full(ktree):
    r_nu, r_mu, pp, qq, g_nu, g_mu, pairing, stamps, F = eta_inputs(ktree, 0)
    res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
    args = (r_nu, r_mu, g_nu, g_mu, ktree, F, res.gamma)
    r, calls = judged_pull_back(unjudged(res.condition), *args)
    assert [(fresh, within, found) for fresh, within, _, found in calls] == [(-1, -1, [])]
    assert r == judged_pull_back(res.condition, *args)[0]


def test_pull_back_with_a_point_above_a_landing_point_validates_in_full(ktree):
    # w sits above the landing point, so its pair with the returned top
    # takes the landing point's meet, the top itself
    r, pp, g = pushed_top(ktree, 0)
    eps = ktree.root_eps()
    u, landed, w = Point(eps[1], 0), Point(eps[9], 0), Point(eps[10], 0)
    rp = make_condition("kappa", [u, landed, w], [(u, landed), (landed, w)], complete=True)
    assert validate(rp, ktree) == []
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    err, calls = judged_pull_back(rp, r, r, g, g, ktree, F)
    assert [(fresh, within) for fresh, within, _, _ in calls] == [(-1, -1)]
    assert str(err) == (
        "pull-back failed validation: "
        "meet-axiom [(w*10, 0), (TOP, 0)]: lower-bound set mismatch at {(TOP, 0)}; "
        "meet-location [(w*10, 0), (TOP, 0)]: meet point at the top level"
    )


def test_pull_back_onto_a_kept_point_validates_in_full(ktree):
    # the bijection returns the landing point onto w, a point the amalgam
    # keeps, so w's pairs take the landing point's meets as candidates
    eps = ktree.root_eps()
    u, w, landed = Point(eps[1], 0), Point(eps[2], 0), Point(eps[9], 0)
    rp = make_condition("kappa", [u, w, landed], [(u, landed)], complete=True)
    assert validate(rp, ktree) == []
    r = make_condition("kappa", [u, w], [(u, w)], complete=True)
    g = {u: u, w: w, landed: w}
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    out, calls = judged_pull_back(rp, r, r, g, g, ktree, F)
    assert [(fresh, within, found) for fresh, within, _, found in calls] == [(-1, -1, [])]
    assert out == r


def test_pull_back_from_an_omega_amalgam_validates_in_full(ktree):
    # the omega amalgam is valid with a two-point meet, which the kappa
    # pull-back may not keep
    eps = ktree.root_eps()
    c1, c2, a, b = (Point(eps[k], 0) for k in (1, 2, 5, 6))
    landed, z = Point(eps[9], 0), Point(TOP, 0)
    rel = [(c, x) for c in (c1, c2) for x in (a, b)]
    rp = make_condition("omega", [c1, c2, a, b, landed], rel, complete=True)
    assert validate(rp, ktree) == [] and rp.meet(a, b) == {c1, c2}
    r = make_condition("kappa", [z])
    g = {landed: z}
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    err, calls = judged_pull_back(rp, r, r, g, g, ktree, F)
    assert [(fresh, within) for fresh, within, _, _ in calls] == [(-1, -1)]
    assert str(err).startswith("pull-back failed validation: meet-arity [(w*5, 0), (w*6, 0)]")


def test_pull_back_names_what_the_returned_tops_break(ktree):
    # the top's column is past lambda_w = 8; the amalgam itself is valid
    # and judged, so only the top and the pairs of two tops are checked,
    # and validate then names the same clause in full
    r, pp, g = pushed_top(ktree, 8)
    assert pp.judged_valid(ktree, None)
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    err, calls = judged_pull_back(pp, r, r, g, g, ktree, F)
    tops = tops_mask(calls[0][2])
    assert [(fresh, within) for fresh, within, _, _ in calls] == [(tops, tops), (-1, -1)]
    assert calls[0][3] == calls[1][3] == naive_validate(calls[0][2], ktree, F)
    want = "pull-back failed validation: grid [(TOP, 8)]: top column 8 out of range"
    assert str(err) == want
    assert str(judged_pull_back(unjudged(pp), r, r, g, g, ktree, F)[0]) == want


def test_pull_back_from_a_landing_level_off_the_root_markers_checks_every_top_pair(ktree):
    # l sits at w*9 + 1, no root marker, so the pairs of kept points with
    # the returned top are checked too: the mask of pairs is not narrowed
    eps = ktree.root_eps()
    u, landed, z = Point(eps[1], 0), Point(eps[9] + ONE, 0), Point(TOP, 0)
    rp = make_condition("kappa", [u, landed], [(u, landed)], complete=True)
    assert validate(rp, ktree) == []
    r = make_condition("kappa", [u, z], [(u, z)], complete=True)
    g = {u: u, landed: z}
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    out, calls = judged_pull_back(rp, r, r, g, g, ktree, F)
    tops = tops_mask(calls[0][2])
    assert [(fresh, within, found) for fresh, within, _, found in calls] == [
        (tops, -1, []),
        (-1, -1, []),
    ]
    assert out == r == judged_pull_back(unjudged(rp), r, r, g, g, ktree, F)[0]


def test_pull_back_below_a_landing_point_in_its_last_interval_checks_every_top_pair(ktree):
    """x at w*8 + 1 lies in [w*8, w*9), the depth-1 interval that ends at
    the landing level w*9, so in rp the landing point itself is the
    interpolant witness for (x, l).  The returned top leaves no point at
    w*9: the check of the top pairs alone would miss that, so every pair
    with the returned top is checked and the refusal is named."""
    eps = ktree.root_eps()
    x, landed, z = Point(eps[8] + ONE, 0), Point(eps[9], 0), Point(TOP, 0)
    rp = make_condition("kappa", [x, landed], [(x, landed)], complete=True)
    assert validate(rp, ktree) == []
    member = make_condition("kappa", [x, z], [(x, z)], complete=True)
    g = {x: x, landed: z}
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    err, calls = judged_pull_back(rp, member, member, g, g, ktree, F)
    r = calls[0][2]
    tops = tops_mask(r)
    assert [(fresh, within) for fresh, within, _, _ in calls] == [(tops, -1), (-1, -1)]
    want = naive_validate(r, ktree, F)
    assert calls[0][3] == calls[1][3] == want != []
    assert violations_touching(unjudged(r), ktree, F, tops, (), tops) == []
    assert str(err) == (
        "pull-back failed validation: isolation-interpolant [(w*8 + 1, 0), (TOP, 0)]: "
        "split interval [w*8, w*9) isolates but no point sits at w*9"
    )
    assert str(judged_pull_back(unjudged(rp), member, member, g, g, ktree, F)[0]) == str(err)


@pytest.mark.parametrize("flat", [1, 12])
def test_pull_back_checks_a_kept_top_against_the_returned_top(ktree, flat):
    """The kept top y and the landing point l meet at u in rp, a top and a
    sub-top point; once l returns as the top z, (y, z) is a pair of two tops,
    whose meet must lie below F's value.  The narrowed check covers it: a
    table of w refuses the meet at w, a table of w*12 keeps it."""
    eps = ktree.root_eps()
    u, landed = Point(eps[1], 0), Point(eps[9], 0)
    y, z = Point(TOP, 1), Point(TOP, 0)
    rp = make_condition("kappa", [u, landed, y], [(u, landed), (u, y)], complete=True)
    assert validate(rp, ktree) == [] and rp.meet(landed, y) == {u}
    member = make_condition("kappa", [u, y, z], [(u, y), (u, z)], complete=True)
    g = {u: u, y: y, landed: z}
    F = flat_F(ktree, ktree.params.lambda_w, flat)
    out, calls = judged_pull_back(rp, member, member, g, g, ktree, F)
    r = calls[0][2]
    returned = 1 << r.core().index[z]
    assert [(fresh, within) for fresh, within, _, _ in calls] == [
        (returned, tops_mask(r)),
        (-1, -1),
    ]
    assert calls[0][3] == calls[1][3] == naive_validate(r, ktree, F)
    twin = judged_pull_back(unjudged(rp), member, member, g, g, ktree, F)[0]
    if flat == 1:
        want = (
            "pull-back failed validation: "
            "meet-location [(TOP, 0), (TOP, 1)]: w not a root marker below F value w"
        )
        assert str(out) == str(twin) == want
    else:
        assert out == twin == member and out.judged_valid(ktree, F)


# --- the kappa route end to end ------------------------------------------------


def test_amalgamate_kappa_matches_the_stages(ktree):
    for seed in range(60):
        r_nu, r_mu, pp, qq, g_nu, g_mu, pairing, stamps, F = eta_inputs(ktree, seed)
        res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
        want = pull_back(res.condition, r_nu, r_mu, g_nu, g_mu, ktree, F, res.gamma)
        _, _, zn, zm, _ = kappa_instance(ktree, random.Random(seed))
        assert amalgamate_kappa(r_nu, r_mu, zn, zm, ktree, F) == want


def test_amalgamate_kappa_names_the_push_stage(ktree):
    r_nu, r_mu, zn, zm, F = kappa_instance(ktree, random.Random(0))
    with pytest.raises(HypothesisViolationError) as err:
        amalgamate_kappa(r_nu, r_mu, zn + 1, zm, ktree, F)
    assert err.value.stage == "push"


def test_amalgamate_kappa_counts_a_stamp_failure_as_eta(ktree):
    # the pair of test_stamp_rejects_mismatched_tags pushes and refines, but
    # its member points carry different tags
    eps = ktree.root_eps()
    u = Point(eps[1], 0)
    s, t = Point(eps[4], 0), Point(eps[5], 0)
    a = make_condition("kappa", [u, s], [(u, s)], complete=True)
    b = make_condition("kappa", [u, t], [(u, t)], complete=True)
    F = flat_F(ktree, ktree.params.lambda_w, 12)
    with pytest.raises(HypothesisViolationError, match="not pairwise equivalent") as err:
        amalgamate_kappa(a, b, 9, 12, ktree, F)
    assert err.value.stage == "eta"


def test_amalgamate_kappa_names_the_pull_stage(ktree):
    low = flat_F(ktree, ktree.params.lambda_w, 1)
    for seed in range(60):
        r_nu, r_mu, zn, zm, _ = kappa_instance(ktree, random.Random(seed))
        tops_nu = {x for x in r_nu.points if x.is_top}
        tops_mu = {x for x in r_mu.points if x.is_top}
        if not (tops_nu - tops_mu and tops_mu - tops_nu):
            continue
        with pytest.raises(FGapError) as err:
            amalgamate_kappa(r_nu, r_mu, zn, zm, ktree, low)
        assert err.value.stage == "pull"
        return
    pytest.fail("no instance with private tops on both sides")
