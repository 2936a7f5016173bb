"""Amalgamation layer: sunflowers, separated families, both dialect
amalgams, the push/pull pipeline, and their failure modes."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .corpus import (
    broken_mirror,
    eta_inputs,
    flat_F,
    kappa_instance,
    kappa_tree,
    level_sharing_family,
    mirror_of,
    omega_instance,
    omega_tree,
    order_mismatch_family,
)
from .oracles import (
    naive_deficient,
    naive_eta_search,
    naive_r2_report,
    naive_separated_report,
    naive_sunflower,
    omega_cross_filter,
)
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
)
from scatterlab.intervals import Interval, IntervalTree, Params
from scatterlab.ordinals import ONE, parse
from scatterlab.unbounded import UnboundedFn


def pt(level, xi=0):
    return Point(TOP if level == "top" else parse(level), xi)


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


def test_pull_back_fgap(ktree):
    r_nu, r_mu, pp, qq, g_nu, g_mu, pairing, stamps, F = eta_inputs(ktree, 1)
    res = amalgamate_eta(pp, qq, pairing, stamps, ktree)
    low = flat_F(ktree, ktree.params.lambda_w, 1)
    if {x for x in r_nu.points if x.is_top} - r_mu.points and {
        x for x in r_mu.points if x.is_top
    } - r_nu.points:
        with pytest.raises(FGapError):
            pull_back(res.condition, r_nu, r_mu, g_nu, g_mu, ktree, low, res.gamma)


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
