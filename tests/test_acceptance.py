"""Acceptance gate: one test per headline guarantee, each with its own
instance budget and wall-clock ceiling.  Every check here re-derives its
expectation through an independent route (frozen enumeration, naive
oracle, or planted construction); nothing is compared against the
implementation's own output.
"""

import itertools
import random
import time

from scatterlab.amalgam import (
    MaxUndefinedError,
    SearchExhaustedError,
    SeparatedFamily,
    amalgamate_eta,
    amalgamate_omega,
    canonical_pairing,
    equivalence_stamp,
    pull_back,
    push_down,
)
from scatterlab.analysis import (
    finite_cb,
    omega_valuation,
    ordinal_space_levels,
)
from scatterlab.conditions import (
    TOP,
    ConditionError,
    Point,
    extend_below,
    leq,
    validate,
)
from scatterlab.generic import (
    PredecessorBelow,
    RealizePoint,
    Schedule,
    cardinal_profile,
    run_schedule,
    skeleton_check,
    sposet_check,
    tightness_probe,
)
from scatterlab.intervals import IntervalTree, Params, TreeError, tree_axiom_report
from scatterlab.ordinals import (
    ONE,
    ZERO,
    Ordinal,
    cb_level,
    from_int,
    omega_pow,
    parse,
)
from scatterlab.unbounded import UnboundedFn, f_generate, star_search

from .conftest import wall_clock
from .corpus import (
    drop_meet,
    drop_witness,
    flat_F,
    kappa_instance,
    kappa_tree,
    omega_instance,
    omega_tree,
    walk_condition,
)
from .oracles import (
    naive_cb,
    naive_eta_search,
    naive_star_search,
    naive_star_search_by_verify,
    omega_cross_filter,
)
from .test_analysis import random_space

W = parse("w")


class Clock:
    def __init__(self, limit: float):
        self.limit = limit
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{elapsed:.1f}s over the {self.limit}s ceiling"


def clauses(violations):
    return {v.clause for v in violations}


# 1. Root orbits enumerate exactly the prior markers, all 64 of them.


def test_acceptance_root_orbits_enumerate_prior_markers():
    clock = Clock(1.0)
    tree = IntervalTree(Params(parse("w^2"), e_budget=64))
    eps = tree.root_eps()
    for nu in range(64):
        assert tree.orbit(eps[nu]) == eps[:nu]
    clock.check()


# 2. The split interval of (alpha, beta) is the marker gap holding alpha.


def test_acceptance_split_interval_locates_marker_gap():
    clock = Clock(5.0)
    tree = IntervalTree(Params(parse("w^2"), e_budget=64))
    eps = tree.root_eps()
    eta = tree.params.eta
    rng = random.Random(20260816)
    for _ in range(10_000):
        zeta = rng.randrange(63)
        alpha = eps[zeta] + rng.randrange(50)
        if rng.random() < 0.05:
            beta = eta
        else:
            # stay below the last materialized marker
            k = rng.randrange(zeta + 1, 64)
            beta = eps[k] + (rng.randrange(50) if k < 63 else 0)
        j, J = tree.j_and_J(alpha, beta)
        assert J.lo == eps[zeta] and J.hi == eps[zeta + 1], (alpha, beta)
    clock.check()


# 3. Tree laws hold on full truncations across the eta roster.


def test_acceptance_tree_axioms_on_full_truncations():
    clock = Clock(10.0)
    for eta in ("w*5", "w^2", "w^2*3", "w^3"):
        tree = IntervalTree(Params(parse(eta), e_budget=32), depth_cap=6)
        report = tree_axiom_report(tree, 6)
        assert report.ok and report.failures == [], (eta, report.failures)
        assert sum(report.checks.values()) > 0
    clock.check()


# 4. Fresh-point extension: output validates and mirrors its target.


def _seeded_extension(tree, dialect, seed):
    rng = random.Random(seed)
    cond = walk_condition(tree, dialect, rng, steps=2)
    eps = tree.root_eps()
    cap = len(eps) - 3
    tgt = rng.choice(sorted(cond.points, key=str))
    if tgt.is_top:
        hi = cap
    else:
        hi = next(i for i, e in enumerate(eps) if not e < tgt.level) - 1
        hi = min(hi, cap)
    if hi < 1:
        return None
    alpha = eps[rng.randint(1, hi)]
    if rng.random() < 0.5:
        alpha = alpha + rng.randint(1, 3)
    try:
        ext, fresh = extend_below(cond, tgt, alpha, 0, tree)
    except (ConditionError, TreeError):
        return None
    return cond, tgt, ext, fresh


def test_acceptance_extension_validates_and_mirrors_target():
    clock = Clock(30.0)
    for dialect, tree in (("kappa", kappa_tree()), ("omega", omega_tree())):
        done = 0
        for seed in range(4000):
            out = _seeded_extension(tree, dialect, seed)
            if out is None:
                continue
            cond, tgt, ext, fresh = out
            assert validate(ext, tree) == []
            assert leq(ext, cond)
            for x in cond.points:
                assert ext.le(fresh, x) == ext.le(tgt, x)
            done += 1
            if done == 1000:
                break
        assert done == 1000, f"{dialect}: only {done} instances in the seed budget"
    clock.check()


# 5. Union amalgam: valid, below both members, cross meets recomputed
#    independently through the root filter.


def test_acceptance_union_amalgam_valid_below_with_oracle_meets():
    clock = Clock(60.0)
    tree = omega_tree()
    for seed in range(500):
        p, q, root, F = omega_instance(tree, random.Random(seed))
        r = amalgamate_omega(p, q, root, F, tree)
        assert validate(r, tree, F) == []
        assert leq(r, p) and leq(r, q)
        expected = omega_cross_filter(p, q, root)
        for (s, t), want in expected.items():
            assert r.meet(s, t) == want, (seed, s, t)
    clock.check()


# 6. Grid pipeline: push down, amalgamate, pull back; every meet maximum
#    well-defined, member meet tables preserved, small instances checked
#    against the exhaustive search.


def test_acceptance_grid_pipeline_and_exhaustive_oracle():
    clock = Clock(300.0)
    tree = kappa_tree()
    oracle_checked = 0
    for seed in range(200):
        r_nu, r_mu, zn, zm, F = kappa_instance(tree, random.Random(seed))
        pp, g_nu = push_down(r_nu, zn, tree)
        qq, g_mu = push_down(r_mu, zm, tree)
        pairing = canonical_pairing(pp, qq)
        fam = SeparatedFamily((pp, qq), pp.points & qq.points, {(0, 1): pairing})
        stamps = equivalence_stamp(fam, tree)
        res = amalgamate_eta(pp, qq, pairing, stamps, tree)
        try:
            r = pull_back(res.condition, r_nu, r_mu, g_nu, g_mu, tree, F, res.gamma)
        except MaxUndefinedError as err:
            raise AssertionError(f"seed {seed}: meet maximum undefined: {err}")
        assert validate(r, tree, F) == []
        assert leq(r, r_nu) and leq(r, r_mu)
        for member in (r_nu, r_mu):
            for (a, b), want in member.meets:
                assert r.meet(a, b) == want, (seed, a, b)
        if len(pp.points | qq.points) <= 12:
            successes = naive_eta_search(pp, qq, pairing, stamps, tree, max_fresh=3)
            try:
                res3 = amalgamate_eta(pp, qq, pairing, stamps, tree, max_fresh=3)
            except SearchExhaustedError:
                assert successes == []
            else:
                assert any(res3.condition == c for c in successes), seed
            oracle_checked += 1
    assert oracle_checked > 0
    clock.check()


# 7. Negative controls: every planted defect is flagged with its clause.


def test_acceptance_mutation_suites_flag_correct_clause():
    clock = Clock(60.0)
    ktree = kappa_tree()
    otree = omega_tree()

    flagged = 0
    for seed in itertools.count():
        rng = random.Random(seed)
        cond = walk_condition(ktree, "kappa", rng, steps=4)
        mutant = drop_meet(cond, rng)
        if mutant is None:
            continue
        assert "meet-axiom" in clauses(validate(mutant, ktree)), seed
        flagged += 1
        if flagged == 100:
            break

    low_F = flat_F(otree, otree.params.lambda_w, 0)
    flagged = 0
    for seed in itertools.count():
        p, q, _, _ = omega_instance(otree, random.Random(seed))
        for cond in (p, q):
            tops = [x for x in cond.points if x.is_top]
            if not any(
                cond.meet(s, t)
                for s, t in itertools.combinations(sorted(tops, key=str), 2)
            ):
                continue
            assert "top-meet-bound" in clauses(validate(cond, otree, low_F)), seed
            flagged += 1
            if flagged == 100:
                break
        if flagged == 100:
            break

    flagged = 0
    for seed in itertools.count():
        rng = random.Random(seed)
        cond = walk_condition(ktree, "kappa", rng, steps=4)
        mutant = drop_witness(cond, ktree, rng)
        if mutant is None:
            continue
        assert "isolation-interpolant" in clauses(validate(mutant, ktree)), seed
        flagged += 1
        if flagged == 100:
            break
    clock.check()


# 8. Family search agrees with the naive oracle on the whole small domain.


def test_acceptance_family_search_matches_naive_oracle():
    clock = Clock(120.0)
    tree = IntervalTree(Params(parse("w^2"), e_budget=8))
    eps = tree.root_eps()
    gammas = list(eps)
    for lambda_w in (3, 4, 5, 6):
        tables = [
            UnboundedFn(
                lambda_w,
                eps,
                {
                    pair: idx
                    for pair in itertools.combinations(range(lambda_w), 2)
                },
            )
            for idx in (0, 4, 8)
        ]
        for seed in range(5):
            tables.append(
                f_generate(
                    Params(parse("w^2"), kappa_w=2, lambda_w=lambda_w, e_budget=8),
                    eps,
                    seed=seed,
                )
            )
        for F in tables:
            for nu in (1, 2):
                for m in (2, 3):
                    if m * nu > lambda_w:
                        continue
                    got = star_search(F, m, nu, gammas)
                    instances, failures = naive_star_search(F, m, nu, gammas)
                    assert got.ok == (not failures)
                    if failures:
                        assert got.counterexample == failures[0]
                    else:
                        assert got.instances == instances
                    # pins instances on the failing path too
                    assert got == naive_star_search_by_verify(F, m, nu, gammas)
    clock.check()


# 9. Derivative analysis: exact agreement with the naive topology oracle,
#    and the symbolic level of each ordinal point matches its rank.


def test_acceptance_derivative_oracles_agree():
    clock = Clock(60.0)
    for seed in range(200):
        space = random_space(random.Random(seed), max_points=8)
        report = finite_cb(space)
        levels, residual = naive_cb(space.points, space.subbase)
        assert [set(members) for _, members in report.levels] == [
            set(lv) for lv in levels
        ]
        assert set(report.residual) == set(residual)

    rng = random.Random(99)
    w3 = parse("w^3")
    samples = [ZERO, ONE, W, w3]
    while len(samples) < 1000:
        beta = ZERO
        for e in range(rng.randint(0, 3), -1, -1):
            c = rng.randint(0, 6)
            if c:
                beta = beta + omega_pow(from_int(e), c)
        if beta < w3 or beta == w3:
            samples.append(beta)
    for beta in samples:
        e = cb_level(beta)
        assert omega_valuation(beta) == e or beta.is_zero
        rep = ordinal_space_levels(beta)
        if beta.is_zero:
            assert rep.tags == ((0, "1"),)
            continue
        lead = beta.leading_exponent.as_int()
        assert rep.height == lead + 1
        assert rep.ht_minus == lead
        tag = rep.tag(e)
        if tag == "w":
            assert e < rep.ht_minus
        else:
            members = dict(rep.finite_members)[e]
            assert members[-1] == beta
    clock.check()


# 10. Generic runs: density budget N=5 realized and checked, skeleton
#     clean on every sub-top level, tightness counting on planted posets.


def test_acceptance_generic_runs_meet_budget_and_probes():
    clock = Clock(120.0)
    tree = IntervalTree(Params(parse("w^2"), kappa_w=8, lambda_w=12, e_budget=16))
    F = flat_F(tree, 12, 12)

    steps = [RealizePoint(TOP, 0), RealizePoint(TOP, 1)]
    steps += [PredecessorBelow(Point(TOP, 0), W, 0)] * 5
    steps += [PredecessorBelow(Point(TOP, 1), parse("w*3"), 0)] * 5
    for dialect in ("omega", "kappa"):
        T = run_schedule(Schedule(tuple(steps)), tree, F, dialect)
        rep = sposet_check(T, 5)
        assert rep.partition == ()
        assert rep.level_order == ()
        assert rep.meet_witness == ()
        assert all(n >= 5 for _, _, n in rep.density) and len(rep.density) == 2
        assert rep.ok
        assert cardinal_profile(T).top_width == 2

    omega_steps = [RealizePoint(TOP, 0)]
    omega_steps += [PredecessorBelow(Point(TOP, 0), parse("w*2"), 0)] * 3
    T = run_schedule(Schedule(tuple(omega_steps)), tree, F, "omega")
    skel = skeleton_check(T, T.sub_top_levels())
    assert [lvl for lvl, _ in skel.verdicts] == list(T.sub_top_levels())
    assert skel.ok

    for k in (2, 3, 4):
        x = Point(W + ONE, 0)
        steps = [RealizePoint(x.level, 0)]
        steps += [PredecessorBelow(x, W, 0)] * k
        T = run_schedule(Schedule(tuple(steps)), tree, F, "kappa")
        us = [u for u in T.points_at(W) if T.lt(u, x)]
        steps += [PredecessorBelow(u, from_int(1), 0) for u in us]
        T = run_schedule(Schedule(tuple(steps)), tree, F, "kappa")
        A = list(T.points_at(from_int(1)))
        probe = tightness_probe(T, x, A)
        assert probe.ok, probe.violations
        assert len(probe.u_set) == k
        assert len({a for _, a in probe.witnesses}) == k
    clock.check()


# 11. Long schedules: 300 steps to 300 points in each dialect, both under
#     15 s, every step checked only on its new pairs; the last condition
#     passes the full validate and the poset the graded check.


def test_acceptance_long_schedules_run_step_by_step():
    tree = IntervalTree(Params(parse("w^2"), kappa_w=32, lambda_w=40, e_budget=16, size_cap=400))
    F = flat_F(tree, 40, 12)
    eps = tree.root_eps()
    # 20 tops, then 14 rounds of one predecessor below each, two tops to a level
    steps = [RealizePoint(TOP, i) for i in range(20)]
    steps += [PredecessorBelow(Point(TOP, i), eps[1 + i % 10], 0) for _ in range(14) for i in range(20)]
    with wall_clock(15):
        for dialect in ("omega", "kappa"):
            T = run_schedule(Schedule(tuple(steps)), tree, F, dialect)
            assert len(T.provenance) == 301 and len(T.points) >= 300
            assert validate(T.provenance[-1], tree, F) == []
            assert sposet_check(T, 14).ok
            del T  # the chain of 301 conditions holds about 230 MB
