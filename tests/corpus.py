"""Seeded instance builders shared by the heavier test modules.

Everything here is deterministic in the passed rng.  Builders return
fully validated conditions; they raise AssertionError if a template
ever stops validating, so tests fail loudly on generator rot.
"""

import random

from scatterlab import fmt
from scatterlab.amalgam import (
    SeparatedFamily,
    amalgamate_eta,
    canonical_pairing,
    equivalence_stamp,
    push_down,
)
from scatterlab.conditions import (
    FORMAT_HEADER,
    PARAM_KEYS,
    TOP,
    Point,
    extend_below,
    extend_condition,
    make_condition,
    point_key,
    validate,
)
from scatterlab.cli import pair_instance
from scatterlab.generic import FORMAT_HEADER_POSET, FinitePoset
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import Ordinal, parse
from scatterlab.unbounded import UnboundedFn


def flat_F(tree, lambda_w, index):
    """Constant table: every pair gets the index-th root marker."""
    eps = tree.root_eps()
    entries = {
        (i, j): index for i in range(lambda_w) for j in range(i + 1, lambda_w)
    }
    return UnboundedFn(lambda_w, eps, entries)


def finite_poset(dialect, points, strict, meets, targeted=()):
    """A FinitePoset from raw parts in any order: the points and strict
    pairs frozen, the meet map (keyed by canonical pairs) passed through."""
    return FinitePoset(dialect, frozenset(points), frozenset(strict), meets, targeted)


# --- omega pairs -------------------------------------------------------------


def omega_tree():
    return IntervalTree(Params(parse("w^2"), kappa_w=3, lambda_w=12, e_budget=16))


def omega_instance(tree, rng: random.Random):
    """A pair of omega conditions satisfying every union-amalgam hypothesis.

    Returns (p, q, root_points, F).  Shared part: a root chain of one or
    two marker-level points under a shared top.  Each member adds points
    at its own marker levels (disjoint pools) and possibly a private top.
    """
    eps = tree.root_eps()
    root_n = rng.randint(1, 2)
    chain = [Point(eps[i], 0) for i in range(root_n)]
    z = Point(TOP, 0)
    root = chain + [z]

    pool = list(range(root_n, 10))
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 2)
    pools = (sorted(pool[:cut]), sorted(pool[cut:]))
    top_cols = ([1, 2], [3, 4])

    def member(side):
        pts = list(root)
        rel = [(a, b) for a, b in zip(chain, chain[1:])]
        rel += [(chain[-1], z)]
        n_mid = rng.randint(1, min(2, len(pools[side])))
        levels = sorted(rng.sample(pools[side], n_mid))
        mids = [Point(eps[i], 0) for i in levels]
        for m in mids:
            pts.append(m)
            rel.append((chain[-1], m))
            if rng.random() < 0.7:
                rel.append((m, z))
        if len(mids) == 2 and rng.random() < 0.5:
            rel.append((mids[0], mids[1]))
        if rng.random() < 0.6:
            w = Point(TOP, top_cols[side][rng.randint(0, 1)])
            pts.append(w)
            for m in mids:
                if rng.random() < 0.7:
                    rel.append((m, w))
            if rng.random() < 0.5:
                rel.append((chain[0], w))
        return make_condition("omega", pts, rel, complete=True)

    p = member(0)
    q = member(1)
    F = flat_F(tree, tree.params.lambda_w, 12 + rng.randint(0, 3))
    for cond in (p, q):
        found = validate(cond, tree, F)
        assert not found, f"omega template broke: {found}"
    return p, q, frozenset(root), F


# --- kappa members with tops -------------------------------------------------


def kappa_tree():
    return IntervalTree(Params(parse("w^2"), kappa_w=3, lambda_w=8, e_budget=16))


def kappa_instance(tree, rng: random.Random):
    """Two kappa conditions with private tops over a shared sub-top root.

    Returns (r_nu, r_mu, zeta_nu, zeta_mu, F): the pair and push levels of
    `cli.pair_instance` (at kappa_w = 3 the push levels are 9 and 12), then
    a flat table drawn from the same rng.
    """
    r_nu, r_mu, zeta_nu, zeta_mu = pair_instance(tree, rng)
    F = flat_F(tree, tree.params.lambda_w, 12 + rng.randint(0, 3))
    for cond in (r_nu, r_mu):
        found = validate(cond, tree, F)
        assert not found, f"kappa template broke: {found}"
    return r_nu, r_mu, zeta_nu, zeta_mu, F


def eta_inputs(tree, seed):
    """The grid-amalgam inputs of `kappa_instance`'s pair for `seed`: both
    members pushed down, their canonical pairing as a two-member family,
    and its stamps.  Returns (r_nu, r_mu, pp, qq, g_nu, g_mu, pairing,
    stamps, F)."""
    rng = random.Random(seed)
    r_nu, r_mu, zn, zm, F = kappa_instance(tree, rng)
    pp, g_nu = push_down(r_nu, zn, tree)
    qq, g_mu = push_down(r_mu, zm, tree)
    pairing = canonical_pairing(pp, qq)
    fam = SeparatedFamily((pp, qq), pp.points & qq.points, {(0, 1): pairing})
    stamps = equivalence_stamp(fam, tree)
    return r_nu, r_mu, pp, qq, g_nu, g_mu, pairing, stamps, F


def mirror_of(pp, pairing):
    """The pairing of pp's points and its inverse, as one map."""
    mirror = {}
    for s in pp.points:
        mirror[s] = pairing[s]
        mirror[pairing[s]] = s
    return mirror


def level_sharing_family(tree):
    """Two members over a one-point root that add a point at the same
    level, in different columns."""
    eps = tree.root_eps()
    u = Point(eps[1], 0)
    a = make_condition("kappa", [u, Point(eps[5], 0)], [(u, Point(eps[5], 0))])
    b = make_condition("kappa", [u, Point(eps[5], 1)], [(u, Point(eps[5], 1))])
    return SeparatedFamily((a, b), frozenset({u}), {(0, 1): canonical_pairing(a, b)})


def order_mismatch_family(tree):
    """Two members over a one-point root whose private points sit above
    the root in one member and beside it in the other."""
    eps = tree.root_eps()
    u, s1, s2 = Point(eps[1], 0), Point(eps[5], 0), Point(eps[6], 0)
    a = make_condition("kappa", [u, s1], [(u, s1)], complete=True)
    b = make_condition("kappa", [u, s2], [], complete=True)
    return SeparatedFamily((a, b), frozenset({u}), {(0, 1): canonical_pairing(a, b)})


def broken_mirror(tree):
    """A grid amalgam with one extra pair that breaks the mirror symmetry:
    on the first `eta_inputs` seed whose amalgam has a fresh point v and a
    private point x of the second member incomparable to v, v is put
    below x.  Returns (broken, pp, qq, mirror)."""
    for seed in range(40):
        _, _, pp, qq, _, _, pairing, stamps, _ = eta_inputs(tree, seed)
        res = amalgamate_eta(pp, qq, pairing, stamps, tree)
        if not res.fresh_points:
            continue
        v = res.fresh_points[0]
        r = res.condition
        above = sorted(
            (x for x in qq.points - pp.points if not r.comparable(v, x)), key=str
        )
        if above:
            broken = make_condition(
                "kappa", r.points, set(r.strict) | {(v, above[0])}, dict(r.meets)
            )
            return broken, pp, qq, mirror_of(pp, pairing)
    raise AssertionError("no asymmetric extension found")


# --- random conditions by extension walks -------------------------------------


def walk_condition(tree, dialect, rng: random.Random, steps=3):
    """Grow a condition from a top seed by repeated fresh-point extension."""
    z = Point(TOP, 0)
    cond = make_condition(dialect, [z])
    eps = tree.root_eps()
    # keep two spare markers so witness chains stay splittable
    cap = len(eps) - 3
    for _ in range(steps):
        tgt = rng.choice(sorted(cond.points, key=str))
        if tgt.is_top:
            hi = cap
        else:
            hi = next(i for i, e in enumerate(eps) if not e < tgt.level) - 1
            hi = min(hi, cap)
        if hi < 1:
            continue
        idx = rng.randint(1, hi)
        alpha = eps[idx]
        if rng.random() < 0.5:
            # interior level: forces witness chains (kappa) or gives later
            # extensions a successor-level target to ladder up to (omega)
            alpha = alpha + rng.randint(1, 3)
        try:
            cond, _ = extend_below(cond, tgt, alpha, 0, tree)
        except Exception:
            continue
    return cond


def drop_meet(cond, rng: random.Random):
    """Meet-axiom mutant: blank one nonempty meet entry.

    Returns None when the condition has no nonempty meets to break.
    """
    rows = [(k, v) for k, v in cond.meets if v]
    if not rows:
        return None
    key, _ = rows[rng.randrange(len(rows))]
    table = dict(cond.meets)
    table[key] = frozenset()
    return make_condition(cond.dialect, cond.points, cond.strict, table)


def drop_witness(cond, tree, rng: random.Random):
    """Isolation mutant: delete one interpolant point outright.

    Picks a point that is the unique witness of some isolating split and
    rebuilds the condition without it, recomputing meets so only the
    witness clause breaks.  Returns None when no pair qualifies.
    """
    from scatterlab.conditions import point_key

    candidates = []
    for s, t in sorted(cond.strict, key=lambda st: (point_key(st[0]), point_key(st[1]))):
        if s.is_top:
            continue
        beta = tree.params.eta if t.is_top else t.level
        lam = tree.j_and_J(s.level, beta)[1]
        if not (lam.lo < s.level and lam.hi <= beta):
            continue
        ws = [
            u
            for u in cond.points
            if not u.is_top and u.level == lam.hi and cond.le(s, u) and cond.le(u, t)
        ]
        if len(ws) == 1 and ws[0] not in (s, t):
            candidates.append(ws[0])
    if not candidates:
        return None
    pool = sorted(set(candidates), key=point_key)
    victim = pool[rng.randrange(len(pool))]
    pts = cond.points - {victim}
    rel = {(a, b) for a, b in cond.strict if victim not in (a, b)}
    return make_condition(cond.dialect, pts, rel, complete=True)


def damaged_documents(text, indexed_section):
    """Damaged copies of a counted-section document, each of which its
    parser must refuse with a typed error: every proper prefix (so some
    section is shorter than its declared count, or missing), a misnumbered
    first point line, and the first line of `indexed_section` pointing past
    the last point or below the first.  Where point lines read `i level
    column`, also a non-integer column; where a `params` line exists, also
    one entry without its `=`; where a `dialect` line exists, also an
    unknown dialect; where a `subbase` section exists, also its first line
    without the leading `:`."""
    lines = text.splitlines()
    out = ["\n".join(lines[:k]) + "\n" for k in range(1, len(lines))]

    def edited(at, line):
        return "\n".join(lines[:at] + [line] + lines[at + 1 :]) + "\n"

    points = next(i for i, ln in enumerate(lines) if ln.startswith("points "))
    npts = int(lines[points].split()[1])
    out.append(edited(points + 1, "1 " + lines[points + 1].split(" ", 1)[1]))
    at = next(i for i, ln in enumerate(lines) if ln.startswith(indexed_section + " "))
    for bad in (str(npts), "-1"):
        out.append(edited(at + 1, lines[at + 1].rsplit(" ", 1)[0] + " " + bad))
    row = lines[points + 1].split()
    if len(row) == 3:
        out.append(edited(points + 1, f"{row[0]} {row[1]} x"))
    params = next((i for i, ln in enumerate(lines) if ln.startswith("params ")), None)
    if params is not None:
        out.append(edited(params, lines[params].replace("=", "", 1)))
    dialect = next((i for i, ln in enumerate(lines) if ln.startswith("dialect ")), None)
    if dialect is not None:
        out.append(edited(dialect, "dialect x"))
    subbase = next((i for i, ln in enumerate(lines) if ln.startswith("subbase ")), None)
    if subbase is not None:
        out.append(edited(subbase + 1, "x" + lines[subbase + 1][1:]))
    return out


def damaged_schedules(text):
    """Damaged copies of a schedule document that `schedule_from_text` must
    refuse with a typed error: every proper prefix, the first `below` line
    short of its last field, and a non-integer seed and column."""
    lines = text.splitlines()
    out = ["\n".join(lines[:k]) + "\n" for k in range(1, len(lines))]

    def edited(at, line):
        return "\n".join(lines[:at] + [line] + lines[at + 1 :]) + "\n"

    below = next(i for i, ln in enumerate(lines) if ln.startswith("below "))
    out.append(edited(below, lines[below].rsplit(" ", 1)[0]))
    out.append(edited(below, lines[below].rsplit(" ", 1)[0] + " x"))
    seed = next(i for i, ln in enumerate(lines) if ln.startswith("seed "))
    out.append(edited(seed, "seed x"))
    return out


def damaged_tables(text):
    """Damaged copies of a pair-table document that `unbounded.load` must
    refuse with `FamilyError`: every proper prefix, a non-integer
    `lambda_w`, the first row short of its third field, and a non-integer
    marker index in the first row."""
    lines = text.splitlines()
    out = ["\n".join(lines[:k]) + "\n" for k in range(1, len(lines))]

    def edited(at, line):
        return "\n".join(lines[:at] + [line] + lines[at + 1 :]) + "\n"

    out.append(edited(1, "lambda_w x"))
    out.append(edited(2, lines[2].rsplit(" ", 1)[0]))
    out.append(edited(2, lines[2].rsplit(" ", 1)[0] + " x"))
    return out


# --- inputs with several findings of one kind ---------------------------------
#
# Each names several points in one message, or gives several findings that
# differ only in the point they name, so their order shows whether the
# package lists points canonically (by point_key) or in the iteration order
# of a set of points, which follows the points' hashes.


def condition_document(dialect, points, order, meets=()):
    """A condition document over the corpus tree of `dialect`, written as
    given with no check: `points` as (level token, column) rows, `order`
    and the keys of `meets` as index pairs, each meet value as indices."""
    params = (kappa_tree() if dialect == "kappa" else omega_tree()).params
    widths = " ".join(f"{key}={getattr(params, key)}" for key in PARAM_KEYS)
    lines = [FORMAT_HEADER, f"dialect {dialect}", "eta w^2", f"params {widths}"]
    lines.append(f"points {len(points)}")
    lines += [f"{i} {level} {xi}" for i, (level, xi) in enumerate(points)]
    lines.append(f"order {len(order)}")
    lines += [f"{i} {j}" for i, j in order]
    lines.append(f"meets {len(meets)}")
    lines += [f"{i} {j} :" + "".join(f" {k}" for k in value) for (i, j), value in meets]
    return fmt.text(lines)


def cycle_documents():
    """Kappa documents whose order is one cycle w < w*2 < ... < w through
    3, 4 and 5 points."""
    docs = []
    for n in (3, 4, 5):
        points = [(f"w*{k + 1}", 0) for k in range(n)]
        docs.append(condition_document("kappa", points, [(k, (k + 1) % n) for k in range(n)]))
    return docs


def multi_meet_documents():
    """Kappa documents with two and with four meet points on one pair: the
    points (k, 0) for k = 1..n sit below (w*3 + 1, 0) and (w*5 + 2, 0),
    and all of them are that pair's meet, no level inside both orbits."""
    docs = []
    for n in (2, 4):
        points = [(str(k + 1), 0) for k in range(n)] + [("w*3+1", 0), ("w*5+2", 0)]
        order = [(k, n + side) for k in range(n) for side in (0, 1)]
        docs.append(condition_document("kappa", points, order, [((n, n + 1), range(n))]))
    return docs


def omega_top_meet():
    """An omega condition whose two tops meet at three points, none below
    F's value w*2 for the pair.  Returns (cond, tree, F)."""
    tree = omega_tree()
    eps = tree.root_eps()
    lows = [Point(eps[k], 0) for k in (3, 5, 7)]
    z0, z1 = Point(TOP, 0), Point(TOP, 1)
    rel = [(u, z) for u in lows for z in (z0, z1)]
    cond = make_condition("omega", lows + [z0, z1], rel, {(z0, z1): lows}, complete=True)
    return cond, tree, flat_F(tree, tree.params.lambda_w, 2)


def messy_poset_document():
    """A poset document over (1, 0) .. (7, 0) with two reflexive pairs, a
    two-cycle, a pair (5, 0) < (6, 0) whose upper end reaches three points
    the lower one does not, and one recorded meet of four points not below
    both ends."""
    points = [f"{k} {k + 1} 0" for k in range(7)]
    order = ["0 0", "1 1", "2 3", "3 2", "4 5", "5 0", "5 1", "5 6"]
    lines = [FORMAT_HEADER_POSET, "dialect kappa", f"points {len(points)}", *points]
    lines += [f"order {len(order)}", *order, "meets 1", "0 1 : 2 3 4 6", "targeted 0"]
    return fmt.text(lines)


def omega_hypotheses_pair():
    """Two omega members over the root (0, 0) < (w*2, 0) and a top that
    add points at root levels and below the root's top level, both.
    Returns (p, q, root, F, tree)."""
    tree = omega_tree()
    eps = tree.root_eps()
    root = [Point(eps[0], 0), Point(eps[2], 0), Point(TOP, 0)]
    p_extra = [Point(eps[0], 1), Point(eps[2], 1), Point(eps[1], 0), Point(eps[1], 1)]
    q_extra = [Point(eps[0], 2), Point(eps[2], 2), Point(eps[1], 2)]
    p = make_condition("omega", root + p_extra, complete=True)
    q = make_condition("omega", root + q_extra, complete=True)
    return p, q, frozenset(root), flat_F(tree, tree.params.lambda_w, 12), tree


def root_level_family():
    """A one-member family over the root (w, 0), (w*2, 0) whose member adds
    two points at each root level."""
    eps = kappa_tree().root_eps()
    root = [Point(eps[1], 0), Point(eps[2], 0)]
    extra = [Point(eps[level], xi) for level in (1, 2) for xi in (1, 2)]
    return SeparatedFamily((make_condition("kappa", root + extra),), frozenset(root))


def root_moving_family():
    """A two-member family of one condition over four root points, paired
    by the cycle that moves each root point to the next."""
    eps = kappa_tree().root_eps()
    root = [Point(eps[k], 0) for k in (1, 2, 3, 4)]
    a = make_condition("kappa", root)
    h = {x: root[(k + 1) % len(root)] for k, x in enumerate(root)}
    return SeparatedFamily((a, a), frozenset(root), {(0, 1): h})


def missing_pull_back():
    """pull_back's arguments for an amalgam that lacks all three landing
    points of a push-down: (rp, r, r, g, g, tree, F)."""
    tree = kappa_tree()
    u = Point(tree.root_eps()[1], 0)
    tops = [Point(TOP, k) for k in range(3)]
    r = make_condition("kappa", [u] + tops, [(u, z) for z in tops], complete=True)
    _, g = push_down(r, 9, tree)
    rp = make_condition("kappa", [u])
    return rp, r, r, g, g, tree, flat_F(tree, tree.params.lambda_w, 12)


def bad_order_pair_calls():
    """Calls that hand `make_condition` and `extend_condition` sets of order
    pairs with six to eight offenders (pairs with an unknown point, or
    pairs that climb from an old point), as (function, args) pairs."""
    a, b, c, d, e, f, g, h = (Point(parse(f"w*{k}"), 0) for k in range(1, 9))
    unknown = {(a, d), (b, e), (f, c), (g, d), (h, c), (b, g)}
    climbs = {(c, a), (c, b), (d, a), (d, b), (e, a), (f, b)}
    return [
        (make_condition, ("kappa", [a], {(a, x) for x in (b, c, d, e, f, g, h)} | {(b, a)})),
        (extend_condition, (make_condition("kappa", [c, d]), [b], {(b, c)} | unknown)),
        (extend_condition, (make_condition("kappa", [c, d, e, f]), [a, b], {(b, c)} | climbs)),
    ]
