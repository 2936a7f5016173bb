"""Independent reference implementations used to freeze expected values.

Each oracle recomputes a result by a deliberately different route than the
package code, so agreement is evidence rather than tautology.  Oracles are
slow and small-scale on purpose.
"""

from __future__ import annotations

import itertools

from scatterlab.ordinals import OMEGA, Ordinal, compare, from_int

# --- ordinal arithmetic ------------------------------------------------------
#
# An ordinal is flattened to a "word": one exponent symbol per coefficient
# unit, in term order.  Addition is word concatenation followed by a survivor
# scan: a symbol survives iff no strictly larger symbol occurs to its right.
# This never touches the package's merge-based __add__; it does reuse compare,
# which the vector oracle below checks separately.


def word_of(a: Ordinal) -> list:
    word = []
    for exp, coeff in a.terms:
        word.extend([exp] * coeff)
    return word


def rebuild(word: list) -> Ordinal:
    terms = []
    for exp in word:
        if terms and terms[-1][0] == exp:
            terms[-1][1] += 1
        else:
            terms.append([exp, 1])
    return Ordinal((exp, coeff) for exp, coeff in terms)


def word_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    word = word_of(a) + word_of(b)
    survivors = []
    for i, sym in enumerate(word):
        if all(compare(later, sym) <= 0 for later in word[i + 1 :]):
            survivors.append(sym)
    return rebuild(survivors)


def naive_fundamental(lam: Ordinal, k: int) -> Ordinal:
    """`ordinals.fundamental` as it read before results were built from their
    normal form: the head through the checking constructor, the last term's
    part added to it."""
    from scatterlab.ordinals import omega_pow

    head, (exp, coeff) = lam.terms[:-1], lam.terms[-1]
    if coeff > 1:
        head = head + ((exp, coeff - 1),)
    base = Ordinal(head)
    if exp.is_successor:
        return base + omega_pow(exp.predecessor(), k)
    return base + omega_pow(naive_fundamental(exp, k))


# --- ordinal comparison, term by term ----------------------------------------
#
# The textbook Cantor-normal-form comparison: walk both term lists together,
# comparing exponents recursively and then coefficients; when one list runs
# out first, the shorter sum is smaller.  It reads only `terms`, never the
# package's native comparison keys.


def cnf_compare(a: Ordinal, b: Ordinal) -> int:
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        rel = cnf_compare(ea, eb)
        if rel:
            return rel
        if ca != cb:
            return -1 if ca < cb else 1
    la, lb = len(a.terms), len(b.terms)
    return 0 if la == lb else (-1 if la < lb else 1)


# --- ordinal comparison below w^w -------------------------------------------
#
# With natural-number exponents an ordinal is just a coefficient vector
# indexed by exponent; comparison is lexicographic from the highest exponent
# down.  Only extend_to has to agree on vector length.


def coeff_vector(a: Ordinal, width: int) -> list:
    vec = [0] * width
    for exp, coeff in a.terms:
        vec[exp.as_int()] = coeff
    return list(reversed(vec))


def vector_compare(a: Ordinal, b: Ordinal) -> int:
    width = 1 + max(
        [exp.as_int() for exp, _ in a.terms] + [exp.as_int() for exp, _ in b.terms] + [0]
    )
    va, vb = coeff_vector(a, width), coeff_vector(b, width)
    if va < vb:
        return -1
    return 1 if va > vb else 0


# --- isolated-point rank below w^w -------------------------------------------
#
# Work on a plain {exponent: coeff} dict.  A round removes the points that
# are currently isolated; an ordinal with a nonzero constant digit dies in
# the current round, otherwise every digit shifts down one exponent.


def strip_rank(a: Ordinal) -> int:
    digits = {exp.as_int(): coeff for exp, coeff in a.terms}
    rounds = 0
    while digits:
        if digits.get(0):
            return rounds
        digits = {e - 1: c for e, c in digits.items()}
        rounds += 1
    return rounds


def shift_down(a: Ordinal) -> Ordinal:
    """Left quotient by w for ordinals below w^w, via digit shift."""
    digits = sorted(
        ((exp.as_int(), coeff) for exp, coeff in a.terms if not exp.is_zero),
        reverse=True,
    )
    return Ordinal((from_int(e - 1), c) for e, c in digits)


def omega_times(g: Ordinal) -> Ordinal:
    """Left product w*g, used to sandwich the package's quotient."""
    out = []
    for exp, coeff in g.terms:
        bumped = from_int(exp.as_int() + 1) if compare(exp, OMEGA) < 0 else exp
        out.append((bumped, coeff))
    return Ordinal(out)


# --- disjoint-family sweeps ---------------------------------------------------
#
# Filter-based brute force: take every m-combination of nu-subsets, keep the
# pairwise-disjoint ones by a union-size test, and grind each member pair with
# four explicit loops.  Enumeration order matches combinations order, so first
# failures are comparable with the package's recursive search.


def naive_star_search(F, m: int, nu: int, gammas):
    from itertools import combinations

    subsets = [frozenset(c) for c in combinations(range(F.lambda_w), nu)]
    instances = 0
    failures = []
    for family in combinations(subsets, m):
        if len(set().union(*family)) != m * nu:
            continue
        for gamma in gammas:
            instances += 1
            found = False
            for x in range(m):
                for y in range(x + 1, m):
                    good = True
                    for i in family[x]:
                        for j in family[y]:
                            if not F.value(i, j) > gamma:
                                good = False
                    if good:
                        found = True
            if not found:
                failures.append((family, gamma))
    return instances, failures


# The family x gamma sweep over star_verify that star_search replaced with
# one bottleneck per family, with star_search's own guards and messages.
# Families come from the same filtered combinations as above.


def naive_star_search_by_verify(F, m: int, nu: int, gammas, family_cap=10_000_000, force=False):
    from itertools import combinations

    from scatterlab.unbounded import (
        BlowupGuardError,
        FamilyError,
        SearchResult,
        family_count,
        star_verify,
    )

    if m < 2:
        raise FamilyError("family size m must be at least 2")
    if nu < 1 or m * nu > F.lambda_w:
        raise FamilyError(f"cannot fit {m} disjoint {nu}-subsets below {F.lambda_w}")
    count = family_count(F.lambda_w, m, nu)
    if count > family_cap and not force:
        raise BlowupGuardError(
            f"{count} families exceeds the cap {family_cap}; pass force to override"
        )
    subsets = [frozenset(c) for c in combinations(range(F.lambda_w), nu)]
    instances = 0
    for family in combinations(subsets, m):
        if len(set().union(*family)) != m * nu:
            continue
        for gamma in gammas:
            instances += 1
            if not star_verify(F, gamma, family).ok:
                return SearchResult(False, instances, (family, gamma))
    return SearchResult(True, instances, None)


# Greedy table generation as a plain linear scan: every pair, every index
# from the top down, one full probe sweep per try, with no reuse of a table
# already known to pass.  Probes run through the star_verify sweep above.


def naive_f_generate_greedy(params, eps, probes=()):
    from scatterlab.unbounded import GenerationError, UnboundedFn

    lam = params.lambda_w
    pairs = [(i, j) for i in range(lam) for j in range(i + 1, lam)]
    if not eps:
        raise GenerationError("no materialized marker values", [])
    top = len(eps) - 1
    entries = {pair: top for pair in pairs}
    report = []

    def passes():
        table = UnboundedFn(lam, eps, entries)
        for m, nu, gammas in probes:
            result = naive_star_search_by_verify(table, m, nu, list(gammas))
            if not result.ok:
                return f"probe m={m} nu={nu} fails at gamma={result.counterexample[1]}"
        return None

    for pair in pairs:
        for idx in range(top, -1, -1):
            entries[pair] = idx
            failure = passes()
            if failure is None:
                break
            report.append(f"pair {pair} index {idx}: {failure}")
        else:
            raise GenerationError(f"no value for pair {pair} satisfies the probes", report)
    return UnboundedFn(lam, eps, entries)


# --- sunflower extraction ------------------------------------------------------
# Subset enumeration largest-first; a subfamily qualifies when all pairwise
# intersections coincide.  No candidate-root indexing, no branch and bound.


def naive_sunflower(sets):
    from itertools import combinations

    sets = [frozenset(s) for s in sets]
    for size in range(len(sets), 1, -1):
        for combo in combinations(range(len(sets)), size):
            roots = {
                sets[i] & sets[j] for i, j in combinations(combo, 2)
            }
            if len(roots) == 1:
                return size, next(iter(roots))
    return 1, sets[0] if sets else frozenset()


# --- union amalgam cross meets -------------------------------------------------


def omega_cross_filter(p, q, root):
    """Every cross meet the union amalgam should assign, recomputed raw."""
    out = {}
    for x in p.points - root:
        for y in q.points - root:
            out[frozenset((x, y))] = frozenset(
                u for u in root if p.lt(u, x) and q.lt(u, y)
            )
    return out


# --- amalgam reports --------------------------------------------------------------
# The separatedness and grid-amalgam contracts, and the pairs a grid amalgam
# must still fix, re-derived by point-pair membership tests in the strict
# sets, one root point at a time.  The package reads order masks and the
# completed meet table instead; the messages and their order must match.


def naive_separated_report(fam):
    """`amalgam.separated_report` by point-pair membership tests."""
    from scatterlab.amalgam import check_adequate

    out = []
    members = fam.members
    root = fam.root
    for i, j in itertools.combinations(range(len(members)), 2):
        if members[i].points & members[j].points != root:
            out.append(f"delta: members {i},{j} intersect off-root")

    root_levels = {x.level for x in root if not x.is_top}
    owners = {}
    for i, m in enumerate(members):
        for x in _by_key(m.points):
            if x.is_top or x in root:
                continue
            if x.level in root_levels:
                out.append(f"level-sharing: member {i} adds {x} at a root level")
            else:
                prev = owners.setdefault(x.level, i)
                if prev != i:
                    out.append(f"level-sharing: level {x.level} used by members {prev},{i}")

    for i, j in itertools.combinations(range(len(members)), 2):
        h = fam.pairing(i, j)
        p, q = members[i], members[j]
        if set(h) != set(p.points) or set(h.values()) != set(q.points):
            out.append(f"bijection: pairing {i},{j} has wrong domain or range")
            continue
        for clause in check_adequate(h):
            out.append(f"pair {i},{j} {clause}")
        for s in _by_key(root):
            if h[s] != s:
                out.append(f"pair {i},{j} root-fixing: moves {s}")
        for s, t in _raw_pairs(p):
            if ((s, t) in p.strict) != ((h[s], h[t]) in q.strict) or (
                (t, s) in p.strict
            ) != ((h[t], h[s]) in q.strict):
                out.append(f"pair {i},{j} order: ({s}, {t}) not preserved")
        for s, t in _raw_pairs(p):
            image = frozenset(h[v] for v in _raw_meet(p, s, t, frozenset()))
            if image != _raw_meet(q, h[s], h[t], frozenset()):
                out.append(f"pair {i},{j} meets: not transported")
                break
    return out


def naive_r2_report(r, pp, qq, pairing):
    """`amalgam.r2_report` by point-pair membership tests."""
    out = []
    root = pp.points & qq.points

    for y in _by_key(r.points - pp.points - qq.points):
        for s in _by_key(pp.points):
            if ((y, s) in r.strict) != ((y, pairing[s]) in r.strict):
                out.append(f"mirror-up: ({y}, {s}) breaks the pairing")
            if ((s, y) in r.strict) != ((pairing[s], y) in r.strict):
                out.append(f"mirror-down: ({s}, {y}) breaks the pairing")
        for s in _by_key(pp.points | qq.points):
            if (s, y) in r.strict and not any(
                _raw_le(r, s, w) and (w, y) in r.strict for w in root
            ):
                out.append(f"root-passage: {s} reaches {y} off the root")
    for s in _by_key(pp.points - root):
        for t in _by_key(qq.points - root):
            want = any((s, u) in pp.strict and (u, t) in qq.strict for u in root)
            if ((s, t) in r.strict) != want:
                out.append(f"cross-order: ({s}, {t}) disagrees with interpolants")
            want = any((t, u) in qq.strict and (u, s) in pp.strict for u in root)
            if ((t, s) in r.strict) != want:
                out.append(f"cross-order: ({t}, {s}) disagrees with interpolants")
    return out


def naive_deficient(cond, base_keys, tree):
    """Every pair of `cond`, in point order, that the grid amalgam must still
    fix: not in `base_keys` (unordered pairs), incomparable, with common
    strict lower bounds that lack a unique maximum inside both orbits."""
    out = []
    for s, t in _raw_pairs(cond):
        if frozenset((s, t)) in base_keys or (s, t) in cond.strict or (t, s) in cond.strict:
            continue
        common = {x for x in cond.points if (x, s) in cond.strict and (x, t) in cond.strict}
        if not common:
            continue
        maxima = [x for x in common if not any((x, y) in cond.strict for y in common)]
        if (
            len(maxima) == 1
            and maxima[0].level in tree.orbit(s.level)
            and maxima[0].level in tree.orbit(t.level)
        ):
            continue
        out.append((s, t))
    return out


def naive_first_deficient(cond, base_meets, tree):
    """`amalgam._first_deficient` as it read every meet row: the first row
    in pair order off `base_meets` whose meet is neither empty, nor holds
    an end of its pair, nor is one point inside both orbits."""
    for (s, t), value in cond.meets:
        if not value or (s, t) in base_meets or s in value or t in value:
            continue
        if len(value) == 1:
            (m,) = value
            if m.level in tree.orbit(s.level) and m.level in tree.orbit(t.level):
                continue
        return s, t
    return None


def naive_push_down(r, zeta, tree):
    """`amalgam.push_down`'s (r', g) rebuilt through `make_condition`: the
    top points renamed to the landing level in column order, the order and
    meets carried over, nothing judged."""
    from scatterlab.conditions import Point, make_condition

    landing = tree.root_eps(zeta + 1)[zeta]
    tops = sorted((x for x in r.points if x.is_top), key=lambda x: x.xi)
    fwd = {x: x for x in r.points if not x.is_top}
    fwd.update((x, Point(landing, i)) for i, x in enumerate(tops))
    rel = {(fwd[s], fwd[t]) for s, t in r.strict}
    meets = {
        (fwd[s], fwd[t]): frozenset(fwd[v] for v in value)
        for (s, t), value in r.meets
    }
    pushed = make_condition(r.dialect, set(fwd.values()), rel, meets, complete=True)
    return pushed, {v: k for k, v in fwd.items()}


def naive_pull_back(rp, g_nu, g_mu):
    """`amalgam.pull_back`'s condition before it is judged, rebuilt through
    `make_condition` by point tests: each pushed point returned to its
    top, the order of the strict pairs that start at a kept point, and each
    meet the preimage meet whose down-set holds every other one's (None
    when no preimage meet does)."""
    from scatterlab.conditions import make_condition, point_key

    pushed = {k: v for g in (g_nu, g_mu) for k, v in g.items() if k != v}
    keep = rp.points - set(pushed)
    h = {x: x for x in keep} | pushed
    rel = {(s, h[t]) for s, t in rp.strict if s in keep}

    def hull(value):
        return {y for y in rp.points if any(_raw_le(rp, y, v) for v in value)}

    meets = {}
    for s, t in itertools.combinations(sorted(set(h.values()), key=point_key), 2):
        cands = [
            _raw_meet(rp, a, b, frozenset())
            for a in h if h[a] == s
            for b in h if h[b] == t
        ]
        top = [c for c in cands if all(hull(d) <= hull(c) for d in cands)]
        if not top:
            return None
        meets[(s, t)] = frozenset(h[v] for v in top[0])
    return make_condition("kappa", set(h.values()), rel, meets)


# --- grid amalgam: full placement enumeration ----------------------------------
# Breadth-first over every (deficient pair, window level, attachment shape)
# choice, collecting every terminal condition that passes the full contract.
# The package's search walks one deterministic path through this space, so
# membership of its output here is the completeness/soundness check.


def _naive_eta_start(pp, qq):
    """The union's cross order from root interpolants, and the members'
    meets keyed by unordered pair."""
    from scatterlab.conditions import point_key

    root = pp.points & qq.points
    rel0 = set(pp.strict) | set(qq.strict)
    for s in sorted(pp.points - root, key=point_key):
        for t in sorted(qq.points - root, key=point_key):
            if any(pp.lt(s, u) and qq.lt(u, t) for u in root):
                rel0.add((s, t))
            if any(qq.lt(t, u) and pp.lt(u, s) for u in root):
                rel0.add((t, s))
    meets0 = {}
    for (a, b), v in list(pp.meets) + list(qq.meets):
        meets0[frozenset((a, b))] = v
    return rel0, meets0


def _naive_eta_build(points, rel, meets0):
    from scatterlab.conditions import make_condition, point_key

    table = {tuple(sorted(k, key=point_key)): v for k, v in meets0.items()}
    return make_condition("kappa", points, rel, table, complete=True)


def naive_eta_base(pp, qq):
    """The condition the grid amalgam search starts from: the union of the
    members with the root-interpolant cross order, completed."""
    rel0, meets0 = _naive_eta_start(pp, qq)
    return _naive_eta_build(pp.points | qq.points, rel0, meets0)


def naive_eta_search(pp, qq, pairing, stamps, tree, max_fresh=3):
    import itertools as it

    from scatterlab.conditions import Point, leq, validate

    mirror = {}
    for s in pp.points:
        mirror[s] = pairing[s]
        mirror[pairing[s]] = s

    rel0, meets0 = _naive_eta_start(pp, qq)

    def build(points, rel):
        return _naive_eta_build(points, rel, meets0)

    def orbit(level):
        return set(tree.orbit(level))

    successes = []
    seen = set()
    frontier = [(frozenset(pp.points | qq.points), frozenset(rel0), ())]
    while frontier:
        points, rel, fresh = frontier.pop()
        if (points, rel) in seen:
            continue
        seen.add((points, rel))
        cond = build(points, rel)
        tasks = naive_deficient(cond, meets0, tree)
        if not tasks:
            ok = (
                not validate(cond, tree)
                and not naive_r2_report(cond, pp, qq, mirror)
                and leq(cond, pp)
                and leq(cond, qq)
                and all(v.level < stamps.gamma for v in fresh)
            )
            if ok and cond not in successes:
                successes.append(cond)
            continue
        if len(fresh) >= max_fresh:
            continue
        for s, t in tasks:
            corners = {s, t, mirror.get(s, s), mirror.get(t, t)}
            lower = {
                x for x in cond.points if cond.lt(x, s) and cond.lt(x, t)
            } | {
                x
                for x in cond.points
                if cond.lt(x, mirror.get(s, s)) and cond.lt(x, mirror.get(t, t))
            }
            windows = [
                set(stamps.d_of.get(stamps.tags[c], ()))
                for c in corners
                if c in stamps.tags
            ]
            cand = set.intersection(*windows) if windows else set()
            options = [corners]
            if lower:
                fence = corners | {
                    x for x in points if all(cond.lt(w, x) for w in lower)
                }
                if fence != corners:
                    options.append(fence)
            for beta in sorted(cand):
                if not all(w.level < beta for w in lower):
                    continue
                used = {x.xi for x in points if x.level == beta}
                col = next(i for i in it.count() if i not in used)
                if col >= tree.params.kappa_w:
                    continue
                v = Point(beta, col)
                for ups in options:
                    if not all(
                        beta < c.level and beta in orbit(c.level) for c in ups
                    ):
                        continue
                    frontier.append(
                        (
                            points | {v},
                            frozenset(
                                rel | {(w, v) for w in lower} | {(v, c) for c in ups}
                            ),
                            fresh + (v,),
                        )
                    )
    return successes


def naive_topology(points, subbase):
    """Every open set, by brute closure of the subbase under pairwise
    union and intersection.  Exponential; keep the spaces small."""
    pts = frozenset(points)
    opens = {frozenset(), pts}
    opens.update(frozenset(s) for s in subbase)
    changed = True
    while changed:
        changed = False
        current = list(opens)
        for a, b in itertools.combinations(current, 2):
            for c in (a | b, a & b):
                if c not in opens:
                    opens.add(c)
                    changed = True
    return opens


def naive_cb(points, subbase):
    """Derivative levels against the fully enumerated topology; isolation
    is checked through relative opens.  Returns (levels, residual)."""
    opens = naive_topology(points, subbase)
    current = frozenset(points)
    levels = []
    while current:
        isolated = {
            x for x in current if any(o & current == {x} for o in opens)
        }
        if not isolated:
            break
        levels.append(frozenset(isolated))
        current = current - isolated
    return levels, current


# --- set-based order checks ----------------------------------------------------
#
# The package answers order queries from int masks over the points sorted by
# point_key.  These oracles read only the raw fields (points, strict, meets)
# and test membership of point pairs in the strict set, as the package did
# before it had the mask core.  Results must match it list for list.


def _raw_le(p, s, t):
    return (s == t and s in p.points) or (s, t) in p.strict


def _raw_meet(p, s, t, missing):
    return dict(p.meets).get((s, t) if s._key <= t._key else (t, s), missing)


def _by_key(points):
    return sorted(points, key=lambda x: x._key)


def _raw_pairs(p):
    return list(itertools.combinations(_by_key(p.points), 2))


def _sorted_strict(p):
    return sorted(p.strict, key=lambda st: (st[0]._key, st[1]._key))


def naive_validate(p, tree, F=None):
    """`conditions.validate` by point-pair membership tests, no masks."""
    from scatterlab.conditions import ConditionError, Violation, level_lt, point_key
    from scatterlab.conditions import _marker_membership, _tree_orbit, _tree_split

    params = tree.params
    out = []
    pts = sorted(p.points, key=point_key)

    def le(s, t):
        return _raw_le(p, s, t)

    def meet(s, t):
        return _raw_meet(p, s, t, frozenset())

    if len(p.points) > params.size_cap:
        out.append(
            Violation("size-cap", (), f"{len(p.points)} points exceed cap {params.size_cap}")
        )
    for s in pts:
        if s.is_top:
            if not 0 <= s.xi < params.lambda_w:
                out.append(Violation("grid", (s,), f"top column {s.xi} out of range"))
        else:
            if not s.level < params.eta:
                out.append(Violation("grid", (s,), f"level {s.level} not below {params.eta}"))
            elif not 0 <= s.xi < params.kappa_w:
                out.append(Violation("grid", (s,), f"column {s.xi} out of range"))
    for s, t in _sorted_strict(p):
        if not level_lt(s.level, t.level):
            out.append(Violation("level-monotone", (s, t), "related points must climb levels"))
    for s, t in _raw_pairs(p):
        value = meet(s, t)
        common = {x for x in pts if le(x, s) and le(x, t)}
        covered = {x for x in pts if any(le(x, v) for v in value)}
        if common != covered:
            missed = sorted(common ^ covered, key=point_key)
            out.append(
                Violation(
                    "meet-axiom",
                    (s, t),
                    f"lower-bound set mismatch at {{{', '.join(str(x) for x in missed)}}}",
                )
            )
        if p.dialect == "kappa" and len(value) > 1:
            out.append(Violation("meet-arity", (s, t), f"{len(value)} meet points"))

    if p.dialect == "kappa":
        for s, t in _raw_pairs(p):
            if le(s, t) or le(t, s) or not any(le(x, s) and le(x, t) for x in p.points):
                continue
            for v in _by_key(meet(s, t)):
                if v.is_top:
                    out.append(Violation("meet-location", (s, t), "meet point at the top level"))
                    continue
                beta = v.level
                if not s.is_top and not t.is_top:
                    ok = beta in _tree_orbit(tree, s.level) and beta in _tree_orbit(tree, t.level)
                    why = "below both paths" if ok else f"{beta} outside orbit overlap"
                elif s.is_top and t.is_top:
                    if F is None:
                        raise ConditionError("top-top meet check needs the pair coloring F")
                    bound = F.value(s.xi, t.xi)
                    ok = beta < bound and _marker_membership(tree, beta)
                    why = f"{beta} not a root marker below F value {bound}" if not ok else ""
                else:
                    ordinary = t if s.is_top else s
                    ok = beta in _tree_orbit(tree, ordinary.level) and _marker_membership(
                        tree, beta
                    )
                    why = f"{beta} not a shared root marker on the path" if not ok else ""
                if not ok:
                    out.append(Violation("meet-location", (s, t), why))
        for s, t in _sorted_strict(p):
            if s.is_top or not level_lt(s.level, t.level):
                continue
            beta = params.eta if t.is_top else t.level
            lam = _tree_split(tree, s.level, beta)
            if not (lam.lo < s.level and lam.hi <= beta):
                continue
            if not any(
                not u.is_top and u.level == lam.hi and le(s, u) and le(u, t) for u in p.points
            ):
                out.append(
                    Violation(
                        "isolation-interpolant",
                        (s, t),
                        f"split interval {lam} isolates but no point sits at {lam.hi}",
                    )
                )
        return out

    for s, t in _raw_pairs(p):
        if s.is_top and t.is_top:
            for v in _by_key(meet(s, t)):
                if F is None:
                    raise ConditionError("top-top meet check needs the pair coloring F")
                bound = F.value(s.xi, t.xi)
                if v.is_top or not v.level < bound:
                    out.append(
                        Violation("top-meet-bound", (s, t), f"meet point {v} not below F value {bound}")
                    )
        elif not s.is_top and not t.is_top and s.level == t.level:
            if meet(s, t):
                out.append(Violation("same-level-meet", (s, t), "same-level pairs meet nothing"))
    for s, t in _sorted_strict(p):
        if t.is_top or not t.level.is_successor:
            continue
        prior = t.level.predecessor()
        if not any(
            not u.is_top and u.level == prior and le(s, u) and (u, t) in p.strict
            for u in p.points
        ):
            out.append(
                Violation("successor-interpolant", (s, t), f"no point at {prior} between {s} and {t}")
            )
    return out


def naive_sposet_check(T, budget):
    """`generic.sposet_check` by point-pair membership tests, no masks."""
    from scatterlab.conditions import level_lt, point_key
    from scatterlab.generic import SposetReport

    def le(s, t):
        return _raw_le(T, s, t)

    pts = sorted(T.points, key=point_key)
    partition, level_order, meet_witness = [], [], []
    seen = set()
    for x in pts:
        if x.xi < 0:
            partition.append(f"negative column: {x}")
        if (x.level, x.xi) in seen:
            partition.append(f"duplicate grid slot: {x}")
        seen.add((x.level, x.xi))
    for s, t in _sorted_strict(T):
        if s == t:
            partition.append(f"reflexive strict pair: {s}")
        if (t, s) in T.strict:
            partition.append(f"two-cycle: {s} / {t}")
    for s, t in _sorted_strict(T):
        for u in pts:
            if (t, u) in T.strict and (s, u) not in T.strict:
                partition.append(f"not transitive: {s} < {t} < {u}")
    for s, t in _sorted_strict(T):
        if not level_lt(s.level, t.level):
            level_order.append(f"order does not climb levels: {s} < {t}")
    for s, t in _raw_pairs(T):
        value = _raw_meet(T, s, t, None)
        if value is None:
            meet_witness.append(f"no recorded meet for {s}, {t}")
            continue
        for v in _by_key(value):
            if not (le(v, s) and le(v, t)):
                meet_witness.append(f"meet point {v} of {s}, {t} is not below both")
        for u in pts:
            if (le(u, s) and le(u, t)) != any(le(u, v) for v in value):
                meet_witness.append(f"meet axiom fails at {u} for pair {s}, {t}")
                break
    density = []
    for level, tgt in dict.fromkeys(T.targeted):
        count = sum(1 for s in T.points if s.level == level and (s, tgt) in T.strict)
        density.append((level, tgt, count))
    return SposetReport(
        tuple(partition), tuple(level_order), tuple(meet_witness), tuple(density), budget
    )


def naive_poset_block(p):
    """`conditions.poset_block` as it read before row tails were shared:
    each meet row formats its own indices, listed from `p.meets`."""
    from scatterlab.conditions import level_token

    core = p.core()
    index = core.index
    lines = [f"points {len(core.pts)}"]
    lines.extend(f"{i} {level_token(x.level)} {x.xi}" for i, x in enumerate(core.pts))
    order = list(core.strict_pairs())
    lines.append(f"order {len(order)}")
    lines.extend(f"{i} {j}" for i, j in order)
    meets = p.meets
    lines.append(f"meets {len(meets)}")
    for (s, t), value in meets:
        ids = " ".join(str(k) for k in sorted(index[v] for v in value))
        lines.append(f"{index[s]} {index[t]} : {ids}".rstrip())
    return lines


def naive_skeleton_check(T, levels):
    """`generic.skeleton_check` by point-pair membership tests, no masks."""
    from scatterlab.conditions import point_key
    from scatterlab.generic import SkeletonReport
    from scatterlab.ordinals import ONE

    def at(level):
        return sorted((x for x in T.points if x.level == level), key=point_key)

    verdicts = []
    for gamma in sorted(set(levels)):
        found = []
        rank = at(gamma)
        for s, t in itertools.combinations(rank, 2):
            value = _raw_meet(T, s, t, None)
            if value:
                found.append(f"same-level-meet: {s}, {t} -> {sorted(value, key=point_key)}")
        for x in at(gamma + ONE):
            for y in sorted(T.points, key=point_key):
                if (y, x) not in T.strict:
                    continue
                if not any(_raw_le(T, y, z) and (z, x) in T.strict for z in rank):
                    found.append(f"interpolant: no route for {y} < {x} through level {gamma}")
        verdicts.append((gamma, tuple(found)))
    return SkeletonReport(tuple(verdicts))


def naive_transitive_closure(points, rel):
    """The closed strict set of the pairs `rel` over `points`, by adding
    composites until none is new; refuses unknown points and cycles as
    `make_condition` does (the least pair with an unknown point, a cycle
    through the first of its points, in `point_key` order)."""
    from scatterlab.conditions import ConditionError

    adj = {p: set() for p in points}
    unknown = [(s, t) for s, t in rel if s not in adj or t not in adj]
    if unknown:
        s, t = min(unknown, key=lambda st: (st[0]._key, st[1]._key))
        raise ConditionError(f"order pair ({s}, {t}) mentions unknown points")
    for s, t in rel:
        adj[s].add(t)
    changed = True
    while changed:
        changed = False
        for s in points:
            extra = set()
            for t in adj[s]:
                extra |= adj[t] - adj[s]
            if extra:
                adj[s] |= extra
                changed = True
    for s in _by_key(points):
        if s in adj[s]:
            raise ConditionError(f"order cycle through {s}")
    return frozenset((s, t) for s in points for t in adj[s])


def naive_complete_meets(points, strict):
    """The forced meet of every pair of a transitively closed order: the
    lower point of a comparable pair, else the maximal common lower bounds."""
    out = {}
    for s, t in itertools.combinations(sorted(points, key=lambda x: x._key), 2):
        if (s, t) in strict:
            out[(s, t)] = frozenset({s})
        elif (t, s) in strict:
            out[(s, t)] = frozenset({t})
        else:
            common = {x for x in points if (x, s) in strict and (x, t) in strict}
            out[(s, t)] = frozenset(
                x for x in common if not any((x, y) in strict for y in common)
            )
    return out


# --- point insertion: the two-branch extend_below ------------------------------
# The kappa and omega branches as they stood before insertion went through one
# route: each builds its own chain, copies the whole meet table and writes the
# new points' meet rows by hand.  The package now lets `make_condition` force
# those rows; documents, new points and errors must match this copy.


def _naive_fresh_column(p, level, floor, cap, taken):
    from scatterlab.conditions import LevelBudgetError, Point

    used = {x.xi for x in p.points if x.level is level or x.level == level}
    used |= {x.xi for x in taken if x.level is level or x.level == level}
    xi = floor
    while xi in used:
        xi += 1
    if xi >= cap:
        raise LevelBudgetError(f"no free column at level {level} (cap {cap})")
    return Point(level, xi)


def naive_extend_below(p, tgt, alpha, nu_floor, tree):
    from scatterlab.conditions import (
        ConditionError,
        UnmaterializedLevelError,
        level_lt,
        make_condition,
        pair_key,
    )
    from scatterlab.intervals import TreeError

    if tgt not in p.points:
        raise ConditionError(f"target {tgt} is not in the condition")
    if not level_lt(alpha, tgt.level):
        raise ConditionError(f"need alpha below the target, got {alpha} vs {tgt.level}")
    if not alpha < tree.params.eta:
        raise ConditionError(f"alpha {alpha} is not below {tree.params.eta}")

    params = tree.params
    core = p.core()
    i = core.index[tgt]
    above = set(core.members(core.up[i] | 1 << i))
    taken = set()

    if p.dialect == "kappa":
        try:
            trail = tree.path(alpha)
        except TreeError as err:
            raise UnmaterializedLevelError(f"path({alpha}): {err}") from err
        bound = params.eta if tgt.is_top else tgt.level
        isolating = [iv for iv in trail[:-1] if iv.hi < bound]
        s = _naive_fresh_column(p, alpha, nu_floor, params.kappa_w, taken)
        taken.add(s)
        chain = []
        for iv in isolating:
            c = _naive_fresh_column(p, iv.hi, 0, params.kappa_w, taken)
            taken.add(c)
            chain.append(c)
        new_points = [s] + chain
        rel = set(p.strict)
        rel |= {(s, c) for c in chain}
        rel |= {(w, y) for w in new_points for y in above}
        rel |= {(chain[j], chain[i]) for i in range(len(chain)) for j in range(i + 1, len(chain))}
        meets = dict(p.meets)
        for c in chain:
            meets[pair_key(s, c)] = frozenset({s})
        for i, j in itertools.combinations(range(len(chain)), 2):
            meets[pair_key(chain[i], chain[j])] = frozenset({chain[max(i, j)]})
        for w in new_points:
            for y in p.points:
                meets[pair_key(w, y)] = frozenset({w}) if y in above else frozenset()
        p2 = make_condition("kappa", set(p.points) | set(new_points), rel, meets)
        return p2, s

    ladder_levels = [alpha]
    tlevel = tgt.level
    if not tgt.is_top and tlevel.is_successor:
        base = Ordinal(tlevel.terms[:-1])
        steps = tlevel.terms[-1][1]
        ladder_levels += [base + k for k in range(steps) if alpha < base + k]
    rungs = []
    for depth, lev in enumerate(ladder_levels):
        floor = nu_floor if depth == 0 else 0
        rung = _naive_fresh_column(p, lev, floor, params.kappa_w, taken)
        taken.add(rung)
        rungs.append(rung)
    s = rungs[0]
    rel = set(p.strict)
    rel |= {(w, y) for w in rungs for y in above}
    rel |= {(rungs[j], rungs[k]) for j in range(len(rungs)) for k in range(j + 1, len(rungs))}
    meets = dict(p.meets)
    for j, k in itertools.combinations(range(len(rungs)), 2):
        meets[pair_key(rungs[j], rungs[k])] = frozenset({rungs[min(j, k)]})
    for w in rungs:
        for y in p.points:
            meets[pair_key(w, y)] = frozenset({w}) if y in above else frozenset()
    p2 = make_condition("omega", set(p.points) | set(rungs), rel, meets)
    return p2, s


# --- schedule steps rebuilt whole ----------------------------------------------
# Each step as `generic.run_schedule` took it before steps went incremental:
# the new condition rebuilt by `make_condition` from scratch and checked by
# the full `validate`.  Conditions, findings and errors must match it.


def full_extend_below(p, tgt, alpha, nu_floor, tree):
    """`conditions.extend_below` with the whole condition rebuilt: the same
    chain, closed and completed by `make_condition`."""
    from scatterlab.conditions import (
        ConditionError,
        UnmaterializedLevelError,
        _fresh_column,
        level_lt,
        make_condition,
        point_key,
    )
    from scatterlab.intervals import TreeError

    if tgt not in p.points:
        raise ConditionError(f"target {tgt} is not in the condition")
    if not level_lt(alpha, tgt.level):
        raise ConditionError(f"need alpha below the target, got {alpha} vs {tgt.level}")
    if not alpha < tree.params.eta:
        raise ConditionError(f"alpha {alpha} is not below {tree.params.eta}")
    if nu_floor < 0:
        raise ConditionError(f"column floor {nu_floor} is negative")
    params = tree.params
    levels = [alpha]
    if p.dialect == "kappa":
        try:
            trail = tree.path(alpha)
        except TreeError as err:
            raise UnmaterializedLevelError(f"path({alpha}): {err}") from err
        bound = params.eta if tgt.is_top else tgt.level
        levels += [iv.hi for iv in trail[:-1] if iv.hi < bound]
    elif not tgt.is_top and tgt.level.is_successor:
        base = Ordinal(tgt.level.terms[:-1])
        levels += [base + k for k in range(tgt.level.terms[-1][1]) if alpha < base + k]
    core = p.core()
    s = _fresh_column(core, alpha, nu_floor, params.kappa_w)
    chain = sorted(
        [s] + [_fresh_column(core, lev, 0, params.kappa_w) for lev in levels[1:]],
        key=point_key,
    )
    above = {y for (x, y) in p.strict if x == tgt} | {tgt}
    rel = set(p.strict) | set(zip(chain, chain[1:]))
    rel |= {(w, y) for w in chain for y in above}
    p2 = make_condition(p.dialect, p.points | set(chain), rel, dict(p.meets), complete=True)
    return p2, s


def full_run_schedule(sch, tree, F, dialect, record):
    """`generic.run_schedule` with every step rebuilt whole and checked by
    `validate`.  Appends (condition, findings or the error raised) to
    `record` for each step that reaches the check."""
    from scatterlab.conditions import ConditionError, Point, make_condition, validate
    from scatterlab.generic import (
        PredecessorBelow,
        RealizePoint,
        ScheduleError,
        poset_from_condition,
    )
    from scatterlab.intervals import TreeError

    params = tree.params
    p = make_condition(dialect, [])
    chain, targeted = [p], []

    def fail(msg, k, req):
        raise ScheduleError(f"step {k} {req!r}: {msg}", trace=chain, step=k, requirement=req)

    for k, req in enumerate(sch.steps):
        if isinstance(req, RealizePoint):
            x = Point(req.level, req.xi)
            cap = params.lambda_w if x.is_top else params.kappa_w
            if req.xi < 0 or req.xi >= cap:
                fail(f"column {req.xi} outside width cap {cap}", k, req)
            if not x.is_top:
                if not x.level < params.eta:
                    fail(f"level {x.level} is not below {params.eta}", k, req)
                try:
                    tree.path(x.level)
                except TreeError as err:
                    fail(f"level not materialized: {err}", k, req)
            p2 = make_condition(dialect, p.points | {x}, p.strict, dict(p.meets), complete=True)
        elif isinstance(req, PredecessorBelow):
            if req.target not in p.points:
                fail("target point has not been realized", k, req)
            try:
                p2, _ = full_extend_below(p, req.target, req.level, req.xi_floor, tree)
            except (ConditionError, TreeError) as err:
                fail(str(err), k, req)
            targeted.append((req.level, req.target))
        else:
            fail(f"unknown requirement kind {type(req).__name__}", k, req)
        try:
            found = validate(p2, tree, F)
        except (ConditionError, TreeError) as err:
            record.append((p2, err))
            fail(str(err), k, req)
        record.append((p2, found))
        if found:
            fail("; ".join(str(v) for v in found), k, req)
        p = p2
        chain.append(p)
    return poset_from_condition(p, targeted, chain)


# --- interval-tree prefix questions ------------------------------------------
#
# `_step`, `orbit`, root-marker membership and the amalgam's interval data
# computed from each node's full marker list: every one takes all e_budget + 1
# markers from `e_set`, and the interval data grows its request one marker at
# a time, where the package reads only the prefix a question reaches.  Only
# `e_set` and `root_eps` of the tree are used, so the tree's navigation memos
# play no part.


def full_step(tree, iv, alpha):
    import bisect

    from scatterlab.intervals import BudgetExceededError, Interval

    if iv.is_singleton:
        return iv
    if iv.hi.is_successor:
        prior = iv.hi.predecessor()
        if alpha < prior:
            return Interval(iv.lo, prior)
        return Interval(prior, iv.hi)
    marks = tree.e_set(iv)
    if not alpha < marks[-1]:
        raise BudgetExceededError(f"{alpha} lies past the materialized children of {iv}")
    k = bisect.bisect_right(marks, alpha) - 1
    return Interval(marks[k], marks[k + 1])


def full_orbit(tree, alpha):
    from scatterlab.intervals import DepthCapError

    trail = [tree.root]
    while trail[-1].lo != alpha:
        if len(trail) > tree.depth_cap:
            raise DepthCapError(
                f"{alpha} did not become a left endpoint within depth {tree.depth_cap}"
            )
        trail.append(full_step(tree, trail[-1], alpha))
    seen = set()
    for iv in trail[:-1]:
        seen.update(m for m in tree.e_set(iv) if m < alpha)
    return tuple(sorted(seen))


def full_marker_membership(tree, beta):
    from scatterlab.conditions import UnmaterializedLevelError

    eps = tree.root_eps()
    if beta in eps:
        return True
    if beta < eps[-1]:
        return False
    raise UnmaterializedLevelError(f"{beta} is past the materialized root markers")


def full_interval_data(tree, iv, root_levels):
    kw = tree.params.kappa_w
    inside = [b for b in root_levels if iv.contains(b)]
    count = kw + 1
    eps = tree.e_set(iv, count)
    xi = 0
    if inside:
        top = max(inside)
        while not top < eps[-1]:
            count += 1
            eps = tree.e_set(iv, count)
        xi = next(i for i, e in enumerate(eps) if top < e)
    if len(eps) < xi + kw + 1:
        eps = tree.e_set(iv, xi + kw + 1)
    return (xi, eps[xi + kw], tuple(eps[xi : xi + kw]))


def naive_markers(hi, lo, count):
    """The first `count` markers of a limit-ended node [lo, hi) by the rule
    that always builds the last marker's successor: each next marker is
    the larger of the fundamental step and one past the last."""
    from scatterlab.ordinals import ONE

    seq = [lo]
    while len(seq) < count:
        step = naive_fundamental(hi, len(seq))
        nxt = seq[-1] + ONE
        seq.append(step if step > nxt else nxt)
    return seq


# --- document readers -----------------------------------------------------------
#
# The readers as they were before each token's work was shared: every level
# token parsed where it stands, every index token checked on its own by
# `fmt.indexed`, every table token through `fmt.integer`, and every table
# entry checked as a frozenset of its indices.


def naive_read_poset_block(lines, at, error):
    from scatterlab import fmt
    from scatterlab.conditions import Point, pair_key, parse_level

    body, at = fmt.section(lines, at, "points", error)
    pts = [
        Point(parse_level(level), fmt.integer(xi, "column", error))
        for level, xi in fmt.numbered(body, error, 2)
    ]
    fmt.distinct(pts, error)
    body, at = fmt.section(lines, at, "order", error)
    rel = [tuple(fmt.pair(pts, line, error)) for line in body]
    body, at = fmt.section(lines, at, "meets", error)
    meets = {}
    for line in body:
        head, _, tail = line.partition(":")
        value = frozenset(fmt.indexed(pts, tail.split(), error))
        s, t = fmt.pair(pts, head, error)
        if s == t:
            raise error(f"meet entry for identical points {s}")
        if meets.setdefault(pair_key(s, t), value) != value:
            raise error(f"conflicting meet entries for ({s}, {t})")
    return pts, rel, meets, at


def naive_table_rows(lambda_w, eps, entries):
    """The dense rows `UnboundedFn(lambda_w, eps, entries)` keeps, or the
    `FamilyError` it raises."""
    from scatterlab.unbounded import FamilyError

    if lambda_w < 2:
        raise FamilyError("lambda_w must be at least 2")
    if not eps:
        raise FamilyError("no materialized marker values")
    table = {}
    for key, idx in entries.items():
        pair = frozenset(key)
        if len(pair) != 2 or not all(0 <= i < lambda_w for i in pair):
            raise FamilyError(f"bad pair {set(key)}")
        if not 0 <= idx < len(eps):
            raise FamilyError(f"marker index {idx} out of range for pair {set(key)}")
        if table.setdefault(pair, idx) != idx:
            raise FamilyError(f"conflicting entries for pair {set(key)}")
    expected = lambda_w * (lambda_w - 1) // 2
    if len(table) != expected:
        raise FamilyError(f"table has {len(table)} pairs, needs {expected}")
    rows = [[None] * lambda_w for _ in range(lambda_w)]
    for (i, j), idx in table.items():
        rows[i][j] = rows[j][i] = idx
    return tuple(tuple(row) for row in rows)


def naive_load(path, eps):
    """The rows of the table document at `path`, as `unbounded.load` reads
    it, or the `FamilyError` it raises."""
    from scatterlab import fmt
    from scatterlab.unbounded import FORMAT_HEADER, FamilyError

    with open(path) as fh:
        text = fh.read()

    def error(msg):
        return FamilyError(f"{path}: {msg}")

    lines = fmt.document_lines(text, FORMAT_HEADER, error)
    lam = fmt.integer(fmt.value(lines, 1, "lambda_w", error), "lambda_w", error)
    entries = {}
    for line in lines[2:]:
        row = line.split()
        if len(row) != 3:
            raise error(f"table line takes 'i j index': {line!r}")
        i, j, idx = (fmt.integer(tok, "table entry", error) for tok in row)
        entries[(i, j)] = idx
    return naive_table_rows(lam, eps, entries)
