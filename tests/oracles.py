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


# --- grid amalgam: full placement enumeration ----------------------------------
# Breadth-first over every (deficient pair, window level, attachment shape)
# choice, collecting every terminal condition that passes the full contract.
# The package's search walks one deterministic path through this space, so
# membership of its output here is the completeness/soundness check.


def naive_eta_search(pp, qq, pairing, stamps, tree, max_fresh=3):
    import itertools as it

    from scatterlab.amalgam import r2_report
    from scatterlab.conditions import Point, leq, make_condition, point_key, validate

    root = pp.points & qq.points
    mirror = {}
    for s in pp.points:
        mirror[s] = pairing[s]
        mirror[pairing[s]] = s

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

    def build(points, rel):
        table = {tuple(sorted(k, key=point_key)): v for k, v in meets0.items()}
        return make_condition("kappa", points, rel, table, complete=True)

    def orbit(level):
        return set(tree.orbit(level))

    def deficient(cond):
        out = []
        for s, t in cond.pairs():
            if frozenset((s, t)) in meets0 or cond.comparable(s, t):
                continue
            common = {x for x in cond.points if cond.lt(x, s) and cond.lt(x, t)}
            if not common:
                continue
            maxima = [x for x in common if not any(cond.lt(x, y) for y in common)]
            if (
                len(maxima) == 1
                and maxima[0].level in orbit(s.level)
                and maxima[0].level in orbit(t.level)
            ):
                continue
            out.append((s, t))
        return out

    successes = []
    seen = set()
    frontier = [(frozenset(pp.points | qq.points), frozenset(rel0), ())]
    while frontier:
        points, rel, fresh = frontier.pop()
        if (points, rel) in seen:
            continue
        seen.add((points, rel))
        cond = build(points, rel)
        tasks = deficient(cond)
        if not tasks:
            ok = (
                not validate(cond, tree)
                and not r2_report(cond, pp, qq, mirror)
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
