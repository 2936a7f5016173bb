"""The four benchmark workloads.

Each workload builds, at set-up, a pool of inputs drawn from the seed, then
serves one op per pool entry through scatterlab's public functions.  Pools
are stratified: the mix of shapes, sizes and kinds is fixed and only the
details come from the seed, so seeds differ in their inputs but not in the
kind of work they ask for.

A workload has a `name`, a `pool` of `Item`s and four methods: `run` does
one op (timed), `check` judges its output (never timed) and returns None or
the problem, `canon` renders the output as text for the run's digest, and
`operands` picks the kernel replay operands from the pool's outputs.

`sl` is the scatterlab package of the run; every call goes through a module
attribute at call time so the traced run can wrap it.
"""

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

KAPPA_SHAPES = ("chain-root", "chained-top", "one-anchor", "top-only", "shared-top")


@dataclass
class Item:
    kind: str
    data: object
    refusal: bool = False  # the correct outcome is a typed refusal (exit 2)


@dataclass
class Operands:
    """Inputs for the kernel replay probes, taken from one workload."""

    ordinals: list
    levels: list
    pairs: list
    params: object


def _dedupe(values) -> list:
    return sorted(set(values))


def _condition_operands(sl, conds, tree, F) -> Tuple[list, list, list]:
    """Point levels, markers and F values as ordinals; sub-top levels; and
    strictly climbing level pairs (a top stands for eta)."""
    eta = tree.params.eta
    levels, pairs = set(), set()
    for c in conds:
        levels.update(x.level for x in c.points if not x.is_top)
        for s, t in c.strict:
            if s.is_top:
                continue
            beta = eta if t.is_top else t.level
            if s.level < beta:
                pairs.add((s.level, beta))
    values = [F.value(i, j) for i, j in F.pairs()]
    ords = _dedupe(list(levels) + list(tree.root_eps()) + values)
    return ords, _dedupe(levels), sorted(pairs)


# --- seeded condition builders ---------------------------------------------


def kappa_pair(sl, tree, shape: str, rng: random.Random, chain_member: bool):
    """Two root-sharing kappa conditions with private tops, plus the two
    push levels.  Root points sit at two low markers; each member adds at
    most one point at a high marker and one top.  The five shapes are those
    of the CLI pipeline: chained root, chained top, one anchor, bare tops
    and a shared top.  With chain_member, a chained-root member point sits
    below its own top."""
    eps = tree.root_eps()
    kw = tree.params.kappa_w
    zn, zm = 3 * kw, 4 * kw
    P = sl.Point
    u1, u2 = P(eps[1], 0), P(eps[2], 0)
    root_rel = [(u1, u2)] if shape == "chain-root" else []
    root = [u1, u2]
    z = P(sl.TOP, 0)
    if shape == "shared-top":
        root = root + [z]
        root_rel = [(u1, z), (u2, z)]
    lv_nu, lv_mu = rng.sample([zn - 3, zn - 2], 2)
    col_nu, col_mu = rng.sample(range(1, tree.params.lambda_w), 2)

    def member(level_idx, col):
        t = P(sl.TOP, col)
        pts = root + [t]
        rel = list(root_rel)
        if shape == "top-only":
            rel += [(u1, t), (u2, t)]
            return sl.make_condition("kappa", pts, rel, complete=True)
        s = P(eps[level_idx], 0)
        pts.append(s)
        rel += [(u1, s), (u2, s)]
        if shape == "chain-root":
            rel += [(u1, t), (u2, t)] + ([(s, t)] if chain_member else [])
        elif shape == "chained-top":
            rel += [(u1, t), (u2, t), (s, t)]
        elif shape == "shared-top":
            rel += [(u1, t), (u2, t), (s, t), (s, z)]
        else:
            rel.append((u1, t))
        return sl.make_condition("kappa", pts, rel, complete=True)

    return member(lv_nu, col_nu), member(lv_mu, col_mu), zn, zm


def omega_pair(sl, tree, rng: random.Random):
    """Two omega conditions meeting every union-amalgam hypothesis: a root
    chain of one or two markers under a shared top, members adding points at
    disjoint marker pools and possibly a private top."""
    eps = tree.root_eps()
    P = sl.Point
    root_n = rng.randint(1, 2)
    chain = [P(eps[i], 0) for i in range(root_n)]
    z = P(sl.TOP, 0)
    root = chain + [z]
    pool = list(range(root_n, 10))
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 2)
    pools = (sorted(pool[:cut]), sorted(pool[cut:]))
    top_cols = ([1, 2], [3, 4])

    def member(side):
        pts = list(root)
        rel = list(zip(chain, chain[1:])) + [(chain[-1], z)]
        levels = sorted(rng.sample(pools[side], rng.randint(1, min(2, len(pools[side])))))
        mids = [P(eps[i], 0) for i in levels]
        for m in mids:
            pts.append(m)
            rel.append((chain[-1], m))
            if rng.random() < 0.7:
                rel.append((m, z))
        if len(mids) == 2 and rng.random() < 0.5:
            rel.append((mids[0], mids[1]))
        if rng.random() < 0.6:
            w = P(sl.TOP, top_cols[side][rng.randint(0, 1)])
            pts.append(w)
            rel += [(m, w) for m in mids if rng.random() < 0.7]
            if rng.random() < 0.5:
                rel.append((chain[0], w))
        return sl.make_condition("omega", pts, rel, complete=True)

    return member(0), member(1), frozenset(root)


# --- pipeline ----------------------------------------------------------------


class Pipeline:
    """One op: a seeded root-sharing pair amalgamated and checked.

    Kappa pairs go push_down, separated_refine, equivalence_stamp,
    amalgamate_eta, pull_back; omega pairs go amalgamate_omega.  Every op
    then runs validate and leq against both members, as `scatterlab
    pipeline` does.
    """

    name = "pipeline"
    PER_SHAPE = 40
    OMEGA = 40

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        w2 = sl.parse("w^2")
        self.tree = sl.IntervalTree(sl.Params(w2))
        self.F = sl.f_generate(self.tree.params, self.tree.root_eps(), strategy="greedy", seed=seed)
        self.otree = sl.IntervalTree(sl.Params(w2, kappa_w=3, lambda_w=12))
        self.oF = sl.f_generate(self.otree.params, self.otree.root_eps(), strategy="greedy", seed=seed)
        rng = random.Random(seed)
        pool = [
            Item("kappa-" + shape, kappa_pair(sl, self.tree, shape, rng, k % 2 == 0))
            for shape in KAPPA_SHAPES
            for k in range(self.PER_SHAPE)
        ]
        pool += [Item("omega", omega_pair(sl, self.otree, rng)) for _ in range(self.OMEGA)]
        rng.shuffle(pool)
        self.pool = pool

    def run(self, item):
        sl = self.sl
        if item.kind == "omega":
            p, q, root = item.data
            r = sl.amalgamate_omega(p, q, root, self.oF, self.otree)
            return r, sl.validate(r, self.otree, self.oF), sl.leq(r, p), sl.leq(r, q)
        r_nu, r_mu, zn, zm = item.data
        tree = self.tree
        pp, g_nu = sl.push_down(r_nu, zn, tree)
        qq, g_mu = sl.push_down(r_mu, zm, tree)
        fam = sl.separated_refine([pp, qq], 2)
        swapped = fam.members != (pp, qq)
        stamps = sl.equivalence_stamp(fam, tree)
        a, b = fam.members
        res = sl.amalgamate_eta(a, b, fam.pairing(0, 1), stamps, tree)
        first, second = (r_mu, r_nu) if swapped else (r_nu, r_mu)
        g_first, g_second = (g_mu, g_nu) if swapped else (g_nu, g_mu)
        r = sl.pull_back(res.condition, first, second, g_first, g_second, tree, self.F, res.gamma)
        return r, sl.validate(r, tree, self.F), sl.leq(r, r_nu), sl.leq(r, r_mu)

    def check(self, item, out):
        r, violations, below_first, below_second = out
        if violations:
            return f"wrong: amalgam has violations {[str(v) for v in violations]}"
        if not (below_first and below_second):
            return "wrong: amalgam is not below both members"
        if not (item.data[0].points | item.data[1].points) <= r.points:
            return "wrong: amalgam drops member points"
        return None

    def canon(self, item, out):
        params = (self.otree if item.kind == "omega" else self.tree).params
        return self.sl.condition_to_text(out[0], params)

    def operands(self, outputs):
        kappa = [o[0] for it, o in zip(self.pool, outputs) if it.kind != "omega" and o]
        ords, levels, pairs = _condition_operands(self.sl, kappa, self.tree, self.F)
        return Operands(ords, levels, pairs, self.tree.params)


# --- schedule ----------------------------------------------------------------

# (tops, realized sub-top points, density budget) per schedule; a schedule
# has tops + subs + (tops + subs) * budget steps.  The short band runs from 8
# to 24 steps, spread evenly so that no percentile sits in a gap between
# sizes; the long band is 40 steps (40 points), where re-validating the
# large condition at every step dominates.  Cost grows steeply with length:
# the long band, two profiles in each dialect, takes over half of a pass.
# Its ops run over a second, too long for the speed scaling to follow the
# machine's drift within one, so more of them would make the figures less
# steady.  kappa_w must cover a budget of 9 predecessors at one level, and
# size_cap 40 points.
SCHEDULE_PROFILES = (
    (1, 1, 3), (2, 0, 3), (1, 1, 4), (2, 0, 4), (2, 1, 3), (1, 1, 5), (2, 1, 4),
    (1, 2, 4), (1, 1, 7), (2, 1, 5), (2, 2, 4), (3, 1, 4), (2, 1, 6), (3, 1, 5),
)
LONG_SCHEDULE_PROFILES = ((3, 1, 9), (2, 2, 9))


def make_schedule(sl, tree, rng: random.Random, tops: int, subs: int, budget: int):
    """Realize the tops and the sub-top points, then `budget` predecessors
    below each of them, each group at its own marker level, in seeded order.
    A realized sub-top point sits at a marker plus one and its predecessors
    at that marker."""
    eps = tree.root_eps()
    P = sl.Point
    # the middle marker of each of tops + subs equal bands of 1..11, dealt
    # to the groups in seeded order: schedules of one profile differ in
    # which group sits where and in the order of their steps, not in depth
    bands = tops + subs
    marks = [1 + 11 * (2 * b + 1) // (2 * bands) for b in range(bands)]
    rng.shuffle(marks)
    steps = [sl.RealizePoint(sl.TOP, i) for i in range(tops)]
    preds = []
    for i in range(tops):
        preds += [sl.PredecessorBelow(P(sl.TOP, i), eps[marks[i]], 0)] * budget
    for k in marks[tops:]:
        x = P(eps[k] + 1, 0)
        steps.append(sl.RealizePoint(x.level, 0))
        preds += [sl.PredecessorBelow(x, eps[k], 0)] * budget
    rng.shuffle(preds)
    return sl.Schedule(tuple(steps + preds))


class ScheduleRun:
    """One op: a seeded kappa or omega schedule through run_schedule, then
    sposet_check, skeleton_check, cardinal_profile and poset_to_text."""

    name = "schedule"
    COPIES = 2

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        params = sl.Params(sl.parse("w^2"), kappa_w=10, lambda_w=12, e_budget=16, size_cap=64)
        self.tree = sl.IntervalTree(params)
        self.F = sl.f_generate(params, self.tree.root_eps(), strategy="greedy", seed=seed)
        rng = random.Random(seed)
        pool = []
        for dialect in ("kappa", "omega"):
            for tops, subs, budget in SCHEDULE_PROFILES * self.COPIES + LONG_SCHEDULE_PROFILES:
                sch = make_schedule(sl, self.tree, rng, tops, subs, budget)
                pool.append(Item(f"{dialect}-{len(sch.steps)}", (dialect, tops, subs, budget, sch)))
        rng.shuffle(pool)
        self.pool = pool

    def run(self, item):
        sl = self.sl
        dialect, _, _, budget, sch = item.data
        T = sl.run_schedule(sch, self.tree, self.F, dialect)
        report = sl.sposet_check(T, budget)
        skeleton = sl.skeleton_check(T, T.sub_top_levels())
        profile = sl.cardinal_profile(T)
        return T, report, skeleton, profile, sl.poset_to_text(T)

    def check(self, item, out):
        T, report, skeleton, profile, _ = out
        _, tops, subs, _, _ = item.data
        if not report.ok:
            return f"wrong: sposet check fails {report}"
        if len(report.density) != tops + subs:
            return "wrong: density rows do not match the targets"
        if profile.top_width != tops:
            return f"wrong: profile top width {profile.top_width}, expected {tops}"
        if sum(n for _, n in profile.widths) + profile.top_width != len(T.points):
            return "wrong: profile does not count every point"
        if [lv for lv, _ in skeleton.verdicts] != sorted(set(T.sub_top_levels())):
            return "wrong: skeleton verdicts skip a level"
        return None

    def canon(self, item, out):
        T, report, skeleton, profile, text = out
        return f"{text}{profile}\n{report.density}\n{skeleton.bones}\n"

    def operands(self, outputs):
        posets = [o[0] for o in outputs if o]
        ords, levels, pairs = _condition_operands(self.sl, posets, self.tree, self.F)
        return Operands(ords, levels, pairs, self.tree.params)


# --- search ------------------------------------------------------------------

# (lambda_w, probe shapes (m, nu)) per stratum of table tasks.
SEARCH_STRATA = ((6, ((2, 2), (3, 1))), (7, ((2, 1), (2, 2))), (8, ((2, 2),)))


class Search:
    """One op: a table task.  f_generate(greedy) under seeded probes, a
    seeded random table, star_search sweeps of both, and star_verify calls
    on given families of the random table."""

    name = "search"
    PER_STRATUM = 20

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        w2 = sl.parse("w^2")
        self.trees = {lam: sl.IntervalTree(sl.Params(w2, lambda_w=lam)) for lam, _ in SEARCH_STRATA}
        rng = random.Random(seed)
        pool = []
        for lam, shapes in SEARCH_STRATA:
            eps = self.trees[lam].root_eps()
            for n in range(self.PER_STRATUM):
                probes = [(m, nu, [eps[rng.randrange(2, len(eps) - 1)]]) for m, nu in shapes]
                gammas = [eps[i] for i in sorted(rng.sample(range(1, len(eps) - 1), 3))]
                families = []
                for _ in range(4):
                    idx = rng.sample(range(lam), 4)
                    families.append((eps[rng.randrange(0, len(eps) - 1)], [idx[:2], idx[2:]]))
                task = (lam, probes, (2, 1 + n % 2), gammas, families, rng.randrange(10**6))
                pool.append(Item(f"lambda-{lam}", task))
        rng.shuffle(pool)
        self.pool = pool

    def run(self, item):
        sl = self.sl
        lam, probes, (m, nu), gammas, families, table_seed = item.data
        params = self.trees[lam].params
        eps = self.trees[lam].root_eps()
        G = sl.f_generate(params, eps, strategy="greedy", seed=table_seed, probes=probes)
        R = sl.f_generate(params, eps, strategy="random", seed=table_seed)
        sweeps = (sl.star_search(G, m, nu, gammas), sl.star_search(R, m, nu, gammas))
        verdicts = tuple(sl.star_verify(R, gamma, fam) for gamma, fam in families)
        return G, R, sweeps, verdicts

    def check(self, item, out):
        sl = self.sl
        G, R, sweeps, verdicts = out
        _, probes, (m, nu), gammas, families, _ = item.data
        for pm, pnu, pg in probes:
            if not sl.star_search(G, pm, pnu, pg).ok:
                return f"wrong: greedy table fails its probe m={pm} nu={pnu}"
        for table, result in zip((G, R), sweeps):
            if result.counterexample is not None:
                family, gamma = result.counterexample
                if sl.star_verify(table, gamma, family).ok:
                    return "wrong: counterexample passes star_verify on re-check"
        for (gamma, fam), outcome in zip(families, verdicts):
            a, b = (frozenset(x) for x in fam)
            holds = all(R.value(i, j) > gamma for i in a for j in b)
            if outcome.ok != holds:
                return "wrong: star_verify disagrees with the table"
        return None

    def canon(self, item, out):
        G, R, sweeps, verdicts = out
        rows = [" ".join(str(T.index(i, j)) for i, j in T.pairs()) for T in (G, R)]
        rows += [f"{s.ok} {s.instances} {s.counterexample}" for s in sweeps]
        rows += [f"{v.ok} {v.pairs_checked}" for v in verdicts]
        return "\n".join(rows) + "\n"

    def operands(self, outputs):
        ords, pairs = set(), set()
        for item, out in zip(self.pool, outputs):
            if not out:
                continue
            G, R = out[0], out[1]
            _, probes, _, gammas, families, _ = item.data
            ords.update(gammas)
            ords.update(g for _, _, gs in probes for g in gs)
            ords.update(R.value(i, j) for i, j in R.pairs())
            ords.update(G.value(i, j) for i, j in G.pairs())
        ordered = _dedupe(ords)
        tree = self.trees[SEARCH_STRATA[0][0]]
        # the last marker has no materialized interval of its own
        levels = [o for o in ordered if o < tree.root_eps()[-1]]
        return Operands(ordered, levels, list(zip(levels, levels[1:])), tree.params)


# --- documents ---------------------------------------------------------------

# One block of the document pool: op kinds in fixed proportion, the last
# being the malformed share.
DOCUMENT_BLOCK = ("validate", "validate", "invalid", "extend", "extend", "poset", "space", "malformed")
MALFORMED = ("truncate", "bad-level", "bad-index", "bad-header")  # space labels carry no level
# The malformed share is drawn from this fixed seed, not the run's: which
# malformed documents the program fails on is the program's property, so
# every seed fails the same number of ops and two sets of runs agree.
MALFORMED_SEED = 8


def forest_space(sl, rng: random.Random):
    """A finite scattered space with known derivative levels: a seeded
    forest whose open sets are each node with its descendants.  Leaves are
    isolated first, then their parents, so level k holds the rank-k nodes."""
    height = rng.randint(2, 4)
    ranks = [[f"r{height - 1}n{i}" for i in range(rng.randint(1, 2))]]
    children = {}
    for r in range(height - 2, -1, -1):
        row = []
        for parent in ranks[-1]:
            kids = [f"r{r}n{len(row) + k}" for k in range(rng.randint(1, 3))]
            children[parent] = kids
            row += kids
        ranks.append(row)

    def below(x):
        out = {x}
        for kid in children.get(x, ()):
            out |= below(kid)
        return frozenset(out)

    points = frozenset(x for row in ranks for x in row)
    space = sl.FiniteSpace(points, tuple(below(x) for x in sorted(points)))
    widths = tuple(len(row) for row in reversed(ranks))
    return space, widths


def walk_condition(sl, tree, dialect: str, rng: random.Random, steps: int):
    """A condition grown from one top by extend_below at seeded marker
    levels, each below a top or an earlier point."""
    eps = tree.root_eps()
    cond = sl.make_condition(dialect, [sl.Point(sl.TOP, 0)])
    for _ in range(steps):
        tgt = rng.choice(sorted(cond.points, key=str))
        below = [i for i in range(1, len(eps) - 3) if tgt.is_top or eps[i] < tgt.level]
        if not below:
            continue
        try:
            cond, _ = sl.extend_below(cond, tgt, eps[rng.choice(below)], 0, tree)
        except (sl.ConditionError, sl.TreeError):
            continue
    return cond


def _mutate(text: str, how: str, rng: random.Random) -> str:
    lines = text.splitlines()
    if how == "truncate":
        return "\n".join(lines[: rng.randint(1, len(lines) - 1)]) + "\n"
    if how == "bad-header":
        lines[0] = lines[0].replace("fmt 1", "fmt 9")
    elif how == "bad-level":
        at = next(i for i, ln in enumerate(lines) if ln.startswith("points "))
        row = lines[at + 1].split()
        lines[at + 1] = f"{row[0]} w^^{row[1]} {row[2]}"
    else:
        at = next(i for i, ln in enumerate(lines) if ln.startswith(("order ", "subbase ")))
        lines[at + 1] = lines[at + 1].rsplit(" ", 1)[0] + " 999"
    return "\n".join(lines) + "\n"


class Documents:
    """One op: one stored document read through `cli.main`: validate,
    extend, or analyze --poset / --space, writing to the run's work
    directory.  Every call builds its own tree, so nothing stays warm.  One
    document in eight is truncated or mutated, the same forty documents on
    every seed; its correct outcome is exit 2 with a typed error."""

    name = "documents"
    BLOCKS = 40

    def __init__(self, sl, seed: int, workdir: Path):
        self.sl = sl
        self.dir = workdir / "documents"
        (self.dir / "out").mkdir(parents=True, exist_ok=True)
        w2 = sl.parse("w^2")
        self.ktree = sl.IntervalTree(sl.Params(w2))
        self.otree = sl.IntervalTree(sl.Params(w2, kappa_w=3, lambda_w=12))
        tables = {}
        for label, tree in (("kappa", self.ktree), ("omega", self.otree)):
            F = sl.f_generate(tree.params, tree.root_eps(), strategy="greedy", seed=seed)
            tables[label] = self.dir / f"F-{label}.txt"
            sl.unbounded.save(F, tables[label])
        rng, bad = random.Random(seed), random.Random(MALFORMED_SEED)
        pool = []
        for _ in range(self.BLOCKS):
            for kind in DOCUMENT_BLOCK:
                pool.append(self._document(len(pool), kind, bad if kind == "malformed" else rng, tables))
        rng.shuffle(pool)
        self.pool = pool

    def _condition(self, rng):
        """A valid condition with a top, its tree, and its dialect."""
        sl = self.sl
        pick = rng.randrange(4)
        if pick == 0:
            a, b, _, _ = kappa_pair(sl, self.ktree, rng.choice(KAPPA_SHAPES), rng, rng.random() < 0.5)
            return rng.choice((a, b)), self.ktree, "kappa"
        if pick == 1:
            a, b, _ = omega_pair(sl, self.otree, rng)
            return rng.choice((a, b)), self.otree, "omega"
        dialect = rng.choice(("kappa", "omega"))
        tree = self.ktree if dialect == "kappa" else self.otree
        return walk_condition(sl, tree, dialect, rng, rng.randint(2, 4)), tree, dialect

    def _document(self, n: int, kind: str, rng, tables) -> Item:
        sl = self.sl
        path = self.dir / f"doc{n:04d}.txt"
        out = str(self.dir / "out" / f"out{n:04d}.txt")
        malformed = kind == "malformed"
        if malformed:
            kind = rng.choice(("validate", "poset", "space"))
        cond, tree, dialect = self._condition(rng)
        expect = None
        if kind in ("validate", "invalid", "extend"):
            if kind == "invalid":
                while not any(v for _, v in cond.meets):
                    cond, tree, dialect = self._condition(rng)
                rows = [k for k, v in cond.meets if v]
                table = dict(cond.meets)
                table[rows[rng.randrange(len(rows))]] = frozenset()
                cond = sl.make_condition(cond.dialect, cond.points, cond.strict, table)
            text = sl.condition_to_text(cond, tree.params)
            if kind == "extend":
                top = max(x.xi for x in cond.points if x.is_top)
                used = {x.level for x in cond.points}
                free = [e for e in tree.root_eps()[1:-3] if e not in used]
                alpha = str(rng.choice(free)).replace(" ", "")
                argv = ["extend", str(path), "--target", f"TOP:{top}", "--alpha", alpha, "--out", out]
                expect = (cond, tables[dialect])
            else:
                argv = ["validate", str(path), "--f", str(tables[dialect]), "--out", out]
        elif kind == "poset":
            text = sl.poset_to_text(sl.poset_from_condition(cond))
            argv = ["analyze", "--poset", str(path), "--out", out]
            expect = len(cond.points)
        else:
            space, expect = forest_space(sl, rng)
            text = sl.space_to_text(space)
            argv = ["analyze", "--space", str(path), "--cap", "64", "--out", out]
        if malformed:
            how = rng.choice([m for m in MALFORMED if kind != "space" or m != "bad-level"])
            text = _mutate(text, how, rng)
            argv = argv[: argv.index("--out")]
            kind = f"malformed-{how}"
        path.write_text(text)
        return Item(kind, (argv, out, expect), refusal=malformed)

    def run(self, item):
        argv, out, _ = item.data
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.sl.cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def _report(self, out_path) -> List[str]:
        return Path(out_path).read_text().splitlines()

    def check(self, item, out):
        sl = self.sl
        code, _, stderr = out
        argv, out_path, expect = item.data
        if item.refusal:
            if code == 2 and stderr.startswith("error: "):
                return None
            return f"refusal-missed: exit {code}"
        if item.kind == "validate":
            if code != 0 or "valid" not in self._report(out_path):
                return f"wrong: valid document reported exit {code}"
        elif item.kind == "invalid":
            if code != 1 or not any(ln.startswith("violation meet-axiom") for ln in self._report(out_path)):
                return f"wrong: blanked meet not reported (exit {code})"
        elif item.kind == "extend":
            if code != 0:
                return f"wrong: extend exit {code}"
            (cond, table), (grown, params) = expect, sl.condition_from_text(Path(out_path).read_text())
            tree = sl.IntervalTree(params)
            if sl.validate(grown, tree, sl.unbounded.load(table, tree.root_eps())):
                return "wrong: extended condition is invalid"
            if not (sl.leq(grown, cond) and len(grown.points) > len(cond.points)):
                return "wrong: extension does not extend its input"
        else:
            report = self._report(out_path)
            widths = (expect,) if item.kind == "poset" else expect
            want = ["levels %d" % len(widths), "widths " + " ".join(map(str, widths)), "height %d" % len(widths)]
            if code != 0 or not all(w in report for w in want):
                return f"wrong: {item.kind} levels differ from {widths} (exit {code})"
        return None

    def canon(self, item, out):
        code, stdout, stderr = out
        argv, out_path, _ = item.data
        body = ""
        if not item.refusal and Path(out_path).exists():
            body = Path(out_path).read_text()
        return f"{code}\n{stdout}{stderr}{body}".replace(str(self.dir), "")

    def operands(self, outputs):
        conds = []
        for item in self.pool:
            argv = item.data[0]
            if argv[0] in ("validate", "extend") and not item.refusal:
                conds.append(self.sl.condition_from_text(Path(argv[1]).read_text())[0])
        F = self.sl.unbounded.load(self.dir / "F-kappa.txt", self.ktree.root_eps())
        ords, levels, pairs = _condition_operands(self.sl, conds, self.ktree, F)
        return Operands(ords, levels, pairs, self.ktree.params)


WORKLOADS = {w.name: w for w in (Pipeline, ScheduleRun, Search, Documents)}
