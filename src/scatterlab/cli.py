"""Command-line surface: tree inspection, table generation and search,
condition validation and extension, both amalgamation routes, schedule
simulation, derivative analysis, and the end-to-end pipeline.

Every subcommand is deterministic given its flags and seed.  Flags share
a fixed set of names across subcommands and each one can be defaulted
through an environment variable with the SCATTERLAB_ prefix (--kappa-w
becomes SCATTERLAB_KAPPA_W); explicit flags win over the environment.
`main` parses through a parser cached per snapshot of those variables'
values, so an environment change takes effect on the next call.
Documents written anywhere carry a `# scatterlab-fmt` header line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import fmt
from .amalgam import KAPPA_STAGES, AmalgamError, amalgamate_kappa, amalgamate_omega
from .analysis import (
    AnalysisError,
    LevelReport,
    OrdinalLevels,
    finite_cb,
    ordinal_space_levels,
    space_from_poset,
    space_from_text,
)
from .conditions import (
    DIALECTS,
    TOP,
    Condition,
    ConditionError,
    Point,
    condition_from_text,
    condition_to_text,
    extend_below,
    level_token,
    make_condition,
    parse_level,
    validate,
)
from .generic import (
    GenericError,
    cardinal_profile,
    poset_from_text,
    poset_to_text,
    run_schedule,
    schedule_from_text,
    skeleton_check,
    sposet_check,
)
from .intervals import BudgetExceededError, IntervalTree, Params, TreeError, tree_axiom_report
from .ordinals import Ordinal, OrdinalError, parse as parse_ordinal
from .unbounded import (
    BlowupGuardError,
    FamilyError,
    GenerationError,
    UnboundedFn,
    f_generate,
    load as load_table,
    save as save_table,
    star_search,
    star_verify,
)

ENV_PREFIX = "SCATTERLAB_"
REPORT_HEADER = "# scatterlab-fmt 1 report"
TREE_HEADER = "# scatterlab-fmt 1 tree"


# the shared flags and their built-in defaults, in the order _param_parent takes them
_SHARED_DEFAULTS = (
    ("eta", "w^2"),
    ("kappa-w", 3),
    ("lambda-w", 6),
    ("e-budget", 16),
    ("seed", 0),
    ("budget-n", 3),
    ("dialect", "kappa"),
)


def _env_defaults() -> Tuple:
    """The shared flags' defaults under the current environment, unconverted:
    argparse converts a string default when it parses, so a bad value is
    reported there."""
    return tuple(
        os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), fallback)
        for name, fallback in _SHARED_DEFAULTS
    )


def _dialect(value: str) -> str:
    """`--dialect`'s conversion.  argparse checks `choices` only for a value
    given as a flag, so a default read from SCATTERLAB_DIALECT is checked
    here, with the message that check gives."""
    if value not in DIALECTS:
        choices = ", ".join(map(repr, DIALECTS))
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _param_parent(defaults: Tuple) -> argparse.ArgumentParser:
    eta, kappa_w, lambda_w, e_budget, seed, budget_n, dialect = defaults
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--eta", default=eta, help="limit ordinal, e.g. w^2")
    p.add_argument("--kappa-w", type=int, default=kappa_w)
    p.add_argument("--lambda-w", type=int, default=lambda_w)
    p.add_argument("--e-budget", type=int, default=e_budget)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--budget-n", type=int, default=budget_n)
    p.add_argument("--dialect", type=_dialect, choices=DIALECTS, default=dialect)
    return p


def _params(args) -> Params:
    return Params(
        eta=parse_ordinal(args.eta),
        kappa_w=args.kappa_w,
        lambda_w=args.lambda_w,
        e_budget=args.e_budget,
    )


def _point(token: str) -> Point:
    level, _, xi = token.rpartition(":")
    if not level:
        raise ConditionError(f"point {token!r} is not LEVEL:XI")
    return Point(parse_level(level), fmt.integer(xi, "column", ConditionError))


def _marker(eps: Sequence, token) -> Ordinal:
    """The root marker at index `token` (an int or its text)."""
    k = fmt.integer(token, "marker index", FamilyError)
    if not 0 <= k < len(eps):
        raise FamilyError(f"marker index {k} out of range for {len(eps)} markers")
    return eps[k]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


# --- tree and orbit ---------------------------------------------------------


def cmd_tree(args) -> int:
    tree = IntervalTree(_params(args))
    if args.depth < 0:
        raise TreeError(f"depth {args.depth} is negative")
    report = tree_axiom_report(tree, args.depth)
    lines = [TREE_HEADER, f"eta {args.eta} e_budget {args.e_budget} depth {args.depth}"]
    lines.append(tree.dump(args.depth))
    lines.append(f"axioms {'ok' if report.ok else 'FAILED'}")
    for name in sorted(report.checks):
        lines.append(f"check {name} {report.checks[name]}")
    lines.extend(f"failure {f}" for f in report.failures)
    _emit(fmt.text(lines), args.out)
    return 0 if report.ok else 1


def cmd_orbit(args) -> int:
    tree = IntervalTree(_params(args))
    alpha = parse_ordinal(args.alpha)
    members = tree.orbit(alpha)
    lines = [
        REPORT_HEADER,
        f"orbit {alpha}",
        f"size {len(members)}",
        "members " + " ".join(str(m) for m in members),
    ]
    if args.beta is not None:
        beta = parse_ordinal(args.beta)
        j, J = tree.j_and_J(alpha, beta)
        lines.append(f"split-depth {j if j is not None else 'none'}")
        lines.append(f"J {J}")
    _emit(fmt.text(lines), args.out)
    return 0


# --- unbounded tables ----------------------------------------------------------


def cmd_unbounded_gen(args) -> int:
    tree = IntervalTree(_params(args))
    eps = tree.root_eps()
    probes = [(m, nu, [_marker(eps, g)]) for m, nu, g in (args.probe or [])]
    try:
        F = f_generate(
            tree.params, eps, strategy=args.strategy, seed=args.seed, probes=probes
        )
    except GenerationError as err:
        print(f"generation failed: {err}", file=sys.stderr)
        return 1
    save_table(F, args.out)
    return 0


def cmd_unbounded_verify(args) -> int:
    tree = IntervalTree(_params(args))
    eps = tree.root_eps()
    F = load_table(args.table, eps)
    gamma = _marker(eps, args.gamma)
    family = [
        frozenset(fmt.integer(tok, "family index", FamilyError) for tok in part.split(","))
        for part in args.family.split(";")
    ]
    outcome = star_verify(F, gamma, family)
    lines = [
        REPORT_HEADER,
        f"verify gamma {gamma}",
        f"pairs-checked {outcome.pairs_checked}",
    ]
    if outcome.ok:
        a, b = outcome.witness
        lines.append(
            "witness "
            + ",".join(str(i) for i in sorted(a))
            + " ; "
            + ",".join(str(i) for i in sorted(b))
        )
    else:
        lines.append("witness none")
    _emit(fmt.text(lines), args.out)
    return 0 if outcome.ok else 1


def cmd_unbounded_search(args) -> int:
    tree = IntervalTree(_params(args))
    eps = tree.root_eps()
    F = load_table(args.table, eps)
    gammas = (
        [_marker(eps, tok) for tok in args.gammas.split(",")]
        if args.gammas
        else list(eps[:-1])
    )
    try:
        result = star_search(F, args.m, args.nu, gammas)
    except (FamilyError, BlowupGuardError) as err:
        print(f"search refused: {err}", file=sys.stderr)
        return 1
    lines = [
        REPORT_HEADER,
        f"search m {args.m} nu {args.nu} gammas {len(gammas)}",
        f"instances {result.instances}",
        f"swept {'ok' if result.ok else 'FAILED'}",
    ]
    if result.counterexample:
        family, gamma = result.counterexample
        fam = " ".join("{" + ",".join(map(str, sorted(a))) + "}" for a in family)
        lines.append(f"counterexample {fam} at {gamma}")
    _emit(fmt.text(lines), args.out)
    return 0 if result.ok else 1


# --- conditions ------------------------------------------------------------------


def _load_condition(path: str) -> Tuple[Condition, Params, IntervalTree]:
    cond, params = condition_from_text(Path(path).read_text())
    return cond, params, IntervalTree(params)


def cmd_validate(args) -> int:
    cond, params, tree = _load_condition(args.condition)
    F = load_table(args.f, tree.root_eps()) if args.f else None
    found = validate(cond, tree, F)
    lines = [REPORT_HEADER, f"validate {args.condition}"]
    if found:
        lines.extend(f"violation {v}" for v in found)
    else:
        lines.append("valid")
    _emit(fmt.text(lines), args.out)
    return 1 if found else 0


def cmd_extend(args) -> int:
    cond, params, tree = _load_condition(args.condition)
    target = _point(args.target)
    alpha = parse_ordinal(args.alpha)
    try:
        extended, fresh = extend_below(cond, target, alpha, args.xi_floor, tree)
    except (ConditionError, TreeError) as err:
        print(f"extension failed: {err}", file=sys.stderr)
        return 1
    print(f"new-point {level_token(fresh.level)}:{fresh.xi}", file=sys.stderr)
    _emit(condition_to_text(extended, params), args.out)
    return 0


# --- amalgamation ------------------------------------------------------------------


def cmd_amalgamate(args) -> int:
    p, params_p, tree = _load_condition(args.first)
    q, params_q, _ = _load_condition(args.second)
    if params_p != params_q:
        print("conditions carry different parameters", file=sys.stderr)
        return 1
    if p.dialect != q.dialect:
        print("conditions carry different dialects", file=sys.stderr)
        return 1
    F = load_table(args.f, tree.root_eps()) if args.f else None
    if p.dialect == "kappa" and None in (args.zeta_first, args.zeta_second):
        print("the kappa route needs --zeta-first and --zeta-second", file=sys.stderr)
        return 1
    if F is None:
        print(f"the {p.dialect} route needs --f", file=sys.stderr)
        return 1

    try:
        if p.dialect == "omega":
            r = amalgamate_omega(p, q, p.points & q.points, F, tree)
        else:
            r = amalgamate_kappa(p, q, args.zeta_first, args.zeta_second, tree, F)
    except (AmalgamError, ConditionError, TreeError) as err:
        print(f"amalgamation failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1

    _emit(condition_to_text(r, params_p), args.out)
    return 0


# --- simulation --------------------------------------------------------------------


def _check_report(T, budget: int) -> Tuple[str, bool]:
    """The check report of a run, and whether every sposet clause held."""
    rep = sposet_check(T, budget)
    lines = [REPORT_HEADER, f"sposet budget={budget}"]
    for name, findings in (
        ("partition", rep.partition),
        ("level-order", rep.level_order),
        ("meet-witness", rep.meet_witness),
    ):
        lines.append(f"{name} {'ok' if not findings else 'FAILED'}")
        lines.extend(f"  {f}" for f in findings)
    for level, pt, count in rep.density:
        verdict = "ok" if count >= budget else "FAILED"
        lines.append(
            f"density {level_token(level)} {level_token(pt.level)}:{pt.xi} "
            f"{count} {verdict}"
        )
    skel = skeleton_check(T, T.sub_top_levels())
    for level, findings in skel.verdicts:
        lines.append(f"bone {level_token(level)} {'ok' if not findings else 'FAILED'}")
        lines.extend(f"  {f}" for f in findings)
    # T is a run_schedule union: every step is a valid condition, so the
    # core clauses hold and the profile is never refused
    lines.append(f"profile {cardinal_profile(T)}")
    return fmt.text(lines), rep.ok


def cmd_simulate(args) -> int:
    tree = IntervalTree(_params(args))
    sch = schedule_from_text(Path(args.schedule).read_text())
    if args.f:
        F = load_table(args.f, tree.root_eps())
    else:
        F = f_generate(tree.params, tree.root_eps(), strategy="greedy")
    try:
        T = run_schedule(sch, tree, F, args.dialect)
    except GenericError as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        return 1
    report, ok = _check_report(T, args.budget_n)
    if args.out:
        _emit(poset_to_text(T), os.path.join(args.out, "runs", "poset.txt"))
        _emit(report, os.path.join(args.out, "reports", "checks.txt"))
    else:
        sys.stdout.write(poset_to_text(T) + "\n" + report)
    return 0 if ok else 1


# --- analysis ---------------------------------------------------------------------


def _render_level_report(rep: LevelReport, label: str) -> str:
    lines = [REPORT_HEADER, f"analyze {label}", f"levels {len(rep.levels)}"]
    for k, members in rep.levels:
        lines.append(f"{k} : " + " ".join(str(m) for m in members))
    lines.append("widths " + " ".join(str(w) for w in rep.widths))
    lines.append(f"height {rep.height if rep.height is not None else 'none'}")
    lines.append(f"ht-minus {rep.ht_minus}")
    lines.append(
        "residual" + (" " + " ".join(str(x) for x in rep.residual) if rep.residual else "")
    )
    return fmt.text(lines)


def _render_ordinal_levels(rep: OrdinalLevels) -> str:
    lines = [REPORT_HEADER, f"analyze ordinal {rep.alpha}", f"levels {len(rep.tags)}"]
    members = dict(rep.finite_members)
    for e, tag in rep.tags:
        suffix = ""
        if e in members:
            suffix = " : " + " ".join(str(m).replace(" ", "") for m in members[e])
        lines.append(f"{e} {tag}{suffix}")
    lines.append(f"height {rep.height}")
    lines.append(f"ht-minus {rep.ht_minus}")
    return fmt.text(lines)


def cmd_analyze(args) -> int:
    chosen = [x for x in (args.space, args.poset, args.ordinal) if x]
    if len(chosen) != 1:
        print("pass exactly one of --space, --poset, --ordinal", file=sys.stderr)
        return 2
    if args.ordinal:
        try:
            rep = ordinal_space_levels(parse_ordinal(args.ordinal))
        except (AnalysisError, OrdinalError) as err:
            print(f"analysis failed: {err}", file=sys.stderr)
            return 1
        _emit(_render_ordinal_levels(rep), args.out)
        return 0
    if args.space:
        space = space_from_text(Path(args.space).read_text())
        label = f"space {args.space}"
    else:
        T = poset_from_text(Path(args.poset).read_text())
        space = space_from_poset(T)
        label = f"poset {args.poset}"
    try:
        rep = finite_cb(space, cap=args.cap)
    except AnalysisError as err:
        print(f"analysis failed: {err}", file=sys.stderr)
        return 1
    _emit(_render_level_report(rep, label), args.out)
    return 0


# --- pipeline ---------------------------------------------------------------------


def pair_instance(tree: IntervalTree, rng: random.Random):
    """One seeded pair of root-sharing kappa conditions plus push levels.

    Root points sit at low markers, each member adds at most one point
    at a high marker plus one private top; shapes rotate through chained
    and incomparable roots, a shared top, and bare tops.  Push levels
    are consecutive kappa-width multiples placed above every sub-top
    member level."""
    eps = tree.root_eps()
    zn, zm = 3 * tree.params.kappa_w, 4 * tree.params.kappa_w
    shape = rng.choice(
        ["chain-root", "chained-top", "one-anchor", "top-only", "shared-top"]
    )
    u1, u2 = Point(eps[1], 0), Point(eps[2], 0)
    root_rel = [(u1, u2)] if shape == "chain-root" else []
    root = [u1, u2]
    z_shared = Point(TOP, 0)
    if shape == "shared-top":
        root = root + [z_shared]
        root_rel = [(u1, z_shared), (u2, z_shared)]

    lv_nu, lv_mu = rng.sample([zn - 3, zn - 2], 2)
    col_nu, col_mu = rng.sample(range(1, tree.params.lambda_w), 2)
    chain_member = rng.random() < 0.5

    def member(level_idx, col):
        t = Point(TOP, col)
        pts = root + [t]
        r = list(root_rel)
        if shape == "top-only":
            r += [(u1, t), (u2, t)]
            return make_condition("kappa", pts, r, complete=True)
        if level_idx >= len(eps):
            raise BudgetExceededError(
                f"pair instances need root marker {level_idx}, but e_budget "
                f"{tree.params.e_budget} materializes {len(eps)} root markers; "
                f"use e_budget {zn - 2} or more"
            )
        s = Point(eps[level_idx], 0)
        pts.append(s)
        r += [(u1, s), (u2, s)]
        if shape == "chain-root":
            r += [(u1, t), (u2, t)]
            if chain_member:
                r.append((s, t))
        elif shape == "chained-top":
            r += [(u1, t), (u2, t), (s, t)]
        elif shape == "shared-top":
            # member point under both tops; tops share every lower bound
            r += [(u1, t), (u2, t), (s, t), (s, z_shared)]
        else:  # one-anchor: top sits over u1 alone
            r.append((u1, t))
        return make_condition("kappa", pts, r, complete=True)

    return member(lv_nu, col_nu), member(lv_mu, col_mu), zn, zm


def cmd_pipeline(args) -> int:
    params = _params(args)
    tree = IntervalTree(params)
    eps = tree.root_eps()
    if args.count < 0:
        raise ConditionError(f"count {args.count} is negative")
    corpus = Path(args.corpus)
    for sub in ("tree", "F", "conditions", "runs", "reports"):
        (corpus / sub).mkdir(parents=True, exist_ok=True)

    (corpus / "tree" / "tree.txt").write_text(fmt.text([TREE_HEADER, tree.dump(2)]))
    if args.f_const is not None:
        pairs = itertools.combinations(range(params.lambda_w), 2)
        F = UnboundedFn(params.lambda_w, eps, dict.fromkeys(pairs, args.f_const))
        f_label = f"const:{args.f_const}"
    else:
        F = f_generate(params, eps, strategy="greedy", seed=args.seed)
        f_label = "greedy"
    save_table(F, corpus / "F" / "F.txt")

    counters = dict.fromkeys((*KAPPA_STAGES, "valid"), 0)
    errors: Dict[str, int] = {}

    for i in range(args.count):
        rng = random.Random(args.seed * 1_000_003 + i)
        r_nu, r_mu, zn, zm = pair_instance(tree, rng)
        for side, member in (("a", r_nu), ("b", r_mu)):
            path = corpus / "conditions" / f"pair_{i:03d}_{side}.txt"
            path.write_text(condition_to_text(member, params))
        try:
            r = amalgamate_kappa(r_nu, r_mu, zn, zm, tree, F)
        except (AmalgamError, ConditionError, TreeError) as err:
            for name in KAPPA_STAGES[: KAPPA_STAGES.index(err.stage)]:
                counters[name] += 1
            key = type(err).__name__
            errors[key] = errors.get(key, 0) + 1
            continue
        # pull_back has validated r and checked it lies below both members
        for name in counters:
            counters[name] += 1
        (corpus / "runs" / f"pull_{i:03d}.txt").write_text(condition_to_text(r, params))

    lines = [
        REPORT_HEADER,
        f"pipeline eta={args.eta} kappa_w={params.kappa_w} "
        f"lambda_w={params.lambda_w} e_budget={params.e_budget} "
        f"count={args.count} seed={args.seed} f={f_label}",
        f"instances {args.count}",
    ]
    lines.extend(f"{name} {n}" for name, n in counters.items())
    lines.append("invalid 0")
    if errors:
        for name in sorted(errors):
            lines.append(f"error {name} {errors[name]}")
    else:
        lines.append("errors none")
    summary = fmt.text(lines)
    (corpus / "reports" / "summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return 1 if errors else 0


# --- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser whose shared-flag defaults come from the environment."""
    return _build_parser(_env_defaults())


def _build_parser(defaults: Tuple) -> argparse.ArgumentParser:
    shared = _param_parent(defaults)
    top = argparse.ArgumentParser(prog="scatterlab")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", parents=[shared])
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn="cmd_tree")

    p = sub.add_parser("orbit", parents=[shared])
    p.add_argument("alpha")
    p.add_argument("--beta")
    p.add_argument("--out")
    p.set_defaults(fn="cmd_orbit")

    p = sub.add_parser("unbounded")
    usub = p.add_subparsers(dest="subcommand", required=True)
    g = usub.add_parser("gen", parents=[shared])
    g.add_argument("--strategy", choices=("random", "greedy"), default="random")
    g.add_argument(
        "--probe", type=int, nargs=3, action="append", metavar=("M", "NU", "GAMMA")
    )
    g.add_argument("--out", required=True)
    g.set_defaults(fn="cmd_unbounded_gen")
    v = usub.add_parser("verify", parents=[shared])
    v.add_argument("table")
    v.add_argument("--gamma", type=int, required=True, help="marker index")
    v.add_argument("--family", required=True, help="e.g. 0,1;2,3")
    v.add_argument("--out")
    v.set_defaults(fn="cmd_unbounded_verify")
    s = usub.add_parser("search", parents=[shared])
    s.add_argument("table")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--nu", type=int, required=True)
    s.add_argument("--gammas", help="comma-separated marker indices")
    s.add_argument("--out")
    s.set_defaults(fn="cmd_unbounded_search")

    p = sub.add_parser("validate", parents=[shared])
    p.add_argument("condition")
    p.add_argument("--f")
    p.add_argument("--out")
    p.set_defaults(fn="cmd_validate")

    p = sub.add_parser("extend", parents=[shared])
    p.add_argument("condition")
    p.add_argument("--target", required=True, help="LEVEL:XI")
    p.add_argument("--alpha", required=True)
    p.add_argument("--xi-floor", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn="cmd_extend")

    p = sub.add_parser("amalgamate", parents=[shared])
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--f")
    p.add_argument("--zeta-first", type=int)
    p.add_argument("--zeta-second", type=int)
    p.add_argument("--out")
    p.set_defaults(fn="cmd_amalgamate")

    p = sub.add_parser("simulate", parents=[shared])
    p.add_argument("--schedule", required=True)
    p.add_argument("--f")
    p.add_argument("--out")
    p.set_defaults(fn="cmd_simulate")

    p = sub.add_parser("analyze", parents=[shared])
    p.add_argument("--space")
    p.add_argument("--poset")
    p.add_argument("--ordinal")
    p.add_argument("--cap", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(fn="cmd_analyze")

    p = sub.add_parser("pipeline", parents=[shared])
    p.add_argument("--corpus", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--f-const", type=int)
    p.set_defaults(fn="cmd_pipeline")

    return top


# parse_args leaves a parser as it found it, so one parser serves every call
# under the same environment defaults.  The parser names each command's
# function and main looks the name up when it runs, so a binding replaced on
# the module after the parser was built (a tracer's wrapper) is the one called.
_cached_parser = functools.lru_cache(maxsize=8)(_build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line; the exit status is 2 for a typed error.

    The parser is built on the first call under each snapshot of the
    SCATTERLAB_* defaults and reused after, so an environment change takes
    effect on the next call."""
    args = _cached_parser(_env_defaults()).parse_args(argv)
    try:
        return globals()[args.fn](args)
    except (OrdinalError, TreeError, FamilyError, BlowupGuardError, ConditionError,
            GenericError, AnalysisError, OSError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
