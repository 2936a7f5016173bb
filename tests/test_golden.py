"""Byte-for-byte checks of the documents the library and the CLI write.

Each fixture under `tests/golden/` is regenerated here from a fixed seed
and compared with the stored bytes, and each parser reads its fixture
back to the same bytes.  To rewrite the fixtures after a deliberate
format change, run from the repository root:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import dataclasses
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest

from scatterlab.amalgam import (
    HypothesisViolationError,
    SearchExhaustedError,
    amalgamate_eta,
    amalgamate_kappa,
    amalgamate_omega,
    r2_report,
    separated_report,
)
from scatterlab.analysis import space_from_poset, space_from_text, space_to_text
from scatterlab.cli import main
from scatterlab.conditions import (
    TOP,
    Point,
    condition_from_text,
    condition_to_text,
    make_condition,
)
from scatterlab.generic import (
    PredecessorBelow,
    RealizePoint,
    Schedule,
    poset_from_text,
    poset_to_text,
    run_schedule,
    schedule_from_text,
    schedule_to_text,
)
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import parse
from scatterlab.unbounded import f_generate, load, save

from .corpus import (
    broken_mirror,
    eta_inputs,
    flat_F,
    kappa_instance,
    kappa_tree,
    level_sharing_family,
    omega_instance,
    omega_tree,
    order_mismatch_family,
    walk_condition,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
PIPELINE = ("summary.txt", "conditions/pair_000_a.txt", "runs/pull_000.txt")


def golden_schedule() -> Schedule:
    return Schedule(
        (
            RealizePoint(TOP, 0),
            RealizePoint(TOP, 1),
            PredecessorBelow(Point(TOP, 0), parse("w*2"), 0),
            PredecessorBelow(Point(TOP, 0), parse("w"), 0),
            PredecessorBelow(Point(TOP, 1), parse("w*3"), 1),
            RealizePoint(parse("w*4"), 2),
        ),
        seed=4,
    )


def digest(cond, params) -> str:
    return hashlib.sha256(condition_to_text(cond, params).encode()).hexdigest()


def amalgam_document() -> str:
    """The amalgamation layer's results, one line each: for every
    `kappa_instance` seed 0-59 the grid amalgam (its digest and fresh
    points, or the blocking pair) with the stamps as computed and with
    their marker windows emptied, and the kappa route's digest; for every
    `omega_instance` seed 0-59 the union amalgam's digest.  Then the full
    reports of the broken cases: two separated families, a grid amalgam
    with a broken mirror, and omega members that disagree on the root."""
    tree = kappa_tree()
    lines = []
    for seed in range(60):
        r_nu, r_mu, pp, qq, _, _, pairing, stamps, F = eta_inputs(tree, seed)
        starved = dataclasses.replace(stamps, d_of={iv: () for iv in stamps.d_of})
        for name, windows in (("eta", stamps), ("starved", starved)):
            try:
                res = amalgamate_eta(pp, qq, pairing, windows, tree)
            except SearchExhaustedError as err:
                pair = " ".join(str(x) for x in err.constraint or ())
                lines.append(f"kappa {seed} {name} exhausted {pair}")
                continue
            fresh = " ".join(str(v) for v in res.fresh_points)
            lines.append(f"kappa {seed} {name} {digest(res.condition, tree.params)} {fresh}")
        _, _, zn, zm, _ = kappa_instance(tree, random.Random(seed))
        r = amalgamate_kappa(r_nu, r_mu, zn, zm, tree, F)
        lines.append(f"kappa {seed} route {digest(r, tree.params)}")
    otree = omega_tree()
    for seed in range(60):
        p, q, root, F = omega_instance(otree, random.Random(seed))
        r = amalgamate_omega(p, q, root, F, otree)
        lines.append(f"omega {seed} {digest(r, otree.params)}")

    eps = otree.root_eps()
    c, u1, u2 = Point(eps[1], 0), Point(eps[2], 0), Point(eps[3], 0)
    p = make_condition("omega", [c, u1, u2], [(c, u1), (c, u2)], complete=True)
    q = make_condition("omega", [c, u1, u2], [(c, u1)], complete=True)
    with pytest.raises(HypothesisViolationError) as err:
        amalgamate_omega(p, q, p.points, flat_F(otree, otree.params.lambda_w, 12), otree)
    reports = {
        "level-sharing": separated_report(level_sharing_family(tree)),
        "order-mismatch": separated_report(order_mismatch_family(tree)),
        "broken-mirror": r2_report(*broken_mirror(tree)),
        "root-disagreement": err.value.details,
    }
    for name, report in reports.items():
        lines.append(f"{name} {len(report)}")
        lines.extend(report)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def golden_documents() -> dict:
    """Every golden document by its path under `tests/golden/`."""
    docs = {}
    for dialect, tree in (("kappa", kappa_tree()), ("omega", omega_tree())):
        cond = walk_condition(tree, dialect, random.Random(3), steps=5)
        docs[f"condition-{dialect}.txt"] = condition_to_text(cond, tree.params)

    tree = kappa_tree()
    sch = golden_schedule()
    T = run_schedule(sch, tree, flat_F(tree, tree.params.lambda_w, 12), "kappa")
    docs["schedule.txt"] = schedule_to_text(sch)
    docs["poset.txt"] = poset_to_text(T)
    docs["space.txt"] = space_to_text(space_from_poset(T))
    docs["amalgam.txt"] = amalgam_document()

    with tempfile.TemporaryDirectory() as tmp:
        params = Params(parse("w^2"))
        F = f_generate(params, IntervalTree(params).root_eps(), strategy="random", seed=5)
        save(F, Path(tmp) / "table.txt")
        docs["table.txt"] = (Path(tmp) / "table.txt").read_text()

        corpus = Path(tmp) / "corpus"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["pipeline", "--corpus", str(corpus), "--count", "5", "--seed", "0"])
        assert code == 0
        for name in PIPELINE:
            source = corpus / ("reports/" + name if name == "summary.txt" else name)
            docs["pipeline/" + name] = source.read_text()
    return docs


@pytest.fixture(scope="module")
def documents():
    return golden_documents()


NAMES = sorted(
    ["amalgam.txt", "condition-kappa.txt", "condition-omega.txt", "poset.txt", "schedule.txt"]
    + ["space.txt"]
    + ["table.txt"]
    + ["pipeline/" + name for name in PIPELINE]
)


@pytest.mark.parametrize("name", NAMES)
def test_document_matches_golden(documents, name):
    assert documents[name].encode() == (GOLDEN / name).read_bytes()


def test_golden_set_is_complete():
    stored = sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*.txt"))
    assert stored == NAMES


@pytest.mark.parametrize("dialect", ["kappa", "omega"])
def test_condition_reads_back_to_golden(dialect):
    text = (GOLDEN / f"condition-{dialect}.txt").read_text()
    cond, params = condition_from_text(text)
    assert condition_to_text(cond, params) == text


def test_poset_schedule_space_read_back_to_golden():
    text = (GOLDEN / "poset.txt").read_text()
    assert poset_to_text(poset_from_text(text)) == text
    text = (GOLDEN / "schedule.txt").read_text()
    assert schedule_to_text(schedule_from_text(text)) == text
    text = (GOLDEN / "space.txt").read_text()
    assert space_to_text(space_from_text(text)) == text


def test_table_reads_back_to_golden(tmp_path):
    params = Params(parse("w^2"))
    F = load(GOLDEN / "table.txt", IntervalTree(params).root_eps())
    save(F, tmp_path / "table.txt")
    assert (tmp_path / "table.txt").read_bytes() == (GOLDEN / "table.txt").read_bytes()


if __name__ == "__main__":
    for name, text in golden_documents().items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path.relative_to(GOLDEN.parent.parent)}", file=sys.stderr)
