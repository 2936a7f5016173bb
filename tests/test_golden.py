"""Byte-for-byte checks of the documents the library and the CLI write.

Each fixture under `tests/golden/` is regenerated here from a fixed seed
and compared with the stored bytes, and each parser reads its fixture
back to the same bytes.  To rewrite the fixtures after a deliberate
format change, run from the repository root:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest

from scatterlab.analysis import space_from_poset, space_from_text, space_to_text
from scatterlab.cli import main
from scatterlab.conditions import TOP, Point, condition_from_text, condition_to_text
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

from .corpus import flat_F, kappa_tree, omega_tree, walk_condition

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
    ["condition-kappa.txt", "condition-omega.txt", "poset.txt", "schedule.txt", "space.txt"]
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
