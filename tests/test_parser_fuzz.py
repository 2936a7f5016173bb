"""Fuzzing the five document parsers with damaged golden documents.

Each case is a golden document cut at some character, or with one token
dropped or replaced by `x`, `-1` or `999`.  The parser must return an
object or raise its own module's typed error (`OrdinalError` too, where
the document holds level tokens), never anything else.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab.analysis import AnalysisError, space_from_text
from scatterlab.conditions import ConditionError, condition_from_text
from scatterlab.generic import GenericError, poset_from_text, schedule_from_text
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import OrdinalError, parse
from scatterlab.unbounded import FamilyError, load

GOLDEN = Path(__file__).resolve().parent / "golden"
EPS = IntervalTree(Params(parse("w^2"))).root_eps()


def table_from_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "F.txt"
        path.write_text(text)
        return load(path, EPS)


# golden document -> (parser, the errors it may raise)
PARSERS = {
    "condition-kappa.txt": (condition_from_text, (ConditionError, OrdinalError)),
    "condition-omega.txt": (condition_from_text, (ConditionError, OrdinalError)),
    "pipeline/conditions/pair_000_a.txt": (condition_from_text, (ConditionError, OrdinalError)),
    "pipeline/runs/pull_000.txt": (condition_from_text, (ConditionError, OrdinalError)),
    "poset.txt": (poset_from_text, (GenericError, OrdinalError)),
    "schedule.txt": (schedule_from_text, (GenericError, OrdinalError)),
    "space.txt": (space_from_text, (AnalysisError,)),
    "table.txt": (table_from_text, (FamilyError,)),
}


@st.composite
def damaged(draw):
    name = draw(st.sampled_from(sorted(PARSERS)))
    text = (GOLDEN / name).read_text()
    how = draw(st.sampled_from(["cut", "drop", "x", "-1", "999"]))
    if how == "cut":
        return name, text[: draw(st.integers(0, len(text) - 1))]
    parts = re.split(r"(\s+)", text)
    tokens = [i for i, part in enumerate(parts) if part and not part.isspace()]
    at = draw(st.sampled_from(tokens))
    parts[at] = "" if how == "drop" else how
    return name, "".join(parts)


@settings(max_examples=600)
@given(damaged())
def test_parser_returns_or_raises_its_typed_error(case):
    name, text = case
    parser, errors = PARSERS[name]
    try:
        parser(text)
    except errors:
        pass
