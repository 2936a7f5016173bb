"""The document readers against the readers they replaced.

`read_poset_block` parses each distinct level token and meet-row tail once
and resolves index tokens through one map, and `unbounded.load` converts
each table row with one `int` map; the oracles in `oracles.py` do every
token's work where it stands.  Over stored condition, poset and table
documents, and over damaged copies of them, both must give an equal
result or raise the same exception type with the same message.

The last test guards the cold document path against the checking
`Ordinal` constructor: arithmetic results are built from their normal
form, so a cold tree's root markers and a table load make no checked call.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab import fmt
from scatterlab.conditions import FORMAT_HEADER, ConditionError, condition_to_text, read_poset_block
from scatterlab.generic import FORMAT_HEADER_POSET, GenericError, poset_from_condition, poset_to_text
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import ONE, Ordinal, parse
from scatterlab.unbounded import UnboundedFn, f_generate, load, save

from .corpus import kappa_tree, omega_tree, walk_condition
from .oracles import naive_load, naive_read_poset_block, naive_table_rows

TREES = {"kappa": kappa_tree(), "omega": omega_tree()}
# where each kind's poset block starts, and the error its reader raises
BLOCKS = {"condition": (FORMAT_HEADER, 4, ConditionError), "poset": (FORMAT_HEADER_POSET, 2, GenericError)}
BAD_TOKENS = ("x", "01", "-1", "+1", "1.0", "٣", "999")


def outcome(read, *args):
    try:
        return "returned", read(*args)
    except Exception as err:  # the comparison is of type and message
        return type(err), str(err)


def table_text(F):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "F.txt"
        save(F, path)
        return path.read_text()


@st.composite
def documents(draw):
    """(kind, dialect, text) of a stored condition, poset or table document."""
    kind = draw(st.sampled_from(["condition", "poset", "table"]))
    dialect = draw(st.sampled_from(sorted(TREES)))
    tree = TREES[dialect]
    seed = draw(st.integers(0, 2**16))
    if kind == "table":
        return kind, dialect, table_text(f_generate(tree.params, tree.root_eps(), seed=seed))
    cond = walk_condition(tree, dialect, random.Random(seed), draw(st.integers(1, 5)))
    if kind == "condition":
        return kind, dialect, condition_to_text(cond, tree.params)
    return kind, dialect, poset_to_text(poset_from_condition(cond))


def section(lines, name):
    """The line numbers of the counted section `name`'s body."""
    at = next(i for i, ln in enumerate(lines) if ln.split()[:1] == [name])
    return list(range(at + 1, at + 1 + int(lines[at].split()[1])))


@st.composite
def damaged(draw, kind, text):
    """`text` with one mutation: an index token out of range or not written
    in decimal, a token dropped or added, a bad level on a later point line,
    a level repeated from another point, or a second row for a pair with
    another value."""
    lines = text.splitlines()
    if kind == "table":
        rows = list(range(2, len(lines)))
    else:
        rows = section(lines, "order") + section(lines, "meets")
    how = draw(st.sampled_from(["token", "drop", "extra", "level", "repeat", "conflict"]))
    if kind == "table" and how in ("level", "repeat"):
        how = "token"
    if how in ("token", "drop", "extra") and rows:
        at = draw(st.sampled_from(rows))
        tokens = lines[at].split()
        if how == "extra":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["0", "1", "x"])))
        else:
            slot = draw(st.sampled_from([i for i, tok in enumerate(tokens) if tok != ":"] or [0]))
            if tokens and how == "drop":
                del tokens[slot]
            elif tokens:
                tokens[slot] = draw(st.sampled_from(BAD_TOKENS + (str(len(rows)),)))
        lines[at] = " ".join(tokens)
    elif how in ("level", "repeat"):
        points = section(lines, "points")
        if len(points) > 1:
            at = draw(st.sampled_from(points[1:]))
            i, _, xi = lines[at].split()
            if how == "level":
                level = draw(st.sampled_from(["w^", "q", "w*0", "()", "-1"]))
            else:
                level = lines[draw(st.sampled_from(points))].split()[1]
            lines[at] = f"{i} {level} {xi}"
    elif how == "conflict" and rows:
        at = draw(st.sampled_from(rows[-1:] if kind == "table" else section(lines, "meets") or rows))
        head, _, tail = lines[at].partition(":")
        if kind == "table":
            i, j, idx = lines[at].split()
            extra = f"{j} {i} {draw(st.sampled_from([idx, '0', '1']))}"
        else:
            extra = f"{head}: {draw(st.sampled_from(['', '0', '1', tail.strip()]))}"
        lines.insert(at + 1, extra)
        if kind != "table":
            meets = next(i for i, ln in enumerate(lines) if ln.startswith("meets "))
            lines[meets] = f"meets {int(lines[meets].split()[1]) + 1}"
    return "\n".join(lines) + "\n"


def read_both(kind, dialect, text):
    if kind == "table":
        eps = TREES[dialect].root_eps()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "F.txt"
            path.write_text(text)
            new = outcome(lambda: load(path, eps)._rows)
            old = outcome(naive_load, path, eps)
        return new, old
    header, at, error = BLOCKS[kind]
    lines = fmt.document_lines(text, header, error)
    return outcome(read_poset_block, lines, at, error), outcome(naive_read_poset_block, lines, at, error)


@settings(max_examples=150)
@given(documents())
def test_stored_documents_read_as_the_old_readers_read_them(doc):
    new, old = read_both(*doc)
    assert new[0] == "returned"
    assert new == old


@settings(max_examples=400)
@given(st.data())
def test_damaged_documents_read_or_fail_as_the_old_readers_do(data):
    kind, dialect, text = data.draw(documents())
    bad = data.draw(damaged(kind, text))
    new, old = read_both(kind, dialect, bad)
    assert new == old


KEYS = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
    st.frozensets(st.integers(-1, 4), max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)


@given(st.integers(2, 4), st.dictionaries(KEYS, st.integers(-1, 3), max_size=8), st.booleans())
def test_table_entries_are_checked_as_the_frozenset_check_did(lam, entries, full):
    eps = TREES["kappa"].root_eps()[:3]
    if full:
        # a complete table, with the drawn keys on top of it
        entries = {**{(i, j): (i + j) % 3 for i in range(lam) for j in range(i + 1, lam)}, **entries}
    new = outcome(lambda: UnboundedFn(lam, eps, entries)._rows)
    assert new == outcome(naive_table_rows, lam, eps, entries)


def test_cold_documents_make_no_checked_ordinal(monkeypatch, tmp_path):
    tree = IntervalTree(Params(parse("w^2"), kappa_w=3, lambda_w=12))
    eps = tree.root_eps()
    path = tmp_path / "F.txt"
    save(f_generate(tree.params, eps, seed=1), path)
    checking = Ordinal.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        checking(self, *args, **kwargs)

    monkeypatch.setattr(Ordinal, "__init__", counted)
    IntervalTree(Params(parse("w^2"))).root_eps()
    assert load(path, eps).lambda_w == 12
    assert calls == []
    Ordinal(((ONE, 1),))
    assert len(calls) == 1
