"""The `# scatterlab-fmt 1` document layout, shared by every parser.

A document is a header line `# scatterlab-fmt 1 <kind>`, then `key value`
lines and counted sections: a `name N` line followed by exactly N lines.
Blank lines are ignored.  The readers here take `error`, the calling
module's error class (or a function that builds one from a message), and
raise it on malformed input, so each document kind keeps its own typed
error.  This module imports nothing from the package.
"""

from typing import Dict, Iterable, List, Sequence, Tuple


def text(lines: Iterable[str]) -> str:
    """The document made of `lines`, each ended by a newline."""
    return "\n".join(lines) + "\n"


def document_lines(doc: str, header: str, error) -> List[str]:
    """The non-blank lines of `doc`, whose first must be `header`."""
    lines = [ln for ln in doc.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != header:
        raise error(f"missing header {header!r}")
    return lines


def value(lines: List[str], at: int, key: str, error) -> str:
    """The value of the `key value` line at `at`."""
    row = lines[at].split() if at < len(lines) else []
    if len(row) != 2 or row[0] != key:
        raise error(f"expected a '{key} VALUE' line at document line {at + 1}")
    return row[1]


def section(lines: List[str], at: int, name: str, error) -> Tuple[List[str], int]:
    """The lines of the counted section whose `name N` line sits at `at`,
    and the index of the line after them.

    Raises `error` when that line is missing or malformed, or when fewer
    than N lines follow it.
    """
    head = lines[at].split() if at < len(lines) else []
    if len(head) != 2 or head[0] != name or not head[1].isdecimal():
        raise error(f"expected a '{name} N' line at document line {at + 1}")
    count = int(head[1])
    body = lines[at + 1 : at + 1 + count]
    if len(body) < count:
        raise error(f"{name} section declares {count} lines, found {len(body)}")
    return body, at + 1 + count


def numbered(body: List[str], error, fields: int = 0) -> list:
    """The text after the index of each `i ...` line of a points section,
    checking that line i carries index i; split into `fields` tokens when
    `fields` is given."""
    rows = []
    for line in body:
        idx, _, rest = line.partition(" ")
        row = rest.split() if fields else rest
        if idx != str(len(rows)) or (fields and len(row) != fields):
            raise error(f"point line {len(rows)} is misnumbered or malformed: {line!r}")
        rows.append(row)
    return rows


def distinct(points: Iterable, error) -> None:
    """Raises `error` when `points` lists a point twice."""
    seen = set()
    for x in points:
        if x in seen:
            raise error(f"point {x} is listed twice")
        seen.add(x)


def by_token(items: Sequence) -> Dict[str, object]:
    """The `{str(k): item}` map that `indexed` and `pair` can resolve
    canonical index tokens through."""
    return {str(k): x for k, x in enumerate(items)}


def indexed(items: Sequence, tokens: Sequence[str], error, lookup=None) -> list:
    """The items at the given index tokens, each checked to be in range.

    With `lookup` from `by_token(items)`, tokens are read from that map,
    and only when one is missing from it (out of range, not decimal, or
    written like "01") are all of them checked one by one."""
    if lookup is not None:
        try:
            return [lookup[tok] for tok in tokens]
        except KeyError:
            pass
    out = []
    for tok in tokens:
        if not tok.isdecimal() or int(tok) >= len(items):
            raise error(f"point index {tok!r} out of range for {len(items)} points")
        out.append(items[int(tok)])
    return out


def pair(items: Sequence, line: str, error, lookup=None) -> list:
    """The two items whose index tokens make up `line`."""
    out = indexed(items, line.split(), error, lookup)
    if len(out) != 2:
        raise error(f"expected two point indices, got {line.strip()!r}")
    return out


def integer(token: str, what: str, error) -> int:
    """`int(token)`, raising `error` where int raises ValueError."""
    try:
        return int(token)
    except ValueError:
        raise error(f"{what} {token!r} is not an integer") from None


def params(lines: List[str], at: int, keys: Sequence[str], error) -> Dict[str, int]:
    """The integers of the `params key=value ...` line at `at`, one for
    each of `keys`."""
    row = lines[at].split() if at < len(lines) else []
    if not row or row[0] != "params":
        raise error(f"expected a 'params KEY=VALUE ...' line at document line {at + 1}")
    kv = {}
    for tok in row[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise error(f"params entry {tok!r} is not key=value")
        kv[key] = val
    missing = [key for key in keys if key not in kv]
    if missing:
        raise error(f"params line lacks {', '.join(missing)}")
    return {key: integer(kv[key], key, error) for key in keys}
