"""Count the lines of each src/scatterlab module by kind.

Each line of a module is one of: docstring (inside the string that opens
a module, class or function body), code (any other token reaches it,
multi-line strings included), comment (a comment and nothing else) or
blank.  The count uses `ast` and `tokenize` from the standard library.

Run it from the repository root:

    python3 tools/src_lines.py

It prints one row per module, then the totals.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "scatterlab"
KINDS = ("total", "code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module):
    """The line numbers spanned by the docstrings of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str):
    """The counts of `text`, a module's source, in `KINDS` order."""
    docs = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    n = len(text.splitlines())
    kinds = {kind: 0 for kind in KINDS}
    for line in range(1, n + 1):
        if line in docs:
            kinds["docstring"] += 1
        elif line in code:
            kinds["code"] += 1
        elif line in comments:
            kinds["comment"] += 1
        else:
            kinds["blank"] += 1
    kinds["total"] = n
    return [kinds[kind] for kind in KINDS]


def main():
    rows = [(path.name, count(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", [sum(col) for col in zip(*(counts for _, counts in rows))]))
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{c:>11}" for c in counts))


if __name__ == "__main__":
    main()
