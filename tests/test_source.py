"""Guards over the package source itself."""

import ast
from pathlib import Path

import scatterlab

PACKAGE = Path(scatterlab.__file__).parent


def test_package_holds_no_assert():
    # checks run under `python -O` too, so they raise typed errors instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
