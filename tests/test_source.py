"""Guards over the package source itself."""

import ast
import importlib
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


def test_no_module_imports_a_private_name_from_another():
    # underscore names stay inside their module; shared helpers get public names
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "scatterlab":
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def test_every_imported_name_is_read():
    # the repo runs no linter; the root of an attribute chain is an ast.Name
    # too, so a name no ast.Name reads is an import nothing uses
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in (a.asname or a.name.split(".")[0] for a in node.names)
                    if name not in read
                ]
    assert found == []


def test_the_package_keeps_the_one_public_name_list():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(scatterlab.__all__) == sorted(imported)
    others = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and "__all__" in vars(importlib.import_module(f"scatterlab.{path.stem}"))
    ]
    assert others == []


def test_every_private_module_name_is_used_in_its_module():
    # an underscore def or class is read nowhere else, so one its own
    # module does not read is dead code
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and node.name not in read
        ]
    assert found == []


def test_no_module_assigns_a_private_attribute_of_another_object():
    # an object's underscore state is set by its own methods, through self or cls
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {ast.unparse(target)}"
                for root in targets
                for target in ast.walk(root)
                if isinstance(target, ast.Attribute)
                and isinstance(target.ctx, ast.Store)
                and target.attr.startswith("_")
                and not (isinstance(target.value, ast.Name) and target.value.id in ("self", "cls"))
            ]
    assert found == []


def _calls_passing():
    # (callee name, keyword or position) for every call in the project; a
    # call that spreads *args or **kwargs passes everything ("*")
    passed = set()
    root = PACKAGE.parents[1]
    for top in ("src", "tests", "bench", "demos"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed.update((name, k.arg or "*") for k in node.keywords)
                passed.update((name, k) for k in range(len(node.args)))
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    passed.add((name, "*"))
    return passed


def test_every_optional_parameter_is_passed_somewhere():
    # a default no call overrides is a knob nobody turns; calls are matched
    # by function name, and a class's __init__ by calls to it or a subclass
    passed = _calls_passing()
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    classes = [node for tree in modules for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    subclasses = {cls.name: {cls.name} for cls in classes}
    for _ in classes:  # one pass per class reaches every depth of the hierarchy
        for cls in classes:
            for base in cls.bases:
                subclasses.get(getattr(base, "id", None), set()).update(subclasses[cls.name])
    found = []
    for owner in (node for tree in modules for node in ast.walk(tree)):
        body = owner.body if isinstance(getattr(owner, "body", None), list) else []
        for fn in body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {fn.name}
            if isinstance(owner, ast.ClassDef) and fn.name == "__init__":
                names = subclasses[owner.name]
            elif fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            args = fn.args.posonlyargs + fn.args.args
            if isinstance(owner, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
            ):
                args = args[1:]
            optional = [
                (arg.arg, k) for k, arg in enumerate(args) if k >= len(args) - len(fn.args.defaults)
            ]
            optional += [
                (arg.arg, arg.arg)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            found += [
                f"{fn.name}({param})"
                for param, position in optional
                if not any({(n, param), (n, position), (n, "*")} & passed for n in names)
            ]
    assert found == []


def test_points_compare_and_hash_by_identity():
    # Point is hash-consed, so object's C-level identity equality and hash
    # are exact; a Python-level __eq__ or __hash__ would cost two calls a lookup
    tree = ast.parse((PACKAGE / "conditions.py").read_text())
    (point,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Point"]
    defined = set()
    for node in point.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert defined.isdisjoint({"__eq__", "__ne__", "__hash__"})
