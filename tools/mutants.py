"""Mutation probe for functions of src/scatterlab, standard library only.

It copies the repository into a temporary directory and never writes the
working tree.  In the named functions of one module it makes one `ast`
mutant at a time: a comparison flipped (`<` and `<=`, `>` and `>=`, `==`
and `!=`, `is` and `is not`, `in` and `not in`), `&` and `|`, `<<` and
`>>`, `+` and `-`, `and` and `or` swapped, a `not` dropped, or an integer
constant moved by +1 and by -1.  For each mutant it writes the module
back as `ast.unparse` text and runs the module's test files with `-x` in
one child process, with a limit of TIMEOUT seconds per mutant.  The test
files are `tests/test_<module>.py`, or the files TESTS lists for a module
whose tests live in more than one.  A mutant is killed when pytest fails,
survived when it passes and timed out when it overruns.

Run it from the repository root, naming a module and its functions
(`Class.method` for one method, a bare name for every function or method
of that name):

    python3 tools/mutants.py ordinals _text fundamental

It prints one line per mutant as it finishes, then killed, survived and
timed out per function.  It first runs the tests on the unmutated module
as written back by `ast.unparse`, and stops if they fail.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300.0
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.And: ast.Or, ast.Or: ast.And,
}
# modules tested in more than tests/test_<module>.py: the order core's
# listings, hulls and owners and its checker gates are in test_order_core.py
TESTS = {
    "conditions": ("test_conditions.py", "test_order_core.py"),
    "generic": ("test_generic.py", "test_order_core.py"),
}


def functions(tree: ast.Module, names):
    """The (qualified name, node) of each function of `tree` that `names` asks for."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            methods = [f for f in top.body if isinstance(f, ast.FunctionDef)]
            found += [(f"{top.name}.{f.name}", f) for f in methods]
        elif isinstance(top, ast.FunctionDef):
            found.append((top.name, top))
    return [(qual, func) for qual, func in found if qual in names or func.name in names]


def edits(func: ast.FunctionDef):
    """(line, shown, holder, slot, replacement) for every mutant inside
    `func`: the mutant puts `replacement` at `holder[slot]`, or at attribute
    `slot` of `holder`, and changes the text of node `shown`."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            out += [
                (node.lineno, node, node.ops, i, SWAPS[type(op)]())
                for i, op in enumerate(node.ops)
                if type(op) in SWAPS
            ]
        elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)) and type(node.op) in SWAPS:
            out.append((node.lineno, node, node, "op", SWAPS[type(node.op)]()))
        # a dropped `not` or a moved constant is shown in the node holding it
        for field, value in ast.iter_fields(node):
            holder = value if isinstance(value, list) else node
            for slot, child in enumerate(value) if holder is value else [(field, value)]:
                if isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                    out.append((child.lineno, node, holder, slot, child.operand))
                elif isinstance(child, ast.Constant) and type(child.value) is int:
                    out += [
                        (child.lineno, node, holder, slot, ast.Constant(child.value + d))
                        for d in (1, -1)
                    ]
    return out


def text(node) -> str:
    """The first line of `node`'s source, as `ast.unparse` writes it."""
    return ast.unparse(node).splitlines()[0][:100]


def swap(holder, slot, value):
    """Put `value` at `holder`'s `slot` and return what was there."""
    if isinstance(holder, list):
        old, holder[slot] = holder[slot], value
    else:
        old = getattr(holder, slot)
        setattr(holder, slot, value)
    return old


def run_tests(copy: Path, test_files) -> str:
    """killed, survived or timeout for `test_files` run in `copy`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_files]
    child = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "survived" if child.wait(TIMEOUT) == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        # an overrun or an interrupt leaves no test process behind
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/scatterlab, without .py")
    parser.add_argument("functions", nargs="+")
    args = parser.parse_args(argv)
    test_files = [f"tests/{name}" for name in TESTS.get(args.module, (f"test_{args.module}.py",))]
    rel = Path("src", "scatterlab", args.module + ".py")
    tree = ast.parse((ROOT / rel).read_text())
    targets = functions(tree, set(args.functions))
    if not targets:
        parser.error(f"no function of {rel} is named {' '.join(args.functions)}")
    tally = {qual: {"killed": 0, "survived": 0, "timeout": 0} for qual, _ in targets}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp, "repo")
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=skip)
        (copy / rel).write_text(ast.unparse(tree))
        if run_tests(copy, test_files) != "survived":
            print("the tests fail or time out on the unmutated module; nothing was mutated")
            return 1
        for qual, func in targets:
            for line, shown, holder, slot, value in edits(func):
                before = text(shown)
                old = swap(holder, slot, value)
                after = text(shown)
                (copy / rel).write_text(ast.unparse(tree))
                swap(holder, slot, old)
                start = time.perf_counter()
                verdict = run_tests(copy, test_files)
                tally[qual][verdict] += 1
                print(f"{rel.name}:{line} {qual}  {before!r} -> {after!r}  {verdict} "
                      f"{time.perf_counter() - start:.1f}s", flush=True)
    print(f"\n{'function':32} killed survived timeout")
    for qual, counts in tally.items():
        print(f"{qual:32} {counts['killed']:6} {counts['survived']:8} {counts['timeout']:7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
