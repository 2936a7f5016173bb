"""List the lines of src/scatterlab that no test reaches.

A line collector from the standard library alone (no coverage package):
it runs pytest in this process under `sys.settrace`, records every line
executed in the package's source files, and prints each executable line
that was never reached, as `file:line  source`, then a count.  A line is
executable when a code object of its file has an instruction on it.

Run it from the repository root:

    PYTHONPATH=src python3 tools/unreached_lines.py [pytest arguments]

With no arguments it runs the whole suite (`-q -p no:cacheprovider`).
Tracing slows every test several times, so a test with a wall-clock
ceiling can fail under the collector alone; the listing still counts
the lines it reached.  The exit status is pytest's.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "scatterlab"


def executable_lines(path: Path):
    """The line numbers of `path` that carry an instruction."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def collect(args):
    """Run pytest with `args` under the tracer: (exit status, the lines
    reached, as (file, line) pairs)."""
    reached = set()
    ours = {}

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == SRC
        if not ours[name]:
            return None
        reached.add((name, frame.f_lineno))
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, {(str(Path(name).resolve()), line) for name, line in reached}


def main(argv):
    status, reached = collect(argv or ["-q", "-p", "no:cacheprovider"])
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in reached:
                missed += 1
                print(f"{path.name}:{line}  {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/scatterlab reached by no test")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
