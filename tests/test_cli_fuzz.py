"""Fuzzing `cli.main` over argument vectors and SCATTERLAB_* environments.

Every subcommand is driven with a mix of valid values, the edge values
0, -1, 1 and 10^6 of each integer flag, and bad environment defaults.
Whatever the vector, main must answer with exit 0, 1 or 2 (argparse's
own refusals included) and never print a traceback.  Costly vectors are
bounded by the program's own caps (the lambda_w cap, the family cap of
`star_search`, the `BlowupGuardError` of table probes, the exact-topology
cap of `analyze`), and each example runs under a wall-clock guard.

Two edge draws are left out because nothing in the program bounds them
and the work they ask for is real.  An e_budget of 10^6, by flag or by
environment, is left out for the commands that still materialize every
root marker: `tree`, `unbounded`, `simulate` and `pipeline`.  `orbit`
draws it, since a tree query materializes only the markers it reads; the
derandomized draw never reaches it, so two pinned examples run it, by
flag and by environment.
And `pipeline --count 1000000` runs a million instances.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatterlab.cli import main

from .conftest import wall_clock

GOLDEN = Path(__file__).resolve().parent / "golden"
BIG = 10**6
EDGES = (0, -1, 1, BIG)


# subcommands that build their tree from the shared flags, not from a document,
# and of those the ones that materialize every root marker
FROM_FLAGS = {"tree", "orbit", "gen", "verify", "search", "simulate", "pipeline"}
ALL_MARKERS = FROM_FLAGS - {"orbit"}
COMMANDS = sorted(FROM_FLAGS | {"validate", "extend", "amalgamate", "analyze"})


@st.composite
def cases(draw):
    """(argv with {placeholders}, SCATTERLAB_* environment)."""
    command = draw(st.sampled_from(COMMANDS))
    all_markers = command in ALL_MARKERS

    def pick(values):
        return draw(st.sampled_from(values))

    def value(valid, edges=EDGES):
        return str(pick(tuple(valid) + tuple(edges)))

    def maybe(flag, valid, edges=EDGES):
        return [flag, value(valid, edges)] if draw(st.booleans()) else []

    def out(path):
        return ["--out", path] if draw(st.booleans()) else []

    if command == "tree":
        argv = ["tree", *maybe("--depth", (1, 2)), *out("{work}/tree.txt")]
    elif command == "orbit":
        argv = ["orbit", pick(["w*3", "w*3+2", "w^2", "5", "w^w", "x"])]
        argv += ["--beta", pick(["w*5", "w^2", "w"])] if draw(st.booleans()) else []
    elif command == "gen":
        argv = ["unbounded", "gen", "--strategy", pick(["random", "greedy"]),
                "--out", "{work}/F.txt"]
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--probe", value((2, 3)), value((1, 2, 3)), value((0, 1, 2))]
    elif command == "verify":
        argv = ["unbounded", "verify", "{f}", "--gamma", value(range(6)),
                "--family", pick(["0,1;2,3", "0;1", "0,1;1,2", "0,x"])]
    elif command == "search":
        argv = ["unbounded", "search", "{f}", "--m", value((2, 3)), "--nu", value((1, 2, 3))]
        argv += ["--gammas", pick(["1,2,3", "0", "1,99"])] if draw(st.booleans()) else []
    elif command == "validate":
        argv = ["validate", pick(["{a}", "{golden}/condition-kappa.txt",
                                  "{golden}/condition-omega.txt"])]
        argv += ["--f", "{f}"] if draw(st.booleans()) else []
    elif command == "extend":
        argv = ["extend", "{a}", "--target", pick(["TOP:6", "TOP:0", "w*9:4"]),
                "--alpha", pick(["w*4", "w", "w*3+1"]), *maybe("--xi-floor", (0, 3))]
    elif command == "amalgamate":
        argv = ["amalgamate", "{a}", "{b}", "--f", "{f}",
                *maybe("--zeta-first", ("{zn}",)), *maybe("--zeta-second", ("{zm}",))]
    elif command == "simulate":
        argv = ["simulate", "--schedule", "{golden}/schedule.txt"]
        argv += ["--f", "{f}"] if draw(st.booleans()) else []
    elif command == "analyze":
        argv = ["analyze", *pick([["--ordinal", "w^2*2+3"], ["--ordinal", "w^w"],
                                  ["--poset", "{golden}/poset.txt"],
                                  ["--space", "{golden}/space.txt"]]),
                *maybe("--cap", (16, 64))]
    else:
        argv = ["pipeline", "--corpus", "{work}/corpus",
                *maybe("--count", (1, 2), (0, -1, 1)), *maybe("--f-const", (0, 5))]
    if command in ("orbit", "verify", "search", "validate", "extend", "amalgamate",
                   "simulate", "analyze"):
        argv += out("{work}/out")

    shared = {
        "--eta": ("w^2", "w^3", "w*4", "5", "w^^"),
        "--kappa-w": (2, 3, 4) + EDGES,
        "--lambda-w": (6, 8, 12) + EDGES,
        "--e-budget": (4, 8, 16) + ((0, -1, 1) if all_markers else EDGES),
        "--seed": (0, 5) + EDGES,
        "--budget-n": (1, 3) + EDGES,
        "--dialect": ("omega", "kappa"),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(shared)), max_size=3, unique=True)):
        argv += [flag, str(pick(shared[flag]))]

    bad_ints = ("0", "-1", "x", "")
    env_values = {
        "ETA": ("w^2", "w^3", "x", "w^^", "5", ""),
        "KAPPA_W": ("2", "3") + bad_ints,
        "LAMBDA_W": ("6", "12", str(BIG)) + bad_ints,
        "E_BUDGET": ("4", "16") + bad_ints + (() if all_markers else (str(BIG),)),
        "SEED": ("0", "7", str(BIG)) + bad_ints,
        "BUDGET_N": ("1", "3", str(BIG)) + bad_ints,
        "DIALECT": ("omega", "kappa", "zeta", ""),
    }
    names = draw(st.lists(st.sampled_from(sorted(env_values)), max_size=2, unique=True))
    env = {"SCATTERLAB_" + name: pick(env_values[name]) for name in names}
    return argv, env


@settings(max_examples=400, derandomize=True)
@given(case=cases())
@example(case=(["orbit", "w*3", "--e-budget", str(BIG)], {}))
@example(case=(["orbit", "w*3"], {"SCATTERLAB_E_BUDGET": str(BIG)}))
def test_main_answers_every_vector_with_an_exit_status(kappa_doc, case):
    argv, env = case
    a, b, f, zn, zm = kappa_doc
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(os.environ):
        for name in [n for n in os.environ if n.startswith("SCATTERLAB_")]:
            del os.environ[name]
        os.environ.update(env)
        argv = [arg.format(work=work, golden=GOLDEN, a=a, b=b, f=f, zn=zn, zm=zm)
                for arg in argv]
        with wall_clock(20), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exit:
                code = exit.code
    assert code in (0, 1, 2), (argv, env, code)
    assert "Traceback" not in stderr.getvalue(), (argv, env)
