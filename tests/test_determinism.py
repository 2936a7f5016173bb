"""Outputs that do not follow the hashes of points.

A `Point` hashes by identity, which changes from run to run, so nothing
the package writes may follow the iteration order of a set of points.
The test runs one corpus in two interpreters, each with its own salted
`Point.__hash__` installed before any work, and compares what they print
byte for byte: the four benchmark pools' digests at seed 5, computed as
`test_bench_digests.py` computes them, then error messages, reports and
findings on inputs that name several points at once (`corpus.py`'s
multi-finding inputs), through `cli.main` where the CLI prints them.

Run as a module, ``python -m tests.test_determinism SALT WORKDIR`` prints
the corpus under that salt, writing its files below WORKDIR.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from scatterlab import cli, conditions
from scatterlab.amalgam import AmalgamError, amalgamate_omega, pull_back, separated_report
from scatterlab.conditions import ConditionError, validate
from scatterlab.generic import poset_from_text, sposet_check

from .corpus import (
    bad_order_pair_calls,
    cycle_documents,
    messy_poset_document,
    missing_pull_back,
    multi_meet_documents,
    omega_hypotheses_pair,
    omega_top_meet,
    root_level_family,
    root_moving_family,
)
from .test_bench_digests import DIGESTS, one_pass_digest

ROOT = Path(__file__).resolve().parent.parent


def cli_lines(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [f"$ scatterlab {' '.join(argv)}", f"exit {code}", out.getvalue(), err.getvalue()]


def corpus_lines(workdir: Path):
    lines = [f"digest {name} {one_pass_digest(name, 5, workdir / name)}" for name in DIGESTS]
    docs = cycle_documents() + multi_meet_documents()
    os.chdir(workdir)  # the CLI reports name the documents as given
    for k, doc in enumerate(docs):
        Path(f"condition_{k}.txt").write_text(doc)
        lines += cli_lines(["validate", f"condition_{k}.txt"])
    for call, args in bad_order_pair_calls():
        try:
            call(*args)
        except ConditionError as err:
            lines.append(str(err))
    cond, tree, F = omega_top_meet()
    lines += map(str, validate(cond, tree, F))
    report = sposet_check(poset_from_text(messy_poset_document()), 1)
    lines += report.partition + report.level_order + report.meet_witness
    p, q, root, F, tree = omega_hypotheses_pair()
    try:
        amalgamate_omega(p, q, root, F, tree)
    except AmalgamError as err:
        lines += [str(err), *err.details]
    lines += separated_report(root_level_family()) + separated_report(root_moving_family())
    try:
        pull_back(*missing_pull_back())
    except AmalgamError as err:
        lines.append(str(err))
    return lines


def print_corpus(salt: int, workdir: str) -> None:
    if len(conditions._interned):
        raise SystemExit("points were made before the salted hash was installed")
    conditions.Point.__hash__ = lambda self: hash((salt, self._key))
    sys.stdout.write("\n".join(corpus_lines(Path(workdir))) + "\n")


def salted_run(salt, workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    argv = [sys.executable, "-m", "tests.test_determinism", str(salt), str(workdir)]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_two_salted_point_hashes_print_the_same_corpus(tmp_path):
    outputs = []
    for salt in (1, 2):
        workdir = tmp_path / f"salt_{salt}"
        workdir.mkdir()
        outputs.append(salted_run(salt, workdir))
    assert outputs[0] == outputs[1]
    text = outputs[0].decode()
    for name, digest in DIGESTS.items():
        assert f"digest {name} {digest}\n" in text
    assert text.count("order cycle through (w, 0)") == 3
    assert "pushed points missing from the amalgam" in text


if __name__ == "__main__":
    print_corpus(int(sys.argv[1]), sys.argv[2])
