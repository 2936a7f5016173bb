"""End-to-end exercises of the command line through main()."""

import random
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from scatterlab import cli
from scatterlab.cli import main
from scatterlab.conditions import condition_from_text, condition_to_text
from scatterlab.generic import poset_from_text
from scatterlab.intervals import IntervalTree
from scatterlab.unbounded import load as load_table
from scatterlab.unbounded import save

from .conftest import wall_clock
from .corpus import (
    damaged_documents,
    damaged_schedules,
    damaged_tables,
    omega_instance,
    omega_tree,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- tree / orbit -----------------------------------------------------------------


@pytest.mark.parametrize(
    "flag, value",
    [("kappa-w", "3"), ("lambda-w", "6"), ("e-budget", "16"), ("seed", "0"),
     ("budget-n", "3")],
)
def test_bad_integer_environment_default(monkeypatch, capsys, flag, value):
    monkeypatch.setenv("SCATTERLAB_" + flag.upper().replace("-", "_"), "x")
    with pytest.raises(SystemExit) as err:
        main(["tree"])
    assert err.value.code == 2
    assert f"--{flag}: invalid int value: 'x'" in capsys.readouterr().err
    # an explicit flag wins, so the bad default is never converted
    code, _, _ = run(capsys, "tree", f"--{flag}", value)
    assert code == 0


def test_tree_reports_clean_axioms(capsys):
    code, out, _ = run(capsys, "tree", "--depth", "2")
    assert code == 0
    assert out.startswith("# scatterlab-fmt 1 tree")
    assert "axioms ok" in out
    assert "failure" not in out


def test_orbit_lists_prior_markers(capsys):
    code, out, _ = run(capsys, "orbit", "w*4")
    assert code == 0
    assert "size 4" in out
    assert "members 0 w w*2 w*3" in out


def test_orbit_with_beta_reports_interval(capsys):
    code, out, _ = run(capsys, "orbit", "w*4+2", "--beta", "w*5")
    assert code == 0
    assert "J [w*4, w*5)" in out


def test_orbit_under_a_huge_budget_reads_only_the_markers_it_needs(monkeypatch, capsys):
    # a million markers take tens of seconds to build; the answer needs three
    argv = ["orbit", "w*3", "--beta", "w*5"]
    expected = run(capsys, *argv)
    assert expected[0] == 0
    with wall_clock(5):
        assert run(capsys, *argv, "--e-budget", "1000000") == expected
        monkeypatch.setenv("SCATTERLAB_E_BUDGET", "1000000")
        assert run(capsys, *argv) == expected
        assert run(capsys, "orbit", "w^2")[1:] == (
            "", "error: BudgetExceededError: w^2 lies past the materialized children of [0, w^2)\n"
        )


# --- unbounded --------------------------------------------------------------------


def test_gen_verify_search_round_trip(tmp_path, capsys):
    table = tmp_path / "F.txt"
    code, _, _ = run(capsys, "unbounded", "gen", "--strategy", "greedy",
                     "--out", str(table))
    assert code == 0
    code, out, _ = run(capsys, "unbounded", "verify", str(table),
                       "--gamma", "3", "--family", "0,1;2,3")
    assert code == 0
    assert "witness 0,1 ; 2,3" in out
    code, out, _ = run(capsys, "unbounded", "search", str(table),
                       "--m", "2", "--nu", "2", "--gammas", "1,2,3")
    assert code == 0
    assert "swept ok" in out


def test_gen_random_is_seeded(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    run(capsys, "unbounded", "gen", "--seed", "5", "--out", str(a))
    run(capsys, "unbounded", "gen", "--seed", "5", "--out", str(b))
    run(capsys, "unbounded", "gen", "--seed", "6", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_probe_past_the_family_cap_is_a_clean_error(tmp_path, capsys):
    table = tmp_path / "F.txt"
    code, _, err = run(capsys, "unbounded", "gen", "--strategy", "greedy", "--probe",
                       "3", "2", "0", "--lambda-w", "100", "--out", str(table))
    assert code == 2
    assert err == (
        "error: BlowupGuardError: 17880786000 families exceeds the cap 10000000; "
        "pass force to override\n"
    )
    assert not table.exists()


def test_verify_reports_no_witness_with_exit_1(tmp_path, capsys):
    table = tmp_path / "F.txt"
    assert run(capsys, "unbounded", "gen", "--seed", "1", "--out", str(table))[0] == 0
    code, out, err = run(capsys, "unbounded", "verify", str(table),
                         "--gamma", "15", "--family", "0;1;2")
    assert (code, err) == (1, "")
    assert out == (
        "# scatterlab-fmt 1 report\nverify gamma w*15\npairs-checked 3\nwitness none\n"
    )


def test_gen_with_unsatisfiable_probes_fails_with_exit_1(tmp_path, capsys):
    table = tmp_path / "F.txt"
    code, out, err = run(capsys, "unbounded", "gen", "--strategy", "greedy",
                         "--probe", "2", "1", "16", "--out", str(table))
    assert (code, out) == (1, "")
    assert err == "generation failed: no value for pair (0, 1) satisfies the probes\n"
    assert not table.exists()


@pytest.mark.parametrize("argv", [
    ["search", "--m", "2", "--nu", "2", "--gammas", "1"],
    ["verify", "--gamma", "3", "--family", "0,1;2,3"],
])
def test_table_too_short_for_its_width_is_refused_before_allocating(argv, tmp_path, capsys):
    # a dense million-wide table would need about 10^12 slots
    table = tmp_path / "F.txt"
    table.write_text("# scatterlab-fmt 1 unbounded\nlambda_w 1000000\n")
    with wall_clock(5):
        code, _, err = run(capsys, "unbounded", argv[0], str(table), *argv[1:])
    assert code == 2
    assert err == "error: FamilyError: table has 0 pairs, needs 499999500000\n"


# --- validate / extend -------------------------------------------------------------


def test_validate_accepts_corpus_member(kappa_doc, capsys):
    a, _, f, _, _ = kappa_doc
    code, out, _ = run(capsys, "validate", str(a), "--f", str(f))
    assert code == 0
    assert "valid" in out


def test_validate_flags_damage(kappa_doc, tmp_path, capsys):
    a, _, f, _, _ = kappa_doc
    text = a.read_text()
    # blank every meet row: the meet axiom must complain
    lines = []
    for line in text.splitlines():
        if " : " in line:
            line = line.split(" : ")[0] + " :"
        lines.append(line)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "validate", str(bad), "--f", str(f))
    assert code == 1
    assert "violation" in out


def test_validate_missing_file_is_a_clean_error(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "error: FileNotFoundError" in err


def test_validate_reports_a_split_past_eta_as_unmaterialized(tmp_path, capsys):
    # the pair climbs from w to a level outside the tree [0, w^2)
    doc = tmp_path / "climb.txt"
    doc.write_text(
        "# scatterlab-fmt 1 condition\ndialect kappa\neta w^2\n"
        "params kappa_w=3 lambda_w=6 e_budget=16 size_cap=32\n"
        "points 2\n0 w 0\n1 w^2+1 0\norder 1\n0 1\nmeets 1\n0 1 : 0\n"
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == (
        "error: UnmaterializedLevelError: split(w, w^2 + 1): w^2 + 1 is outside [0, w^2)\n"
    )


def test_validate_damaged_document_is_a_clean_error(kappa_doc, tmp_path, capsys):
    a, _, f, _, _ = kappa_doc
    bad = tmp_path / "bad.txt"
    for text in damaged_documents(a.read_text(), "order"):
        bad.write_text(text)
        code, _, err = run(capsys, "validate", str(bad), "--f", str(f))
        assert code == 2
        assert err.startswith("error: ConditionError")


def test_validate_damaged_table_is_a_clean_error(kappa_doc, tmp_path, capsys):
    a, _, f, _, _ = kappa_doc
    bad = tmp_path / "bad.txt"
    for text in damaged_tables(f.read_text()):
        bad.write_text(text)
        code, _, err = run(capsys, "validate", str(a), "--f", str(bad))
        assert code == 2
        assert err.startswith("error: FamilyError")


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "{a}", "--target", "TOP:x", "--alpha", "w*4"],
        ["unbounded", "verify", "{f}", "--gamma", "99", "--family", "0,1;2,3"],
        ["unbounded", "verify", "{f}", "--gamma", "-1", "--family", "0,1;2,3"],
        ["unbounded", "verify", "{f}", "--gamma", "3", "--family", "0,x;2,3"],
        ["unbounded", "search", "{f}", "--m", "2", "--nu", "2", "--gammas", "1,99"],
        ["unbounded", "search", "{f}", "--m", "2", "--nu", "2", "--gammas", "1,x"],
        ["unbounded", "gen", "--probe", "2", "2", "99", "--out", "{out}"],
    ],
    ids=["target-column", "gamma", "gamma-negative", "family", "gammas", "gammas-token", "probe"],
)
def test_bad_argument_is_a_clean_error(kappa_doc, tmp_path, capsys, argv):
    a, _, f, _, _ = kappa_doc
    paths = {"a": a, "f": f, "out": tmp_path / "F.txt"}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ")


def test_extend_emits_valid_document(kappa_doc, tmp_path, capsys):
    a, _, f, _, _ = kappa_doc
    out_path = tmp_path / "ext.txt"
    code, _, err = run(capsys, "extend", str(a), "--target", "TOP:6",
                       "--alpha", "w*4", "--out", str(out_path))
    assert code == 0
    assert "new-point" in err
    cond, params = condition_from_text(out_path.read_text())
    code, out, _ = run(capsys, "validate", str(out_path), "--f", str(f))
    assert code == 0 and "valid" in out


def test_extend_refuses_bad_target(kappa_doc, capsys):
    a, _, _, _, _ = kappa_doc
    code, _, err = run(capsys, "extend", str(a), "--target", "w*9:4",
                       "--alpha", "w*3")
    assert code == 1
    assert "extension failed" in err


def test_extend_refuses_a_target_without_a_level(kappa_doc, capsys):
    a, _, _, _, _ = kappa_doc
    code, out, err = run(capsys, "extend", str(a), "--target", "7", "--alpha", "w*4")
    assert (code, out) == (2, "")
    assert err == "error: ConditionError: point '7' is not LEVEL:XI\n"


def test_validate_refuses_a_zero_size_cap(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden"
    text = (golden / "condition-kappa.txt").read_text()
    assert text.count(" size_cap=32") == 1
    doc = tmp_path / "c.txt"
    doc.write_text(text.replace(" size_cap=32", " size_cap=0"))
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == "error: ConditionError: params: size_cap must be positive\n"


def test_extend_refuses_negative_floor(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden"
    out_path = tmp_path / "F.txt"
    code, _, err = run(capsys, "extend", str(golden / "condition-kappa.txt"),
                       "--target", "TOP:0", "--alpha", "w", "--xi-floor", "-5",
                       "--out", str(out_path))
    assert code == 1
    assert "extension failed: column floor -5 is negative" in err
    assert not out_path.exists()

# --- amalgamate --------------------------------------------------------------------


def test_amalgamate_omega_route(tmp_path, capsys):
    tree = omega_tree()
    p, q, root, F = omega_instance(tree, random.Random(5))
    a, b, f = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "F.txt"
    a.write_text(condition_to_text(p, tree.params))
    b.write_text(condition_to_text(q, tree.params))
    save(F, f)
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "amalgamate", str(a), str(b), "--f", str(f),
                     "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "validate", str(out), "--f", str(f))
    assert code == 0 and "valid" in text


def test_amalgamate_kappa_route(kappa_doc, tmp_path, capsys):
    a, b, f, zn, zm = kappa_doc
    out = tmp_path / "r.txt"
    code, _, _ = run(capsys, "amalgamate", str(a), str(b), "--f", str(f),
                     "--zeta-first", str(zn), "--zeta-second", str(zm),
                     "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "validate", str(out), "--f", str(f))
    assert code == 0 and "valid" in text


def test_amalgamate_kappa_needs_zetas(kappa_doc, capsys):
    a, b, f, _, _ = kappa_doc
    code, _, err = run(capsys, "amalgamate", str(a), str(b), "--f", str(f))
    assert code == 1
    assert "zeta" in err


def test_amalgamate_needs_f(kappa_doc, tmp_path, capsys):
    a, b, _, zn, zm = kappa_doc
    code, _, err = run(capsys, "amalgamate", str(a), str(b),
                       "--zeta-first", str(zn), "--zeta-second", str(zm))
    assert code == 1
    assert err == "the kappa route needs --f\n"
    tree = omega_tree()
    p, q, _, _ = omega_instance(tree, random.Random(5))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(condition_to_text(p, tree.params))
    b.write_text(condition_to_text(q, tree.params))
    code, _, err = run(capsys, "amalgamate", str(a), str(b))
    assert code == 1
    assert err == "the omega route needs --f\n"


def test_amalgamate_refuses_documents_with_different_params(kappa_doc, tmp_path, capsys):
    a, b, f, zn, zm = kappa_doc
    q, params = condition_from_text(b.read_text())
    wider = tmp_path / "wider.txt"
    wider.write_text(condition_to_text(q, replace(params, lambda_w=params.lambda_w + 1)))
    code, out, err = run(capsys, "amalgamate", str(a), str(wider), "--f", str(f),
                         "--zeta-first", str(zn), "--zeta-second", str(zm))
    assert (code, out, err) == (1, "", "conditions carry different parameters\n")


def test_amalgamate_refuses_documents_with_different_dialects(kappa_doc, tmp_path, capsys):
    a, _, f, zn, zm = kappa_doc
    _, params = condition_from_text(a.read_text())
    p, _, _, _ = omega_instance(omega_tree(), random.Random(5))
    omega = tmp_path / "omega.txt"
    omega.write_text(condition_to_text(p, params))
    code, out, err = run(capsys, "amalgamate", str(a), str(omega), "--f", str(f),
                         "--zeta-first", str(zn), "--zeta-second", str(zm))
    assert (code, out, err) == (1, "", "conditions carry different dialects\n")


# --- simulate ----------------------------------------------------------------------


SCHEDULE = """# scatterlab-fmt 1 schedule
seed 0
steps 3
realize TOP 0
below TOP 0 w*2 0
below TOP 0 w 0
"""


def test_simulate_writes_poset_and_checks(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text(SCHEDULE)
    out = tmp_path / "sim"
    code, _, _ = run(capsys, "simulate", "--schedule", str(sched),
                     "--budget-n", "1", "--out", str(out))
    assert code == 0
    report = (out / "reports" / "checks.txt").read_text()
    assert "partition ok" in report
    assert "profile (1, 1 | 1)" in report
    T = poset_from_text((out / "runs" / "poset.txt").read_text())
    assert len(T.points) == 3


def test_simulate_fails_starved_budget(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text(SCHEDULE)
    code, out, _ = run(capsys, "simulate", "--schedule", str(sched),
                       "--budget-n", "2")
    assert code == 1
    assert "FAILED" in out


def test_simulate_damaged_schedule_is_a_clean_error(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    for text in damaged_schedules(SCHEDULE):
        sched.write_text(text)
        code, _, err = run(capsys, "simulate", "--schedule", str(sched))
        assert code == 2
        assert err.startswith("error: GenericError")


def test_simulate_step_past_the_budget_fails_the_run(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text(
        "# scatterlab-fmt 1 schedule\nseed 0\nsteps 3\nrealize TOP 2\n"
        "below TOP 2 w^4+2 0\nbelow TOP 2 w^7+1 2\n"
    )
    code, out, err = run(capsys, "simulate", "--schedule", str(sched), "--eta", "w^w",
                         "--kappa-w", "7", "--lambda-w", "12", "--e-budget", "8")
    assert code == 1
    assert out == ""
    assert err.startswith("simulation failed: step 2 ")
    assert err.endswith(
        "split(w^7 + 1, w^8): w^8 lies past the materialized children of [0, w^w)\n"
    )


TOWER = "w^" * 1000 + "1"


@pytest.mark.parametrize(
    "argv",
    [["orbit", "w", "--eta", TOWER], ["simulate", "--schedule", "{sched}"]],
    ids=["eta", "schedule-level"],
)
def test_deep_exponent_nesting_is_a_clean_error(tmp_path, capsys, argv):
    sched = tmp_path / "sched.txt"
    sched.write_text(
        f"# scatterlab-fmt 1 schedule\nseed 0\nsteps 1\nrealize {TOWER} 0\n"
    )
    code, _, err = run(capsys, *(arg.format(sched=sched) for arg in argv))
    assert code == 2
    assert err == "error: OrdinalParseError: exponents nest deeper than 100 levels\n"


# --- analyze -----------------------------------------------------------------------


def test_analyze_ordinal_report(capsys):
    code, out, _ = run(capsys, "analyze", "--ordinal", "w^2*2+3")
    assert code == 0
    assert "height 3" in out
    assert "ht-minus 2" in out


def test_analyze_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2
    assert "exactly one" in err


def test_analyze_poset_degenerates_to_discrete(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text(SCHEDULE)
    out = tmp_path / "sim"
    run(capsys, "simulate", "--schedule", str(sched), "--budget-n", "1",
        "--out", str(out))
    code, text, _ = run(capsys, "analyze", "--poset",
                        str(out / "runs" / "poset.txt"))
    assert code == 0
    assert "levels 1" in text
    assert "height 1" in text


def test_analyze_damaged_poset_is_a_clean_error(tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text(SCHEDULE)
    out = tmp_path / "sim"
    run(capsys, "simulate", "--schedule", str(sched), "--budget-n", "1",
        "--out", str(out))
    bad = tmp_path / "bad.txt"
    for text in damaged_documents((out / "runs" / "poset.txt").read_text(), "order"):
        bad.write_text(text)
        code, _, err = run(capsys, "analyze", "--poset", str(bad))
        assert code == 2
        assert err.startswith("error: GenericError")


def test_analyze_ordinal_out_of_range(capsys):
    code, _, err = run(capsys, "analyze", "--ordinal", "w^w")
    assert code == 1
    assert "analysis failed" in err


# --- pipeline ----------------------------------------------------------------------


GOLDEN_SUMMARY = """# scatterlab-fmt 1 report
pipeline eta=w^2 kappa_w=3 lambda_w=6 e_budget=16 count=10 seed=0 f=greedy
instances 10
push 10
refine 10
eta 10
pull 10
valid 10
invalid 0
errors none
"""


def test_pipeline_golden_summary(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out, _ = run(capsys, "pipeline", "--corpus", str(corpus),
                       "--count", "10", "--seed", "0")
    assert code == 0
    assert out == GOLDEN_SUMMARY
    assert (corpus / "reports" / "summary.txt").read_text() == GOLDEN_SUMMARY


def test_pipeline_artifacts_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run(capsys, "pipeline", "--corpus", str(corpus), "--count", "3")
    for name in ("pair_000_a", "pair_000_b"):
        text = (corpus / "conditions" / f"{name}.txt").read_text()
        cond, params = condition_from_text(text)
        assert condition_to_text(cond, params) == text
    for path in sorted((corpus / "runs").iterdir()):
        cond, params = condition_from_text(path.read_text())
        assert condition_to_text(cond, params) == path.read_text()
    tree = IntervalTree(params)
    F = load_table(corpus / "F" / "F.txt", tree.root_eps())
    assert F.lambda_w == params.lambda_w


def test_pipeline_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "pipeline", "--corpus", str(a), "--count", "5", "--seed", "3")
    run(capsys, "pipeline", "--corpus", str(b), "--count", "5", "--seed", "3")
    files_a = sorted(p.relative_to(a) for p in a.rglob("*.txt"))
    files_b = sorted(p.relative_to(b) for p in b.rglob("*.txt"))
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


GAP_SUMMARY = """# scatterlab-fmt 1 report
pipeline eta=w^2 kappa_w=3 lambda_w=6 e_budget=16 count=5 seed=0 f=const:0
instances 5
push 5
refine 5
eta 5
pull 0
valid 0
invalid 0
error FGapError 5
"""


def test_pipeline_gap_breaking_table_fails(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out, _ = run(capsys, "pipeline", "--corpus", str(corpus),
                       "--count", "5", "--f-const", "0")
    assert code == 1
    assert "error FGapError 5" in out
    assert not list((corpus / "runs").iterdir())
    # every pair passes push, refine and eta and fails the gap at pull
    assert out == GAP_SUMMARY


def test_pipeline_empty_run_passes(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out, _ = run(capsys, "pipeline", "--corpus", str(corpus),
                       "--count", "0")
    assert code == 0
    assert "instances 0" in out
    assert "errors none" in out


@pytest.mark.parametrize(
    "argv, needed",
    [(["--count", "12", "--e-budget", "4"], 7), (["--kappa-w", "5", "--e-budget", "8"], 13)],
    ids=["count-12", "kappa-w-5"],
)
def test_pipeline_short_marker_budget_is_a_clean_error(tmp_path, capsys, argv, needed):
    code, _, err = run(capsys, "pipeline", "--corpus", str(tmp_path / "corpus"), *argv)
    assert code == 2
    assert err.startswith("error: BudgetExceededError: ")
    assert f"use e_budget {needed} or more" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["unbounded", "gen", "--out", "{tmp}/F.txt"],
        ["simulate", "--schedule", "{golden}/schedule.txt", "--out", "{tmp}/T.txt"],
        ["pipeline", "--corpus", "{tmp}/corpus"],
    ],
    ids=["gen", "simulate", "pipeline"],
)
def test_huge_lambda_w_is_a_clean_error(tmp_path, capsys, argv):
    # a greedy table over 10^6 columns would need about 5 * 10^11 entries
    golden = Path(__file__).resolve().parent / "golden"
    argv = [arg.format(tmp=tmp_path, golden=golden) for arg in argv]
    code, _, err = run(capsys, *argv, "--lambda-w", "1000000")
    assert code == 2
    assert err.startswith("error: TreeError: lambda_w 1000000 exceeds 1000")
    assert "Traceback" not in err


# --- env overrides -----------------------------------------------------------------


def test_env_defaults_flag_still_wins(capsys, monkeypatch):
    monkeypatch.setenv("SCATTERLAB_E_BUDGET", "4")
    code, out, _ = run(capsys, "orbit", "w*3")
    assert code == 0 and "size 3" in out
    code, out, _ = run(capsys, "orbit", "w*3", "--e-budget", "8")
    assert code == 0 and "members 0 w w*2" in out


def test_unknown_level_token_is_reported(capsys, kappa_doc):
    a, *_ = kappa_doc
    code, _, err = run(capsys, "extend", str(a), "--target", "Q:0",
                       "--alpha", "w")
    assert code == 2
    assert "error" in err


# --- columns outside the pair coloring ---------------------------------------------


def top_pair_document(dialect, tops):
    """A condition at lambda_w=6 whose top points sit at the columns
    `tops`, each above `w 0`, with every meet {w 0}."""
    pts = ["w 0"] + [f"TOP {xi}" for xi in tops]
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    return "\n".join(
        ["# scatterlab-fmt 1 condition", f"dialect {dialect}", "eta w^2",
         "params kappa_w=3 lambda_w=6 e_budget=16 size_cap=32", f"points {len(pts)}"]
        + [f"{i} {x}" for i, x in enumerate(pts)]
        + [f"order {len(tops)}"] + [f"0 {i}" for i in range(1, len(pts))]
        + [f"meets {len(pairs)}"] + [f"{i} {j} : 0" for i, j in pairs]
    ) + "\n"


@pytest.mark.parametrize("dialect", ["kappa", "omega"])
def test_validate_column_outside_table_is_a_clean_error(tmp_path, capsys, dialect):
    f, cond = tmp_path / "F.txt", tmp_path / "c.txt"
    assert run(capsys, "unbounded", "gen", "--out", str(f))[0] == 0
    cond.write_text(top_pair_document(dialect, [0, 9]))
    code, _, err = run(capsys, "validate", str(cond), "--f", str(f))
    assert code == 2
    assert err == "error: FamilyError: pair 0,9 is outside the table's 6 columns\n"


def test_amalgamate_column_outside_table_is_a_clean_error(tmp_path, capsys):
    f, a, b = tmp_path / "F.txt", tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "unbounded", "gen", "--out", str(f))[0] == 0
    a.write_text(top_pair_document("omega", [9]))
    b.write_text(top_pair_document("omega", [0]))
    code, _, err = run(capsys, "amalgamate", str(a), str(b), "--f", str(f))
    assert code == 2
    assert err == "error: FamilyError: pair 9,0 is outside the table's 6 columns\n"


# --- negative counts ---------------------------------------------------------------


def test_tree_negative_depth_is_a_clean_error(capsys):
    code, out, err = run(capsys, "tree", "--depth", "-1")
    assert (code, out) == (2, "")
    assert err == "error: TreeError: depth -1 is negative\n"


def test_pipeline_negative_count_is_a_clean_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code, out, err = run(capsys, "pipeline", "--corpus", str(corpus), "--count", "-1")
    assert (code, out) == (2, "")
    assert err == "error: ConditionError: count -1 is negative\n"
    assert not corpus.exists()


# --- one parser per environment ----------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
ENV_NAMES = [cli.ENV_PREFIX + flag.upper().replace("-", "_")
             for flag, _ in cli._SHARED_DEFAULTS]
INT_DEFAULTS = [(name, flag, default)
                for name, (flag, default) in zip(ENV_NAMES, cli._SHARED_DEFAULTS)
                if isinstance(default, int)]
SUBCOMMANDS = [["tree"], ["orbit"], ["unbounded"], ["unbounded", "gen"],
               ["unbounded", "verify"], ["unbounded", "search"], ["validate"],
               ["extend"], ["amalgamate"], ["simulate"], ["analyze"], ["pipeline"]]

# a failing probe twice, then none: no appended probe outlives its call
PROBE_STEPS = [
    ({}, ["unbounded", "gen", "--strategy", "greedy", "--probe", "1", "1", "0",
          "--out", "{work}/F.txt"]),
    ({}, ["unbounded", "gen", "--strategy", "greedy", "--probe", "1", "1", "0",
          "--probe", "2", "2", "1", "--out", "{work}/F.txt"]),
    ({}, ["unbounded", "gen", "--strategy", "greedy", "--out", "{work}/F.txt"]),
]

# (environment changes, argv): a change holds until a later step makes
# another, and None unsets the variable; {work} is emptied after each step
ORACLE_CORPUS = [
    ({}, ["tree"]),
    ({}, ["tree", "--depth", "0"]),
    ({}, ["tree", "--depth", "-1"]),
    ({}, ["tree", "--depth", "1", "--out", "{work}/tree.txt"]),
    ({}, ["orbit", "w*4+2", "--beta", "w*5"]),
    ({}, ["unbounded", "gen", "--strategy", "greedy", "--out", "{work}/F.txt"]),
    ({}, ["unbounded", "gen", "--seed", "5", "--out", "{work}/F.txt"]),
    *PROBE_STEPS,
    ({}, ["unbounded", "verify", "{f}", "--gamma", "3", "--family", "0,1;2,3"]),
    ({}, ["unbounded", "verify", "{f}", "--gamma", "99", "--family", "0,1;2,3"]),
    ({}, ["unbounded", "search", "{f}", "--m", "2", "--nu", "2", "--gammas", "1,2,3",
          "--out", "{work}/search.txt"]),
    ({}, ["validate", "{a}", "--f", "{f}"]),
    ({}, ["validate", "{golden}/condition-omega.txt", "--out", "{work}/v.txt"]),
    ({}, ["validate", "{work}/absent.txt"]),
    ({}, ["extend", "{a}", "--target", "TOP:6", "--alpha", "w*4", "--out", "{work}/e.txt"]),
    ({}, ["extend", "{a}", "--target", "w*9:4", "--alpha", "w*3"]),
    ({}, ["amalgamate", "{a}", "{b}", "--f", "{f}", "--zeta-first", "{zn}",
          "--zeta-second", "{zm}", "--out", "{work}/r.txt"]),
    ({}, ["amalgamate", "{a}", "{b}", "--f", "{f}"]),
    ({}, ["simulate", "--schedule", "{golden}/schedule.txt", "--out", "{work}/sim"]),
    ({}, ["simulate", "--schedule", "{golden}/schedule.txt", "--budget-n", "1",
          "--dialect", "omega"]),
    ({}, ["analyze", "--ordinal", "w^2*2+3"]),
    ({}, ["analyze", "--poset", "{golden}/poset.txt", "--out", "{work}/a.txt"]),
    ({}, ["analyze", "--space", "{golden}/space.txt", "--cap", "4"]),
    ({}, ["analyze"]),
    ({}, ["pipeline", "--corpus", "{work}/corpus", "--count", "2", "--seed", "3"]),
    ({}, ["pipeline", "--corpus", "{work}/corpus", "--count", "0"]),
    ({}, ["pipeline", "--corpus", "{work}/corpus", "--count", "-1"]),
    ({}, ["pipeline", "--corpus", "{work}/corpus", "--count", "2", "--f-const", "0"]),
    ({}, ["--help"]),
    *(({}, argv + ["--help"]) for argv in SUBCOMMANDS),
    ({}, []),
    ({}, ["frobnicate"]),
    ({}, ["unbounded"]),
    ({}, ["tree", "--bogus"]),
    ({}, ["tree", "--depth", "x"]),
    ({}, ["orbit", "w", "--dialect", "zeta"]),
    ({}, ["orbit", "w^^2"]),
    ({}, ["unbounded", "search", "{f}", "--m", "x", "--nu", "2"]),
    ({}, ["unbounded", "gen", "--probe", "1", "2", "--out", "{work}/F.txt"]),
    ({}, ["extend", "{a}", "--target", "TOP:0"]),
    # each integer variable set to x alone, then overridden by its flag
    *(
        step
        for name, flag, default in INT_DEFAULTS
        for step in (
            ({**dict.fromkeys(ENV_NAMES), name: "x"}, ["tree", "--depth", "1"]),
            ({}, ["tree", "--depth", "1", f"--{flag}", str(default)]),
        )
    ),
    ({name: None for name in ENV_NAMES}, ["tree", "--depth", "1"]),
    ({"SCATTERLAB_ETA": "w^^"}, ["orbit", "w"]),
    ({"SCATTERLAB_ETA": "w^3"}, ["orbit", "w^2*2"]),
    ({"SCATTERLAB_ETA": None, "SCATTERLAB_DIALECT": "zeta"}, ["orbit", "w"]),
    ({"SCATTERLAB_DIALECT": "omega"},
     ["simulate", "--schedule", "{golden}/schedule.txt", "--budget-n", "1"]),
    ({"SCATTERLAB_DIALECT": None, "SCATTERLAB_SEED": "6"},
     ["unbounded", "gen", "--out", "{work}/F.txt"]),
    ({"SCATTERLAB_SEED": None}, ["unbounded", "gen", "--out", "{work}/F.txt"]),
    # set, change and unset the marker budget between calls
    ({"SCATTERLAB_E_BUDGET": "4"}, ["orbit", "w*3"]),
    ({}, ["orbit", "w*5"]),
    ({"SCATTERLAB_E_BUDGET": "8"}, ["orbit", "w*5"]),
    ({}, ["orbit", "w*5", "--e-budget", "4"]),
    ({"SCATTERLAB_E_BUDGET": None}, ["orbit", "w*5"]),
    ({"SCATTERLAB_E_BUDGET": "4"}, ["orbit", "w*5"]),
    ({"SCATTERLAB_E_BUDGET": "x"}, ["orbit", "w*5"]),
    ({"SCATTERLAB_E_BUDGET": None}, ["pipeline", "--corpus", "{work}/corpus",
                                     "--count", "1"]),
]


def replay(corpus, paths, monkeypatch, capsys):
    """Exit code, stdout, stderr and the files written, for each step."""
    for name in ENV_NAMES:
        monkeypatch.delenv(name, raising=False)
    work = paths["work"]
    results = []
    for env, argv in corpus:
        for name, value in env.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        try:
            code = main([arg.format(**paths) for arg in argv])
        except SystemExit as err:
            code = err.code
        out, err = capsys.readouterr()
        written = {str(f.relative_to(work)): f.read_bytes()
                   for f in sorted(work.rglob("*")) if f.is_file()}
        shutil.rmtree(work)
        work.mkdir()
        results.append((argv, code, out, err, written))
    return results


def test_cached_parser_matches_a_fresh_parser(kappa_doc, tmp_path, monkeypatch, capsys):
    """main through its cached parser and main through build_parser() on
    every call give the same exit code, stdout, stderr and files for each
    step of the corpus."""
    a, b, f, zn, zm = kappa_doc
    paths = {"a": a, "b": b, "f": f, "zn": zn, "zm": zm, "golden": GOLDEN,
             "work": tmp_path / "work"}
    paths["work"].mkdir()
    monkeypatch.setenv("COLUMNS", "100")
    cli._cached_parser.cache_clear()
    cached = replay(ORACLE_CORPUS, paths, monkeypatch, capsys)
    # the fresh side: main parses through build_parser() on every call
    monkeypatch.setattr(cli, "_cached_parser", lambda defaults: cli.build_parser())
    fresh = replay(ORACLE_CORPUS, paths, monkeypatch, capsys)
    for got, want in zip(cached, fresh):
        assert got == want
    codes = {code for _, code, _, _, _ in cached}
    assert codes == {0, 1, 2}
    # the probe-less call after the failing probes generated its table
    at = ORACLE_CORPUS.index(PROBE_STEPS[0])
    assert [step[1] for step in cached[at : at + 3]] == [2, 2, 0]


def test_one_parser_build_per_environment(monkeypatch, capsys):
    builds = []
    real = cli._param_parent

    def counted(defaults):
        builds.append(defaults)
        return real(defaults)

    monkeypatch.setattr(cli, "_param_parent", counted)
    monkeypatch.delenv("SCATTERLAB_E_BUDGET", raising=False)
    cli._cached_parser.cache_clear()
    for _ in range(50):
        assert run(capsys, "orbit", "w*3")[0] == 0
    assert len(builds) == 1
    cli._cached_parser.cache_clear()
    builds.clear()
    for i in range(50):
        if i % 2:
            monkeypatch.setenv("SCATTERLAB_E_BUDGET", "8")
        else:
            monkeypatch.delenv("SCATTERLAB_E_BUDGET", raising=False)
        assert run(capsys, "orbit", "w*3")[0] == 0
    assert len(builds) == 2
    cli._cached_parser.cache_clear()


# `unbounded` alone is the group of three commands and takes no shared flag
@pytest.mark.parametrize("argv", [a for a in SUBCOMMANDS if a != ["unbounded"]], ids=" ".join)
@pytest.mark.parametrize("value", ["zeta", ""])
def test_bad_dialect_environment_default_is_refused_like_the_flag(
    monkeypatch, capsys, argv, value
):
    # argparse checks choices only for a flag's value; the environment
    # default goes through the same check, at parse time, with exit 2
    def refused(*args):
        with pytest.raises(SystemExit) as exit:
            main(list(args))
        return (exit.value.code,) + tuple(capsys.readouterr())

    monkeypatch.delenv("SCATTERLAB_DIALECT", raising=False)
    flag = refused(*argv, "--dialect", value)
    monkeypatch.setenv("SCATTERLAB_DIALECT", value)
    assert refused(*argv) == flag
    assert flag[0] == 2 and flag[1] == ""
    assert f"argument --dialect: invalid choice: {value!r}" in flag[2]
