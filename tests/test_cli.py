"""End-to-end exercises of the command line through main()."""

import random
from pathlib import Path

import pytest

from scatterlab.cli import main
from scatterlab.conditions import condition_from_text, condition_to_text
from scatterlab.generic import poset_from_text
from scatterlab.intervals import IntervalTree
from scatterlab.unbounded import load as load_table

from .corpus import (
    damaged_documents,
    damaged_schedules,
    damaged_tables,
    kappa_instance,
    kappa_tree,
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


# --- validate / extend -------------------------------------------------------------


@pytest.fixture(scope="module")
def kappa_doc(tmp_path_factory):
    tree = kappa_tree()
    r_nu, r_mu, zn, zm, F = kappa_instance(tree, random.Random(7))
    base = tmp_path_factory.mktemp("docs")
    a, b, f = base / "a.txt", base / "b.txt", base / "F.txt"
    a.write_text(condition_to_text(r_nu, tree.params))
    b.write_text(condition_to_text(r_mu, tree.params))
    from scatterlab.unbounded import save

    save(F, f)
    return a, b, f, zn, zm


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
    from scatterlab.unbounded import save

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
