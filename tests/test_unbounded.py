import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scatterlab import unbounded
from scatterlab.intervals import IntervalTree, Params
from scatterlab.ordinals import ZERO, parse
from scatterlab.unbounded import (
    BlowupGuardError,
    FamilyError,
    GenerationError,
    UnboundedFn,
    f_generate,
    family_count,
    load,
    save,
    star_search,
    star_verify,
)

from .conftest import wall_clock
from .corpus import damaged_tables
from .oracles import (
    naive_f_generate_greedy,
    naive_star_search,
    naive_star_search_by_bottleneck,
    naive_star_search_by_verify,
)


@pytest.fixture
def eps():
    tree = IntervalTree(Params(eta=parse("w^2"), e_budget=8))
    return tree.root_eps()


def constant(lambda_w, eps, idx):
    pairs = itertools.combinations(range(lambda_w), 2)
    return UnboundedFn(lambda_w, eps, {p: idx for p in pairs})


def test_table_validation(eps):
    with pytest.raises(FamilyError):
        UnboundedFn(3, eps, {(0, 1): 0, (0, 2): 0})  # missing (1,2)
    with pytest.raises(FamilyError):
        UnboundedFn(3, eps, {(0, 1): 99, (0, 2): 0, (1, 2): 0})
    with pytest.raises(FamilyError):
        UnboundedFn(3, eps, {(0, 1): 0, (1, 0): 1, (0, 2): 0, (1, 2): 0})
    with pytest.raises(FamilyError):
        UnboundedFn(3, eps, {(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 2): 0})


def test_a_table_never_equals_a_foreign_value(eps):
    assert (constant(3, eps, 0) == 3) is False


def test_symmetry(eps):
    F = f_generate(Params(eta=parse("w^2"), lambda_w=5), eps, "random", seed=3)
    for i, j in F.pairs():
        assert F.value(i, j) == F.value(j, i)
        assert F.index(i, j) == F.index(j, i)
    with pytest.raises(FamilyError):
        F.value(2, 2)


def test_star_verify_constant_large(eps):
    F = constant(4, eps, len(eps) - 1)
    out = star_verify(F, eps[2], [{0, 1}, {2}, {3}])
    assert out.ok
    assert out.witness == (frozenset({0, 1}), frozenset({2}))
    a, b = out.witness
    assert all(F.value(i, j) > out.gamma for i in a for j in b)


def test_star_verify_constant_zero(eps):
    assert eps[0] == ZERO
    F = constant(4, eps, 0)
    out = star_verify(F, ZERO, [{0}, {1}, {2}])
    assert not out.ok
    assert out.witness is None
    assert out.pairs_checked == 3


def test_star_verify_block_example(eps):
    F = UnboundedFn(
        4,
        eps,
        {(0, 1): 1, (2, 3): 1, (0, 2): 2, (0, 3): 2, (1, 2): 2, (1, 3): 2},
    )
    out = star_verify(F, eps[1], [{0, 1}, {2, 3}])
    assert out.ok
    assert out.witness == (frozenset({0, 1}), frozenset({2, 3}))


def test_star_verify_rejects_bad_families(eps):
    F = constant(4, eps, 1)
    with pytest.raises(FamilyError):
        star_verify(F, ZERO, [{0, 1}, {1, 2}])
    with pytest.raises(FamilyError):
        star_verify(F, ZERO, [{0}, set()])
    with pytest.raises(FamilyError):
        star_verify(F, ZERO, [{0}, {9}])
    with pytest.raises(FamilyError):
        star_verify(F, ZERO, [{0, 1, 2}, {3}], max_size=3)


def test_family_count():
    assert family_count(4, 2, 1) == 6
    assert family_count(4, 2, 2) == 3
    assert family_count(6, 3, 2) == 15
    # shapes that do not fit count no families, however far they overrun
    assert family_count(3, 2, 2) == family_count(1, 2, 2) == family_count(2, 3, 1) == 0


def test_star_search_certificate(eps):
    F = constant(3, eps, 2)
    result = star_search(F, 2, 1, [eps[1]])
    assert result.ok
    assert result.instances == 3
    assert result.counterexample is None


def test_star_search_counterexample(eps):
    F = UnboundedFn(2, eps, {(0, 1): 1})
    result = star_search(F, 2, 1, [eps[1]])
    assert not result.ok
    assert result.counterexample == ((frozenset({0}), frozenset({1})), eps[1])


@pytest.mark.parametrize("m, nu", [(4, 3), (3, 4)])
def test_star_search_sweep_costs_its_families_not_their_tuples(eps, m, nu):
    # a certificate visits every family; lambda 12 holds 15,400 families of
    # four disjoint 3-subsets among C(220, 4), about 96M 4-tuples of
    # 3-subsets, so a sweep that filters those tuples cannot finish in time
    F = constant(12, eps, len(eps) - 1)
    with wall_clock(5):
        result = star_search(F, m, nu, [eps[1], eps[2]])
    assert result == unbounded.SearchResult(True, family_count(12, m, nu) * 2, None)


def test_star_search_guards(eps):
    F = constant(6, eps, 2)
    with pytest.raises(BlowupGuardError):
        star_search(F, 3, 2, [eps[1]], family_cap=10)
    assert star_search(F, 3, 2, [eps[1]], family_cap=10, force=True).ok
    with pytest.raises(FamilyError):
        star_search(F, 4, 2, [eps[1]])
    with pytest.raises(FamilyError):
        star_search(F, 1, 1, [eps[1]])


def test_star_search_matches_naive_oracle(eps):
    params = Params(eta=parse("w^2"), lambda_w=5)
    for seed in range(25):
        F = f_generate(params, eps[:4], "random", seed=seed)
        for m, nu in [(2, 1), (2, 2), (3, 1)]:
            gammas = [eps[0], eps[1], eps[2]]
            got = star_search(F, m, nu, gammas)
            instances, failures = naive_star_search(F, m, nu, gammas)
            assert got.ok == (not failures)
            if failures:
                assert got.counterexample == failures[0]
            else:
                assert got.instances == instances
            # pins instances on the failing path too
            assert got == naive_star_search_by_verify(F, m, nu, gammas)


MARKERS = IntervalTree(Params(eta=parse("w^2"), e_budget=8)).root_eps()


def markers(min_size, max_size):
    """Marker lists in any order, duplicates allowed."""
    return st.lists(st.sampled_from(MARKERS), min_size=min_size, max_size=max_size)


def outcome(fn, *args, **kwargs):
    """The result, or the type, text and report of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (FamilyError, BlowupGuardError, GenerationError) as err:
        return type(err).__name__, str(err), getattr(err, "report", None)


@settings(max_examples=400)
@given(
    data=st.data(),
    lambda_w=st.integers(3, 7),
    values=markers(1, 4),
    # common shapes twice, then ones that fit only wide tables or never
    shape=st.sampled_from(
        [(2, 1), (2, 2), (3, 1), (2, 1), (2, 2), (3, 2), (2, 3), (4, 1), (1, 1), (2, 0)]
    ),
    gammas=st.lists(st.sampled_from(MARKERS[:5]), min_size=1, max_size=4),
    cap=st.sampled_from([10_000_000, 10_000_000, 10_000_000, 2, 20]),
    force=st.booleans(),
)
def test_star_search_matches_verify_sweep(data, lambda_w, values, shape, gammas, cap, force):
    # unsorted, duplicate and one-marker eps, unsorted gammas, the family
    # cap with and without force
    pairs = list(itertools.combinations(range(lambda_w), 2))
    cells = st.lists(st.integers(0, len(values) - 1), min_size=len(pairs), max_size=len(pairs))
    idx = data.draw(cells)
    F = UnboundedFn(lambda_w, values, dict(zip(pairs, idx)))
    m, nu = shape
    args = (F, m, nu, gammas, cap, force)
    assert outcome(star_search, *args) == outcome(naive_star_search_by_verify, *args)


@settings(max_examples=300)
@given(
    data=st.data(),
    lambda_w=st.integers(4, 10),
    values=markers(1, 4),
    shape=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1), (4, 2), (3, 3)]),
    gammas=markers(0, 4),
)
def test_star_search_matches_both_sweeps_on_sparse_low_tables(
    data, lambda_w, values, shape, gammas
):
    # every entry at the largest marker but 1-4, so the first failing family,
    # if any, lies behind many dropped prefixes, and unsorted, duplicate or
    # no thresholds
    m, nu = shape
    assume(m * nu <= lambda_w)
    pairs = list(itertools.combinations(range(lambda_w), 2))
    top = max(range(len(values)), key=values.__getitem__)
    cells = dict.fromkeys(pairs, top)
    lows = st.tuples(st.sampled_from(pairs), st.integers(0, len(values) - 1))
    cells.update(data.draw(st.lists(lows, min_size=1, max_size=4)))
    F = UnboundedFn(lambda_w, values, cells)
    got = star_search(F, m, nu, gammas)
    assert got == naive_star_search_by_bottleneck(F, m, nu, gammas)
    # the filter sweep walks C(C(lambda_w, nu), m) tuples of subsets
    if math.comb(math.comb(lambda_w, nu), m) <= 20_000:
        assert got == naive_star_search_by_verify(F, m, nu, gammas)


def test_star_search_counts_prefixes_dropped_at_two_depths(eps):
    # pairs (1, 3), (1, 4) and (3, 4) at eps[1], the rest at eps[3], so
    # {1}, {3}, {4} is the first pairwise-low family.  Before it, the first
    # member {0} has no low partner and drops at depth one with its 10
    # completions, and {1} then {2} are not joined and drop at depth two
    # with their 3
    low = {(1, 3), (1, 4), (3, 4)}
    cells = {pair: 1 if pair in low else 3 for pair in itertools.combinations(range(6), 2)}
    F = UnboundedFn(6, eps, cells)
    gammas = [eps[0], eps[2], eps[1]]
    family = (frozenset({1}), frozenset({3}), frozenset({4}))
    got = star_search(F, 3, 1, gammas)
    # 13 families of three thresholds, then eps[0] holds and eps[2] fails
    assert got == unbounded.SearchResult(False, 13 * 3 + 2, (family, eps[2]))
    assert got == naive_star_search_by_bottleneck(F, 3, 1, gammas)


def test_star_search_decides_lambda_14_in_a_moment(eps):
    # one low pair: a certificate for four disjoint pairs, whose 315,315
    # families a sweep would visit, and a late first failure for two
    cells = dict.fromkeys(itertools.combinations(range(14), 2), len(eps) - 1)
    cells[(11, 13)] = 0
    F = UnboundedFn(14, eps, cells)
    gammas = [eps[2], eps[1]]
    with wall_clock(1):
        result = star_search(F, 4, 2, gammas)
    assert result == unbounded.SearchResult(True, family_count(14, 4, 2) * len(gammas), None)
    got = star_search(F, 2, 2, gammas)
    assert not got.ok
    assert got == naive_star_search_by_bottleneck(F, 2, 2, gammas)


@settings(max_examples=200)
@given(
    lambda_w=st.integers(3, 5),
    values=markers(1, 4),
    probes=st.lists(
        st.tuples(st.sampled_from([2, 2, 2, 3, 1]), st.sampled_from([1, 1, 2, 0]), markers(0, 3)),
        max_size=2,
    ),
)
def test_greedy_matches_linear_scan_oracle(lambda_w, values, probes):
    params = Params(eta=parse("w^2"), kappa_w=2, lambda_w=lambda_w)
    got = outcome(f_generate, params, values, "greedy", probes=probes)
    assert got == outcome(naive_f_generate_greedy, params, values, probes)


@pytest.mark.parametrize(
    "lambda_w, shapes", [(8, [(2, 2)]), (6, [(2, 2), (3, 1)])], ids=["lambda-8", "lambda-6"]
)
def test_greedy_sweeps_each_probe_once_when_the_top_table_passes(monkeypatch, lambda_w, shapes):
    # every entry stays at the top, so one sweep per probe settles the table
    calls = []
    real = unbounded.star_search

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(unbounded, "star_search", counting)
    params = Params(eta=parse("w^2"), lambda_w=lambda_w)
    values = IntervalTree(params).root_eps()
    probes = [(m, nu, [values[5]]) for m, nu in shapes]
    F = f_generate(params, values, "greedy", probes=probes)
    assert len(calls) == len(probes)
    assert all(F.index(i, j) == len(values) - 1 for i, j in F.pairs())


def test_f_generate_deterministic(eps):
    params = Params(eta=parse("w^2"), lambda_w=6)
    assert f_generate(params, eps, seed=1) == f_generate(params, eps, seed=1)
    assert f_generate(params, eps, seed=1) != f_generate(params, eps, seed=2)


def test_f_generate_single_pair(eps):
    params = Params(eta=parse("w^2"), kappa_w=2, lambda_w=3)
    F = f_generate(params, eps, seed=0)
    assert len(F.pairs()) == 3


def test_greedy_keeps_top_when_probes_pass(eps):
    params = Params(eta=parse("w^2"), lambda_w=4)
    probes = [(2, 1, [eps[1]]), (2, 2, [eps[0]])]
    F = f_generate(params, eps[:3], "greedy", probes=probes)
    assert all(F.index(i, j) == 2 for i, j in F.pairs())
    for m, nu, gammas in probes:
        assert star_search(F, m, nu, gammas).ok


def test_greedy_failure_is_conclusive(eps):
    # exhaustively confirm that no 2-valued table on 4 points passes, so the
    # greedy refusal is honest
    params = Params(eta=parse("w^2"), lambda_w=4)
    two = eps[:2]
    probe = [(2, 1, [two[1]])]
    with pytest.raises(GenerationError) as err:
        f_generate(params, two, "greedy", probes=probe)
    assert err.value.report
    pairs = list(itertools.combinations(range(4), 2))
    for bits in itertools.product(range(2), repeat=6):
        table = UnboundedFn(4, two, dict(zip(pairs, bits)))
        assert not star_search(table, 2, 1, [two[1]]).ok


def test_greedy_existence_matches_exhaustive(eps):
    # the same exhaustive sweep confirms some table passes the easier probe,
    # and greedy finds one
    params = Params(eta=parse("w^2"), lambda_w=4)
    two = eps[:2]
    probe = [(2, 1, [two[0]])]
    F = f_generate(params, two, "greedy", probes=probe)
    assert star_search(F, 2, 1, [two[0]]).ok
    pairs = list(itertools.combinations(range(4), 2))
    passing = [
        bits
        for bits in itertools.product(range(2), repeat=6)
        if star_search(UnboundedFn(4, two, dict(zip(pairs, bits))), 2, 1, [two[0]]).ok
    ]
    assert passing


def test_save_load_round_trip(tmp_path, eps):
    params = Params(eta=parse("w^2"), lambda_w=5)
    F = f_generate(params, eps, seed=9)
    path = tmp_path / "F.txt"
    save(F, path)
    assert load(path, eps) == F
    text = path.read_text().splitlines()
    assert text[0] == "# scatterlab-fmt 1 unbounded"
    assert text[1] == "lambda_w 5"


def test_load_rejects_bad_header(tmp_path, eps):
    path = tmp_path / "F.txt"
    path.write_text("lambda_w 5\n0 1 0\n")
    with pytest.raises(FamilyError):
        load(path, eps)


def test_load_refuses_damaged_tables(tmp_path, eps):
    params = Params(eta=parse("w^2"), lambda_w=4)
    path = tmp_path / "F.txt"
    save(f_generate(params, eps, seed=2), path)
    for text in damaged_tables(path.read_text()):
        path.write_text(text)
        with pytest.raises(FamilyError):
            load(path, eps)


def test_lookup_outside_the_table_is_a_family_error(eps):
    F = f_generate(Params(eta=parse("w^2"), lambda_w=6), eps, seed=1)
    with pytest.raises(FamilyError, match="pair 0,9 is outside the table's 6 columns"):
        F.value(0, 9)
    with pytest.raises(FamilyError, match="pair -1,0 is outside the table's 6 columns"):
        F.value(-1, 0)


def test_table_and_generation_guards_name_their_cause(eps):
    params = Params(eta=parse("w^2"), lambda_w=4)
    with pytest.raises(FamilyError) as err:
        UnboundedFn(1, eps, {})
    assert str(err.value) == "lambda_w must be at least 2"
    with pytest.raises(FamilyError) as err:
        UnboundedFn(2, [], {})
    assert str(err.value) == "no materialized marker values"
    for strategy in ("random", "greedy"):
        with pytest.raises(GenerationError) as err:
            f_generate(params, [], strategy)
        assert str(err.value) == "no materialized marker values"
        assert err.value.report == []
    # an unknown strategy is a plain ValueError, not one of the package's
    with pytest.raises(ValueError) as err:
        f_generate(params, eps, strategy="bogus")
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown strategy 'bogus'"
