import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    OrdinalParseError,
    cb_level,
    compare,
    from_int,
    fundamental,
    omega_pow,
    omega_quotient,
    parse,
)

from .conftest import deep_ordinals, flat_ordinals, limit_ordinals
from .oracles import (
    cnf_compare,
    naive_fundamental,
    omega_times,
    shift_down,
    strip_rank,
    vector_compare,
    word_sum,
)


def test_constants():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(OMEGA) == "w"
    assert ZERO < ONE < OMEGA
    assert ZERO.classify() == "zero"
    assert ONE.classify() == "successor"
    assert OMEGA.classify() == "limit"


def test_construction_rejects_bad_terms():
    with pytest.raises(OrdinalError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(OrdinalError):
        Ordinal(((ONE, 1), (ONE, 2)))  # repeated exponent
    with pytest.raises(OrdinalError):
        Ordinal(((ONE, 0),))  # zero coefficient
    with pytest.raises(OrdinalError):
        from_int(-3)
    with pytest.raises(OrdinalError, match=r"^exponent must be an Ordinal, got 3$"):
        Ordinal(((3, 1),))


def test_construction_refuses_what_is_not_a_term_list():
    cases = [
        (5, "terms must be iterable, got 5"),
        ([1], "term must be an (exponent, coefficient) pair, got 1"),
        ([(ONE,)], "term must be an (exponent, coefficient) pair, got (Ordinal('1'),)"),
        ([(ONE, 1, 2)], "term must be an (exponent, coefficient) pair, got (Ordinal('1'), 1, 2)"),
        ("w", "term must be an (exponent, coefficient) pair, got 'w'"),
        # the checks that were there before keep their texts and their order:
        # every coefficient is read as an integer before any term is judged
        ([(3, 1), (ONE, 2.5)], "coefficient must be an integer, got 2.5"),
        ([(3, 1)], "exponent must be an Ordinal, got 3"),
        ([(ONE, 0)], "coefficient must be positive, got 0"),
        ([(ONE, 1), (ONE, 1)], "exponents must strictly decrease"),
        ([(OMEGA, 1), (ZERO, 1), (ONE, 1)], "exponents must strictly decrease"),
    ]
    for terms, text in cases:
        with pytest.raises(OrdinalError) as err:
            Ordinal(terms)
        assert str(err.value) == text
    # any two-item iterable is a pair, as it was
    assert Ordinal([[ONE, 2], iter((ZERO, 1))]) == parse("w*2 + 1")
    with pytest.raises(OrdinalError) as err:
        from_int(-1)
    assert str(err.value) == "ordinals are nonnegative, got -1"


def test_non_integral_coefficients_are_refused():
    with pytest.raises(OrdinalError, match="coefficient must be an integer, got 2.7"):
        Ordinal(((ONE, 2.7),))
    with pytest.raises(OrdinalError, match="coefficient must be an integer, got 2.5"):
        omega_pow(ONE, 2.5)
    with pytest.raises(OrdinalError, match="sequence index must be an integer, got 2.5"):
        fundamental(OMEGA, 2.5)
    with pytest.raises(OrdinalError, match="natural number must be an integer, got 2.5"):
        from_int(2.5)
    with pytest.raises(OrdinalError, match="coefficient must be positive, got -1"):
        omega_pow(ONE, -1)
    with pytest.raises(OrdinalError, match="exponent must be an Ordinal, got 1"):
        omega_pow(1, 2)
    # operator.index semantics: ints and bools pass
    assert Ordinal(((ONE, True),)) == omega_pow(ONE, True) == OMEGA
    assert fundamental(OMEGA, True) == ONE
    assert omega_pow(1, 0) == ZERO


def checked_copy(a):
    """`a` rebuilt from its terms by the checking constructor."""
    return Ordinal(a.terms)


def assert_normal(a):
    b = checked_copy(a)
    assert a._key == b._key
    assert hash(a) == hash(b)
    assert a.terms == b.terms
    assert str(a) == str(b)


@given(st.lists(st.tuples(deep_ordinals(), st.integers(1, 4)), max_size=4, unique_by=lambda t: t[0]))
def test_terms_are_read_off_the_one_stored_form(raw):
    pairs = tuple(sorted(raw, key=lambda t: t[0], reverse=True))
    a = Ordinal(pairs)
    assert a.terms == pairs
    if pairs:
        assert a.leading_exponent == pairs[0][0]
    assert all(type(exp) is Ordinal for exp, _ in a.terms)
    assert sum((omega_pow(exp, coeff) for exp, coeff in pairs), ZERO).terms == pairs
    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    copies = [Ordinal(a.terms), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, protocol)) for protocol in protocols]
    for b in copies:
        assert (b._key, hash(b), str(b)) == (a._key, hash(a), str(a))
        assert b.terms == pairs


@given(deep_ordinals(), deep_ordinals())
def test_is_successor_of_matches_adding_one(a, b):
    assert a.is_successor_of(b) is (a == b + 1)
    assert (b + 1).is_successor_of(b) and (b + 2).is_successor_of(b + 1)
    assert not b.is_successor_of(b)
    # 0 and limits are no successor, though dropping their last term gives b
    assert not ZERO.is_successor_of(ZERO) and not (b + OMEGA).is_successor_of(b)


@given(deep_ordinals(), deep_ordinals(), st.integers(0, 4), st.integers(0, 6))
def test_arithmetic_matches_the_checking_constructor(a, b, n, k):
    for result in (a + b, b + a, n + a, a + n, a.successor(), from_int(n), omega_pow(a, n),
                   omega_quotient(a)):
        assert_normal(result)
    if a.is_successor:
        assert_normal(a.predecessor())
        assert a.predecessor().successor() == a
    if a.is_limit:
        assert_normal(fundamental(a, k))
        assert fundamental(a, k) == naive_fundamental(a, k)


def test_parse_canonical_forms():
    assert parse("0") == ZERO
    assert parse("w") == OMEGA
    assert parse("17") == from_int(17)
    assert parse("w^2*3 + w + 5") == Ordinal(
        ((from_int(2), 3), (ONE, 1), (ZERO, 5))
    )
    assert parse("w^w") == omega_pow(OMEGA)
    assert parse("w^w^w") == omega_pow(omega_pow(OMEGA))
    assert parse("w^(w + 1)").leading_exponent == OMEGA + 1


def test_parse_normalizes():
    assert parse("1 + w") == OMEGA
    assert parse("w + w") == parse("w*2")
    assert parse("w^2 + w^2*2") == parse("w^2*3")
    assert parse("3 + 4") == from_int(7)
    assert parse("w + w^2") == parse("w^2")


def test_parse_rejects_garbage():
    for bad in ["", "w^", "1 +", "w*0", "w*", "(w)", "w^(w", "x", "w^()", "+ w"]:
        with pytest.raises(OrdinalParseError):
            parse(bad)
    with pytest.raises(OrdinalParseError, match=r"^expected text, got 3$"):
        parse(3)
    with pytest.raises(OrdinalParseError, match=r"^trailing input at token position 1$"):
        parse("w)")


def test_render_examples():
    assert str(parse("w^2*3 + w + 5")) == "w^2*3 + w + 5"
    assert str(parse("w^(w + 1)*2 + w^w")) == "w^(w + 1)*2 + w^w"
    assert str(parse("w^w^w")) == "w^w^w"
    assert str(parse("w^(w*2)")) == "w^(w*2)"
    assert str(parse("w^1")) == "w"
    assert str(parse("w^0*4")) == "4"


@given(deep_ordinals())
def test_parse_render_round_trip(a):
    assert parse(str(a)) == a


def test_render_round_trip_bulk():
    import random

    rng = random.Random(20260816)

    def rand_ordinal(depth):
        n = rng.randint(0, 3)
        if depth == 0 or n == 0:
            return from_int(rng.randint(0, 9))
        exps = []
        while len(exps) < n:
            e = rand_ordinal(depth - 1)
            if e not in exps:
                exps.append(e)
        exps.sort(reverse=True)
        return Ordinal((e, rng.randint(1, 5)) for e in exps)

    for _ in range(2000):
        a = rand_ordinal(3)
        assert parse(str(a)) == a


# frozen via the word-concatenation oracle in oracles.py
ADDITION_CASES = [
    ("1", "w", "w"),
    ("w", "1", "w + 1"),
    ("w^2", "w", "w^2 + w"),
    ("w", "w^2", "w^2"),
    ("w + 1", "w + 1", "w*2 + 1"),
    ("w^2*2 + w*3", "w*4 + 6", "w^2*2 + w*7 + 6"),
    ("w^w + w^2", "w^3", "w^w + w^3"),
    ("w^(w + 1)", "w^w*5", "w^(w + 1) + w^w*5"),
    ("5", "7", "12"),
]


@pytest.mark.parametrize("a,b,total", ADDITION_CASES)
def test_addition_frozen(a, b, total):
    pa, pb = parse(a), parse(b)
    assert pa + pb == parse(total)
    assert word_sum(pa, pb) == parse(total)


@given(deep_ordinals(), deep_ordinals())
def test_addition_matches_word_oracle(a, b):
    assert a + b == word_sum(a, b)


@given(deep_ordinals(), deep_ordinals(), deep_ordinals())
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(deep_ordinals())
def test_addition_identity(a):
    assert a + ZERO == a
    assert ZERO + a == a
    assert a + 0 == a
    assert 0 + a == a


@given(deep_ordinals(), deep_ordinals(), deep_ordinals())
def test_addition_monotone(a, b, c):
    if b < c:
        assert a + b < a + c
    if a <= b:
        assert a + c <= b + c


@given(flat_ordinals(), flat_ordinals())
def test_compare_matches_vector_oracle(a, b):
    assert compare(a, b) == vector_compare(a, b)


@given(deep_ordinals(), deep_ordinals())
def test_native_compare_matches_term_by_term_oracle(a, b):
    rel = cnf_compare(a, b)
    assert compare(a, b) == rel
    assert (a < b) == (rel < 0)
    assert (a <= b) == (rel <= 0)
    assert (a > b) == (rel > 0)
    assert (a >= b) == (rel >= 0)
    assert (a == b) == (rel == 0)
    assert (a != b) == (rel != 0)
    if rel == 0:
        assert hash(a) == hash(b)


@given(st.integers(0, 10**6))
def test_finite_ordinals_hash_as_ints(n):
    a = from_int(n)
    assert a == n and n == a
    assert hash(a) == hash(n)
    assert {a} == {n}
    assert {a: "x"}[n] == "x"


@given(deep_ordinals(), deep_ordinals())
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == 0) == (a == b)
    if a == b:
        assert hash(a) == hash(b)


@given(deep_ordinals(), deep_ordinals(), deep_ordinals())
def test_compare_transitive(a, b, c):
    if a <= b <= c:
        assert a <= c


@given(deep_ordinals())
def test_int_coercion(a):
    assert (a == 3) == (a == from_int(3))
    assert (a < 3) == (a < from_int(3))
    assert a + 2 == a + from_int(2)


def test_classification_examples():
    assert parse("w*3 + 4").classify() == "successor"
    assert parse("w^2*2").classify() == "limit"
    assert parse("w^(w + 1) + w").classify() == "limit"


@given(deep_ordinals())
def test_classification_partitions(a):
    assert [a.is_zero, a.is_successor, a.is_limit].count(True) == 1
    assert a.successor().predecessor() == a
    assert a < a.successor()
    if a.is_successor:
        assert a.predecessor() + 1 == a
    if a.is_zero:
        with pytest.raises(OrdinalError):
            a.predecessor()
        with pytest.raises(OrdinalError):
            a.leading_exponent


def test_as_int():
    assert ZERO.as_int() == 0
    assert from_int(12).as_int() == 12
    with pytest.raises(OrdinalError):
        OMEGA.as_int()


FUNDAMENTAL_CASES = [
    ("w", 5, "5"),
    ("w", 0, "0"),
    ("w*3", 4, "w*2 + 4"),
    ("w^2", 3, "w*3"),
    ("w^2*2 + w", 2, "w^2*2 + 2"),
    ("w^3 + w^2", 4, "w^3 + w*4"),
    ("w^w", 3, "w^3"),
    ("w^w", 0, "1"),
    ("w^(w + 1)", 3, "w^w*3"),
    ("w^w*2", 2, "w^w + w^2"),
    ("w^w^w", 2, "w^w^2"),
    ("w^(w^2 + w)", 2, "w^(w^2 + 2)"),
]


@pytest.mark.parametrize("lam,k,expected", FUNDAMENTAL_CASES)
def test_fundamental_frozen(lam, k, expected):
    assert fundamental(parse(lam), k) == parse(expected)
    assert naive_fundamental(parse(lam), k) == parse(expected)


def test_fundamental_rejects_non_limits():
    for bad in ["0", "5", "w + 1"]:
        with pytest.raises(OrdinalError):
            fundamental(parse(bad), 1)
    with pytest.raises(OrdinalError):
        fundamental(OMEGA, -1)


@given(limit_ordinals(), st.integers(0, 20))
def test_fundamental_below_and_increasing(lam, k):
    assert fundamental(lam, k) < lam
    assert fundamental(lam, k) < fundamental(lam, k + 1)


@given(limit_ordinals(), deep_ordinals())
def test_fundamental_eventually_dominates(lam, mu):
    # the sequence is cofinal: anything below the limit is passed eventually
    if not mu < lam:
        return
    assert any(fundamental(lam, k) > mu for k in range(256))


CB_LEVEL_CASES = [
    ("0", 0),
    ("7", 0),
    ("w", 1),
    ("w*9 + 3", 0),
    ("w^2*5", 2),
    ("w^3 + w", 1),
    ("w^5", 5),
]


@pytest.mark.parametrize("b,level", CB_LEVEL_CASES)
def test_cb_level_frozen(b, level):
    assert cb_level(parse(b)) == level


def test_cb_level_rejects_above_w_w():
    with pytest.raises(OrdinalError):
        cb_level(parse("w^w"))
    with pytest.raises(OrdinalError):
        cb_level(parse("w^(w + 1) + w^2"))


@given(flat_ordinals())
def test_cb_level_matches_strip_oracle(b):
    assert cb_level(b) == strip_rank(b)


QUOTIENT_CASES = [
    ("0", "0"),
    ("5", "0"),
    ("w", "1"),
    ("w + 3", "1"),
    ("w*4 + 7", "4"),
    ("w^2", "w"),
    ("w^3*2 + w^2", "w^2*2 + w"),
    ("w^w", "w^w"),
    ("w^(w + 1)", "w^(w + 1)"),
    ("w^(w + 1) + w^2*3 + w + 9", "w^(w + 1) + w*3 + 1"),
]


@pytest.mark.parametrize("a,q", QUOTIENT_CASES)
def test_omega_quotient_frozen(a, q):
    assert omega_quotient(parse(a)) == parse(q)


@given(flat_ordinals())
def test_omega_quotient_matches_shift_oracle(a):
    assert omega_quotient(a) == shift_down(a)


@given(deep_ordinals())
def test_omega_quotient_sandwich(a):
    q = omega_quotient(a)
    assert omega_times(q) <= a
    assert a < omega_times(q.successor())


@given(deep_ordinals())
def test_sorting_uses_total_order(a):
    batch = [a + k for k in (3, 0, 2, 1)]
    assert sorted(batch) == [a, a + 1, a + 2, a + 3]


def test_parse_nests_at_most_100_levels():
    tower = parse("w^" * 100 + "1")
    assert str(tower) == "w^" * 99 + "w"
    assert parse("w^" * 99 + "(1)") == parse("w^" * 99 + "1")
    for text in ["w^" * 101 + "1", "w^" * 100 + "(1)", "w^(" * 51 + "1" + ")" * 51,
                 "w^" * 1000 + "1"]:
        with pytest.raises(OrdinalParseError, match="nest deeper than 100 levels"):
            parse(text)


def test_int_comparisons_beyond_less_than():
    w3 = parse("w + 3")
    assert from_int(4) <= 4 and from_int(4) <= 5 and not from_int(4) <= 3
    assert from_int(4) >= 4 and from_int(4) >= 3 and not from_int(4) >= 5
    assert from_int(4) > 3 and not from_int(4) > 4
    assert w3 > 1000 and w3 >= 1000 and not w3 <= 1000
    assert ZERO <= 0 and ZERO >= 0 and not ZERO > 0


def test_foreign_operands_are_refused_and_never_equal():
    ops = [lambda: ONE < "a", lambda: ONE <= "a", lambda: ONE > "a", lambda: ONE >= "a"]
    for op in ops + [lambda: ONE + "a", lambda: 1.5 + ONE]:
        with pytest.raises(TypeError):
            op()
    assert (ONE == "a") is False
