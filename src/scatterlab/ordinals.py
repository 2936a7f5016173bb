"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum ``w^e1*c1 + ... + w^ek*ck`` with exponents
``e1 > e2 > ... > ek`` (themselves ordinals) and positive integer
coefficients.  The empty sum is 0.  The form is unique, so structural
equality is ordinal equality and instances can be hashed and sorted.

Text grammar (whitespace-insensitive)::

    expr := term ("+" term)*
    term := "w" ("^" atom)? ("*" nat)? | nat
    atom := "w" ("^" atom)? | nat | "(" expr ")"

Rendering always emits the canonical form: terms joined by " + ", "w^1"
written "w", coefficient 1 omitted, and compound exponents parenthesized
so that re-parsing the rendered text is the identity.  Parsing normalizes,
so "1 + w" is accepted and denotes w.

Coefficients must be integers: a float or any other value without
`operator.index` raises `OrdinalError`, as a coefficient below 1 does.  The
public constructor checks every term.  Arithmetic (`+`, `predecessor`,
`omega_pow`, `from_int`, `fundamental`, `omega_quotient`) builds the key of
its result from the keys it already holds, through `_normal`, which skips
those checks.

Everything in this module is immutable and pure.
"""

from __future__ import annotations

import operator
from typing import Iterable, Tuple


class OrdinalError(ValueError):
    """Malformed ordinal construction or an out-of-range request."""


class OrdinalParseError(OrdinalError):
    """Input text does not match the ordinal grammar."""


class Ordinal:
    """A Cantor-normal-form ordinal below epsilon_0.

    Its one stored form, ``_key``, holds a pair ``(exponent's key,
    coefficient)`` per term, exponents strictly decreasing and coefficients
    >= 1; 0's key is ``()``.  Native tuple order on keys is Cantor-normal-form
    order (exponents first, then coefficients, a proper prefix below its
    extensions), so comparison, equality and hashing are each one tuple
    operation.  ``terms`` and ``leading_exponent`` are built from it on read.
    """

    __slots__ = ("_key", "_hash")

    def __init__(self, terms: Iterable[Tuple["Ordinal", int]] = ()):
        try:
            terms = iter(terms)
        except TypeError:
            raise OrdinalError(f"terms must be iterable, got {terms!r}") from None
        pairs = []
        for term in terms:
            try:
                exp, coeff = term
            except (TypeError, ValueError):
                raise OrdinalError(
                    f"term must be an (exponent, coefficient) pair, got {term!r}") from None
            pairs.append((exp, _integer(coeff, "coefficient")))
        key = []
        for exp, coeff in pairs:
            if not isinstance(exp, Ordinal):
                raise OrdinalError(f"exponent must be an Ordinal, got {exp!r}")
            if coeff < 1:
                raise OrdinalError(f"coefficient must be positive, got {coeff}")
            if key and exp._key >= key[-1][0]:
                raise OrdinalError("exponents must strictly decrease")
            key.append((exp._key, coeff))
        self._set(tuple(key))

    def _set(self, key) -> None:
        self._key = key
        # a finite ordinal hashes as its int, since it compares equal to it
        if not key:
            self._hash = 0
        elif len(key) == 1 and not key[0][0]:
            self._hash = hash(key[0][1])
        else:
            self._hash = hash(key)

    @property
    def terms(self) -> Tuple[Tuple["Ordinal", int], ...]:
        return tuple((_normal(exp), coeff) for exp, coeff in self._key)

    @property
    def is_zero(self) -> bool:
        return not self._key

    @property
    def is_successor(self) -> bool:
        return bool(self._key) and not self._key[-1][0]

    @property
    def is_limit(self) -> bool:
        return bool(self._key) and bool(self._key[-1][0])

    def classify(self) -> str:
        """One of "zero", "successor", "limit"."""
        if self.is_zero:
            return "zero"
        return "successor" if self.is_successor else "limit"

    @property
    def leading_exponent(self) -> "Ordinal":
        if self.is_zero:
            raise OrdinalError("0 has no leading exponent")
        return _normal(self._key[0][0])

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise OrdinalError(f"{self} is not a successor")
        return _normal(_predecessor(self._key))

    def successor(self) -> "Ordinal":
        return self + ONE

    def is_successor_of(self, other: "Ordinal") -> bool:
        """Whether self == other + 1, without building other + 1."""
        return self.is_successor and other._key == _predecessor(self._key)

    def as_int(self) -> int:
        """The natural-number value, if this ordinal is finite."""
        key = self._key
        if not key:
            return 0
        if len(key) == 1 and not key[0][0]:
            return key[0][1]
        raise OrdinalError(f"{self} is not a natural number")

    def __eq__(self, other) -> bool:
        if other.__class__ is Ordinal:
            return self._key == other._key
        if isinstance(other, int):
            return self._key == from_int(other)._key
        return NotImplemented

    def __lt__(self, other) -> bool:
        if other.__class__ is Ordinal:
            return self._key < other._key
        if isinstance(other, int):
            return self._key < from_int(other)._key
        return NotImplemented

    def __le__(self, other) -> bool:
        if other.__class__ is Ordinal:
            return self._key <= other._key
        if isinstance(other, int):
            return self._key <= from_int(other)._key
        return NotImplemented

    def __gt__(self, other) -> bool:
        if other.__class__ is Ordinal:
            return self._key > other._key
        if isinstance(other, int):
            return self._key > from_int(other)._key
        return NotImplemented

    def __ge__(self, other) -> bool:
        if other.__class__ is Ordinal:
            return self._key >= other._key
        if isinstance(other, int):
            return self._key >= from_int(other)._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other) -> "Ordinal":
        if other.__class__ is not Ordinal:
            if isinstance(other, int):
                other = from_int(other)
            elif not isinstance(other, Ordinal):
                return NotImplemented
        if not other._key:
            return self
        if not self._key:
            return other
        # the terms of self with exponents above other's leading one are kept;
        # a term with that very exponent merges into other's leading term
        key, tail = self._key, other._key
        lead, lead_coeff = tail[0]
        for n, (exp, coeff) in enumerate(key):
            if exp > lead:
                continue
            if exp == lead:
                return _normal(key[:n] + ((lead, coeff + lead_coeff),) + tail[1:])
            return _normal(key[:n] + tail)
        return _normal(key + tail)

    def __radd__(self, other) -> "Ordinal":
        if isinstance(other, int):
            return from_int(other) + self
        return NotImplemented

    def __str__(self) -> str:
        return _text(self._key)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


def compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way ordinal comparison: -1, 0, or 1."""
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


def _normal(key) -> Ordinal:
    """The Ordinal whose key is `key`, already in normal form; nothing is checked."""
    out = object.__new__(Ordinal)
    out._set(key)
    return out


def _predecessor(key):
    """The key of the predecessor of the successor whose key is `key`."""
    coeff = key[-1][1]
    return key[:-1] + (((), coeff - 1),) if coeff > 1 else key[:-1]


def _text(key) -> str:
    """The canonical text of the ordinal whose key is `key`."""
    if not key:
        return "0"
    parts = []
    for exp, coeff in key:
        if not exp:
            parts.append(str(coeff))
            continue
        exp_text = _text(exp)
        # an exponent re-parses without parentheses exactly when it is a
        # natural or a coefficient-1 tower of w, whose text has no "+" or "*"
        if "+" in exp_text or "*" in exp_text:
            exp_text = f"({exp_text})"
        base = "w" if exp_text == "1" else "w^" + exp_text
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return " + ".join(parts)


def _integer(value, what: str) -> int:
    """`value` as an int by `operator.index`, so a bool passes and a float
    raises `OrdinalError`."""
    try:
        return operator.index(value)
    except TypeError:
        raise OrdinalError(f"{what} must be an integer, got {value!r}") from None


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    n = _integer(n, "natural number")
    if n < 0:
        raise OrdinalError(f"ordinals are nonnegative, got {n}")
    return _normal((((), n),)) if n else ZERO


def omega_pow(exp: Ordinal, coeff: int = 1) -> Ordinal:
    """w^exp * coeff (coeff 0 gives 0)."""
    coeff = _integer(coeff, "coefficient")
    if coeff == 0:
        return ZERO
    if not isinstance(exp, Ordinal):
        raise OrdinalError(f"exponent must be an Ordinal, got {exp!r}")
    if coeff < 1:
        raise OrdinalError(f"coefficient must be positive, got {coeff}")
    return _normal(((exp._key, coeff),))


def fundamental(lam: Ordinal, k: int) -> Ordinal:
    """The k-th member of the canonical increasing sequence converging to lam.

    For lam = g + w^(b+1) this is g + w^b * k; for lam = g + w^b with b a
    limit it is g + w^(fundamental(b, k)).  The sequence is strictly
    increasing from k=1 on and has supremum lam.
    """
    if not isinstance(lam, Ordinal) or not lam.is_limit:
        raise OrdinalError(f"fundamental sequence requires a limit ordinal, got {lam!r}")
    k = _integer(k, "sequence index")
    if k < 0:
        raise OrdinalError(f"sequence index must be >= 0, got {k}")
    return _normal(_fundamental(lam._key, k))


def _fundamental(key, k: int):
    """The key of fundamental(lam, k) for the limit lam whose key is `key`."""
    # every exponent of the head is at least exp, and the tail's is below it,
    # so head and tail concatenate into normal form
    head, (exp, coeff) = key[:-1], key[-1]
    if coeff > 1:
        head += ((exp, coeff - 1),)
    if exp[-1][0]:
        return head + ((_fundamental(exp, k), 1),)
    if k == 0:
        return head
    return head + ((_predecessor(exp), k),)


def cb_level(b: Ordinal) -> int:
    """How many rounds of isolated-point removal the point b survives.

    Inside any closed ordinal segment containing it, b sits on level e
    exactly when w^e divides b but w^(e+1) does not; 0 itself sits on
    level 0.  Only numeric levels are reported, so b must lie below w^w.
    """
    if b.is_zero:
        return 0
    if b._key[0][0] >= OMEGA._key:
        raise OrdinalError(f"level of {b} is not a natural number")
    exp = b._key[-1][0]
    return exp[0][1] if exp else 0


def omega_quotient(a: Ordinal) -> Ordinal:
    """The largest g with w*g <= a (left division by w)."""
    out = []
    for exp, coeff in a._key:
        if not exp:
            continue
        # 1 + g = exp solves to exp - 1 for finite exponents and to exp itself
        # for infinite ones
        g = _predecessor(exp) if exp < OMEGA._key else exp
        out.append((g, coeff))
    # exponents above w stay and finite ones drop by one, so they still decrease
    return _normal(tuple(out))


# --- parsing ---------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "w^*+()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((int(text[i:j]), i))
            i = j
            continue
        raise OrdinalParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


_MAX_NESTING = 100  # how deep exponents and parentheses may nest


def _deeper(depth):
    if depth >= _MAX_NESTING:
        raise OrdinalParseError(f"exponents nest deeper than {_MAX_NESTING} levels")
    return depth + 1


def _peek(tokens, pos):
    return tokens[pos][0] if pos < len(tokens) else None


def _parse_expr(tokens, pos, depth):
    value, pos = _parse_term(tokens, pos, depth)
    while _peek(tokens, pos) == "+":
        nxt, pos = _parse_term(tokens, pos + 1, depth)
        value = value + nxt
    return value, pos


def _parse_term(tokens, pos, depth):
    tok = _peek(tokens, pos)
    if isinstance(tok, int):
        return from_int(tok), pos + 1
    if tok == "w":
        pos += 1
        exp = ONE
        if _peek(tokens, pos) == "^":
            exp, pos = _parse_atom(tokens, pos + 1, _deeper(depth))
        coeff = 1
        if _peek(tokens, pos) == "*":
            nat = _peek(tokens, pos + 1)
            if not isinstance(nat, int) or nat < 1:
                raise OrdinalParseError("expected a positive coefficient after '*'")
            coeff, pos = nat, pos + 2
        return omega_pow(exp, coeff), pos
    raise OrdinalParseError(f"expected a term at token position {pos}")


def _parse_atom(tokens, pos, depth):
    tok = _peek(tokens, pos)
    if isinstance(tok, int):
        return from_int(tok), pos + 1
    if tok == "w":
        pos += 1
        if _peek(tokens, pos) == "^":
            exp, pos = _parse_atom(tokens, pos + 1, _deeper(depth))
            return omega_pow(exp), pos
        return OMEGA, pos
    if tok == "(":
        value, pos = _parse_expr(tokens, pos + 1, _deeper(depth))
        if _peek(tokens, pos) != ")":
            raise OrdinalParseError("unbalanced parenthesis in exponent")
        return value, pos + 1
    raise OrdinalParseError(f"expected an exponent at token position {pos}")


def parse(text: str) -> Ordinal:
    """Parse the grammar in the module docstring, normalizing as it goes."""
    if not isinstance(text, str):
        raise OrdinalParseError(f"expected text, got {text!r}")
    tokens = _tokenize(text)
    if not tokens:
        raise OrdinalParseError("empty ordinal text")
    value, pos = _parse_expr(tokens, 0, 0)
    if pos != len(tokens):
        raise OrdinalParseError(f"trailing input at token position {pos}")
    return value

