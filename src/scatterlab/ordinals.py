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

Everything in this module is immutable and pure.
"""

from __future__ import annotations

from typing import Iterable, Tuple


class OrdinalError(ValueError):
    """Malformed ordinal construction or an out-of-range request."""


class OrdinalParseError(OrdinalError):
    """Input text does not match the ordinal grammar."""


class Ordinal:
    """A Cantor-normal-form ordinal below epsilon_0.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    decreasing exponents and coefficients >= 1.

    ``_key`` mirrors ``terms`` as nested tuples ``((exp._key, coeff), ...)``.
    Native tuple order on keys is Cantor-normal-form order (exponents
    first, then coefficients, a proper prefix below its extensions), so
    comparison, equality and hashing are each one tuple operation.
    """

    __slots__ = ("_terms", "_key", "_hash")

    def __init__(self, terms: Iterable[Tuple["Ordinal", int]] = ()):
        terms = tuple((exp, int(coeff)) for exp, coeff in terms)
        key = []
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise OrdinalError(f"exponent must be an Ordinal, got {exp!r}")
            if coeff < 1:
                raise OrdinalError(f"coefficient must be positive, got {coeff}")
            if key and exp._key >= key[-1][0]:
                raise OrdinalError("exponents must strictly decrease")
            key.append((exp._key, coeff))
        self._terms = terms
        self._key = key = tuple(key)
        # a finite ordinal hashes as its int, since it compares equal to it
        if not key:
            self._hash = 0
        elif len(key) == 1 and not key[0][0]:
            self._hash = hash(key[0][1])
        else:
            self._hash = hash(key)

    @property
    def terms(self) -> Tuple[Tuple["Ordinal", int], ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_successor(self) -> bool:
        return bool(self._terms) and self._terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self._terms) and not self._terms[-1][0].is_zero

    def classify(self) -> str:
        """One of "zero", "successor", "limit"."""
        if self.is_zero:
            return "zero"
        return "successor" if self.is_successor else "limit"

    @property
    def leading_exponent(self) -> "Ordinal":
        if self.is_zero:
            raise OrdinalError("0 has no leading exponent")
        return self._terms[0][0]

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise OrdinalError(f"{self} is not a successor")
        head, (exp, coeff) = self._terms[:-1], self._terms[-1]
        if coeff > 1:
            return Ordinal(head + ((exp, coeff - 1),))
        return Ordinal(head)

    def successor(self) -> "Ordinal":
        return self + ONE

    def as_int(self) -> int:
        """The natural-number value, if this ordinal is finite."""
        if self.is_zero:
            return 0
        if len(self._terms) == 1 and self._terms[0][0].is_zero:
            return self._terms[0][1]
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
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        lead = other._terms[0][0]
        keep = []
        for exp, coeff in self._terms:
            rel = compare(exp, lead)
            if rel > 0:
                keep.append((exp, coeff))
            elif rel == 0:
                merged = (lead, coeff + other._terms[0][1])
                return Ordinal(tuple(keep) + (merged,) + other._terms[1:])
            else:
                break
        return Ordinal(tuple(keep) + other._terms)

    def __radd__(self, other) -> "Ordinal":
        if isinstance(other, int):
            return from_int(other) + self
        return NotImplemented

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self._terms:
            if exp.is_zero:
                parts.append(str(coeff))
                continue
            base = "w" if exp == ONE else "w^" + _exponent_text(exp)
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


def compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way ordinal comparison: -1, 0, or 1."""
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise OrdinalError(f"ordinals are nonnegative, got {n}")
    return Ordinal(((ZERO, n),)) if n else ZERO


def omega_pow(exp: Ordinal, coeff: int = 1) -> Ordinal:
    """w^exp * coeff (coeff 0 gives 0)."""
    if coeff == 0:
        return ZERO
    return Ordinal(((exp, coeff),))


def fundamental(lam: Ordinal, k: int) -> Ordinal:
    """The k-th member of the canonical increasing sequence converging to lam.

    For lam = g + w^(b+1) this is g + w^b * k; for lam = g + w^b with b a
    limit it is g + w^(fundamental(b, k)).  The sequence is strictly
    increasing from k=1 on and has supremum lam.
    """
    if not isinstance(lam, Ordinal) or not lam.is_limit:
        raise OrdinalError(f"fundamental sequence requires a limit ordinal, got {lam!r}")
    if k < 0:
        raise OrdinalError(f"sequence index must be >= 0, got {k}")
    head, (exp, coeff) = lam._terms[:-1], lam._terms[-1]
    if coeff > 1:
        head = head + ((exp, coeff - 1),)
    base = Ordinal(head)
    if exp.is_successor:
        return base + omega_pow(exp.predecessor(), k)
    return base + omega_pow(fundamental(exp, k))


def cb_level(b: Ordinal) -> int:
    """How many rounds of isolated-point removal the point b survives.

    Inside any closed ordinal segment containing it, b sits on level e
    exactly when w^e divides b but w^(e+1) does not; 0 itself sits on
    level 0.  Only numeric levels are reported, so b must lie below w^w.
    """
    if b.is_zero:
        return 0
    if compare(b.leading_exponent, OMEGA) >= 0:
        raise OrdinalError(f"level of {b} is not a natural number")
    return b._terms[-1][0].as_int()


def omega_quotient(a: Ordinal) -> Ordinal:
    """The largest g with w*g <= a (left division by w)."""
    out = []
    for exp, coeff in a._terms:
        if exp.is_zero:
            continue
        # 1 + g = exp solves to exp - 1 for finite exponents and to exp itself
        # for infinite ones
        g = from_int(exp.as_int() - 1) if compare(exp, OMEGA) < 0 else exp
        out.append((g, coeff))
    return Ordinal(tuple(out))


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


def _exponent_text(exp: Ordinal) -> str:
    return str(exp) if _is_atom(exp) else "(" + str(exp) + ")"


def _is_atom(exp: Ordinal) -> bool:
    # naturals and coefficient-1 towers of w re-parse without parentheses
    if exp.is_zero:
        return True
    if len(exp._terms) != 1:
        return False
    inner, coeff = exp._terms[0]
    if inner.is_zero:
        return True
    return coeff == 1 and _is_atom(inner)

