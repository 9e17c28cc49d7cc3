"""Exact-rational multivariate polynomials over named coordinates.

This is the scalar ring of the whole engine: anchor components, structure
functions and every form/multivector coefficient are Expr values. An Expr is
a canonical table mapping monomials to nonzero Fraction coefficients, so
equality is table identity and "is this residual zero" is always an exact,
decidable question. Floating point is deliberately absent.

A monomial is stored as a name-sorted tuple of (coordinate, exponent) pairs
with all exponents >= 1; the empty tuple is the constant monomial. Charts
(ordered coordinate tuples) matter only for parsing and printing, which keeps
an Expr reusable when a chart is extended with new coordinates.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Size budget of a power p^n (n > 1) of a t-term p, checked in integers before multiplying:
# at most C(n + t - 1, t - 1) terms and n * (b + ceil(log2 t)) coefficient bits, b being
# ceil(log2) of p's largest numerator or denominator, so a monomial with coefficient +-1 counts 0 bits.
# A parsed product pairs at most MAX_POWER_TERMS**2 terms of one factor with terms of the other.
MAX_POWER_TERMS = 1000
MAX_POWER_BITS = 1000
# Parentheses nest at most this deep, safely below the interpreter's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or lookup error while parsing an expression string."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def validate_name(name):
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"invalid coordinate name {name!r}")
    return name


def validate_chart(names):
    """Check a coordinate chart: valid, pairwise-distinct names."""
    chart = tuple(names)
    for name in chart:
        validate_name(name)
    if len(set(chart)) != len(chart):
        raise ValueError(f"duplicate coordinate names in chart {chart!r}")
    return chart


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def _mono_mul(m1, m2):
    """Merge two name-sorted monomials, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        n1, e1 = m1[i]
        n2, e2 = m2[j]
        if n1 == n2:
            out.append((n1, e1 + e2))
            i += 1
            j += 1
        elif n1 < n2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


class Expr:
    """Canonical polynomial: {monomial: nonzero Fraction}. Immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        table = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                for name, exp in mono:
                    validate_name(name)
                    if not isinstance(exp, int) or exp < 1:
                        raise ValueError(f"bad exponent {exp!r} for {name!r}")
                key = tuple(sorted(mono))
                if key in table:
                    raise ValueError(f"duplicate monomial {key!r}")
                table[key] = coeff
        self._terms = table

    @classmethod
    def _make(cls, table):
        """Trusted constructor: table already canonical, zeros removed."""
        self = object.__new__(cls)
        self._terms = table
        return self

    @classmethod
    def const(cls, value):
        value = _as_fraction(value)
        return cls._make({(): value} if value else {})

    @classmethod
    def var(cls, name):
        validate_name(name)
        return cls._make({((name, 1),): Fraction(1)})

    def items(self):
        return self._terms.items()

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Expr):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Expr.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        table = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = table.get(mono, 0) + coeff
            if acc:
                table[mono] = acc
            else:
                table.pop(mono, None)
        return Expr._make(table)

    __radd__ = __add__

    def __neg__(self):
        return Expr._make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if not other:
                return Expr._make({})
            return Expr._make({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Expr):
            return NotImplemented
        table = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = _mono_mul(m1, m2)
                acc = table.get(key, 0) + c1 * c2
                if acc:
                    table[key] = acc
                else:
                    del table[key]
        return Expr._make(table)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {n!r}")
        if n > 1 and self._terms:
            t = len(self._terms)
            b = max((max(abs(c.numerator), c.denominator) - 1).bit_length() for c in self._terms.values())
            if n * (b + (t - 1).bit_length()) > MAX_POWER_BITS or math.comb(n + t - 1, t - 1) > MAX_POWER_TERMS:
                raise ValueError(f"power {n} of a {t}-term polynomial exceeds the size budget")
        result = Expr.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, name):
        """Formal partial derivative with respect to one coordinate."""
        validate_name(name)
        table = {}
        for mono, coeff in self._terms.items():
            for idx, (var, exp) in enumerate(mono):
                if var != name:
                    continue
                if exp == 1:
                    key = mono[:idx] + mono[idx + 1 :]
                else:
                    key = mono[:idx] + ((var, exp - 1),) + mono[idx + 1 :]
                acc = table.get(key, 0) + coeff * exp
                if acc:
                    table[key] = acc
                else:
                    del table[key]
                break
        return Expr._make(table)

    def subs(self, mapping):
        """Simultaneous substitution of coordinates by polynomials."""
        repl = {}
        for name, value in mapping.items():
            validate_name(name)
            repl[name] = value if isinstance(value, Expr) else Expr.const(value)
        total = Expr._make({})
        for mono, coeff in self._terms.items():
            part = Expr.const(coeff)
            for name, exp in mono:
                factor = repl.get(name)
                part = part * (factor**exp if factor is not None else Expr._make({((name, 1),): Fraction(1)}) ** exp)
            total = total + part
        return total

    def eval_at(self, point):
        """Exact evaluation; every coordinate in the support must be assigned."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for name, exp in mono:
                if name not in point:
                    raise ValueError(f"no value for coordinate '{name}'")
                value *= _as_fraction(point[name]) ** exp
            total += value
        return total

    def variables(self):
        names = set()
        for mono in self._terms:
            for name, _ in mono:
                names.add(name)
        return frozenset(names)

    def to_text(self, chart=None):
        """Print in the input grammar; deterministic graded-lex term order."""
        if not self._terms:
            return "0"
        if chart is None:
            order = {name: i for i, name in enumerate(sorted(self.variables()))}
        else:
            order = {name: i for i, name in enumerate(chart)}
            for name in self.variables():
                if name not in order:
                    raise ValueError(f"coordinate '{name}' is not in the chart")
        nvars = len(order)

        def sort_key(mono):
            vec = [0] * nvars
            for name, exp in mono:
                vec[order[name]] = exp
            return (-sum(vec), tuple(-e for e in vec))

        pieces = []
        for mono in sorted(self._terms, key=sort_key):
            coeff = self._terms[mono]
            factors = [
                f"{name}^{exp}" if exp > 1 else name
                for name, exp in sorted(mono, key=lambda t: order[t[0]])
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            pieces.append(("-" if coeff < 0 else "+", body))

        sign, body = pieces[0]
        out = [("-" + body) if sign == "-" else body]
        for sign, body in pieces[1:]:
            out.append(" - " if sign == "-" else " + ")
            out.append(body)
        return "".join(out)

    def __repr__(self):
        return f"Expr({self.to_text()})"


ZERO = Expr.const(0)
ONE = Expr.const(1)


def as_expr(value, chart, what):
    """Coerce an Expr or rational to an Expr whose coordinates lie in `chart`;
    `what` names the value in error messages."""
    if not isinstance(value, Expr):
        try:
            value = Expr.const(value)
        except TypeError:
            raise TypeError(f"{what}: expected an Expr or rational, got {value!r}") from None
    foreign = value.variables() - set(chart)
    if foreign:
        raise ValueError(f"{what}: foreign coordinate '{sorted(foreign)[0]}'")
    return value


# ---------------------------------------------------------------------------
# Parsing


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        self._scan()

    def _scan(self):
        text = self.text
        i = 0
        symbols = {"+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET",
                   "/": "SLASH", "(": "LPAREN", ")": "RPAREN"}
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                try:
                    value = int(text[i:j])
                except ValueError:
                    raise ParseError(f"numeral of {j - i} digits is too long", i) from None
                self.tokens.append(("NAT", value, i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("NAME", text[i:j], i))
                i = j
                continue
            kind = symbols.get(ch)
            if kind is None:
                raise ParseError(f"unexpected character {ch!r}", i)
            self.tokens.append((kind, ch, i))
            i += 1
        self.tokens.append(("END", None, len(text)))


class _Parser:
    def __init__(self, text, chart):
        self.tokens = _Tokenizer(text).tokens
        self.pos = 0
        self.depth = 0
        self.chart = set(chart)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind):
        if self.tokens[self.pos][0] == kind:
            return self.advance()
        return None

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse(self):
        value = self.parse_expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def parse_expr(self):
        value = self.parse_signed_term()
        while True:
            if self.accept("PLUS"):
                value = value + self.parse_signed_term()
            elif self.accept("MINUS"):
                value = value - self.parse_signed_term()
            else:
                return value

    def parse_signed_term(self):
        # A single unary minus may prefix any term.
        if self.accept("MINUS"):
            return -self.parse_term()
        return self.parse_term()

    def parse_term(self):
        value = self.parse_factor()
        while star := self.accept("STAR"):
            factor = self.parse_factor()
            t1, t2 = len(value.items()), len(factor.items())
            if t1 * t2 > MAX_POWER_TERMS**2:
                raise ParseError(f"product of {t1} and {t2} terms exceeds the size budget", star[2])
            value = value * factor
        return value

    def parse_factor(self):
        base = self.parse_base()
        if self.accept("CARET"):
            tok = self.expect("NAT", "an exponent")
            try:
                return base ** tok[1]
            except ValueError as exc:
                raise ParseError(str(exc), tok[2]) from None
        return base

    def parse_base(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "NAT":
            if self.accept("SLASH"):
                den = self.expect("NAT", "a denominator")
                if den[1] == 0:
                    raise ParseError("zero denominator", den[2])
                return Expr.const(Fraction(value, den[1]))
            return Expr.const(value)
        if kind == "NAME":
            if value not in self.chart:
                raise ParseError(f"unknown variable '{value}'", pos)
            return Expr.var(value)
        if kind == "LPAREN":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return inner
        raise ParseError("expected a number, a variable, or '('", pos)


def parse(text, chart):
    """Parse an expression string over the given chart into canonical form."""
    return _Parser(text, validate_chart(chart)).parse()
