"""Parser for the element expression language.

Grammar (whitespace insignificant)::

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' nat)*
    primary := rational | ident | '(' expr ')'
    rational:= nat ['/' nat]

Identifiers are generator names of the target presentation.  A leading
sign is accepted so printed elements parse back exactly.  Linear
combinations of Lie basis names (definition files, ``eigen``) are parsed
with the same grammar into a polynomial presentation of the names.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .algebra import AlgebraPresentation, Element
from .errors import ParseError, PresentationError
from .linalg import exact

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[-+*^()/]))")


def is_name(text: str) -> bool:
    """Whether ``text`` is one identifier token, so that expressions can name it."""
    m = _TOKEN.fullmatch(text)
    return m is not None and m.lastgroup == "name"


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits(), kept: no print runs for hours
        raise ParseError(f"integer has more than {sys.get_int_max_str_digits()} digits",
                         pos) from None


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, alg: AlgebraPresentation):
        self.text = text
        self.alg = alg
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Element:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return value

    def expr(self) -> Element:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = value - rhs if val == "-" else value + rhs
            else:
                return value

    def term(self) -> Element:
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Element:
        value = self.primary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind, val, pos = self.next()
                if kind != "num":
                    raise ParseError("exponent must be a non-negative integer", pos)
                value = value ** _int(val, pos)
            else:
                return value

    def primary(self) -> Element:
        kind, val, pos = self.next()
        if kind == "num":
            num = _int(val, pos)
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.next()
                k, v, p = self.next()
                if k != "num":
                    raise ParseError("denominator must be an integer", p)
                den = _int(v, p)
                if not den:
                    raise ParseError("division by zero", p)
                return self.alg.scalar(Fraction(num, den))
            return self.alg.scalar(num)
        if kind == "name":
            return self.alg.gen(val)
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input",
                         pos)


def parse(text: str, alg: AlgebraPresentation) -> Element:
    """Parse an expression into a normal-form element of ``alg``."""
    parser = _Parser(text, alg)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply", parser.peek()[2]) from None


def parse_list(text: str, alg: AlgebraPresentation):
    """Parse a comma-separated list of expressions."""
    parts = [p for p in text.split(",") if p.strip()]
    return [parse(p, alg) for p in parts]


def parse_linear_combination(text: str, pres: AlgebraPresentation):
    """Parse ``3*a - 1/2*b`` into {name: exact scalar} over the generators of
    ``pres``, a :func:`polynomial_presentation` of the basis names.

    Used by the algebra definition file format, where bracket right-hand
    sides are linear in the basis names: the grammar is :func:`parse`'s, and
    every term of the result must have degree exactly 1.
    """
    try:
        value = parse(text, pres)
    except PresentationError:  # an unknown name: report it where it stands
        names = {g.name for g in pres.generators}
        _, name, pos = next(tok for tok in _tokenize(text)
                            if tok[0] == "name" and tok[1] not in names)
        raise ParseError(f"unknown basis name {name!r}", pos) from None
    if any(sum(m) != 1 for m in value.coeffs):
        raise ParseError(f"{text.strip()!r} is not linear in the basis names", 0)
    return {pres.gen_name(m.index(1)): exact(c) for m, c in value.items()}
