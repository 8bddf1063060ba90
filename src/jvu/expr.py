"""Expression grammar for free-algebra and Jordan elements, with a canonical
formatter that round-trips through the parser.

Grammar (ASCII rendering of the algebra's notation):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('-' | '+')* atom
    atom    := INT ['/' INT] | 'one' | generator | call | '(' expr ')'
    call    := rev(e) | sym(e) | sq(e) | circ(e, f) | U(b; a) | Ulin(b, c; a)

``U(b; a)`` denotes a U_b = b a b and ``Ulin(b, c; a)`` denotes b a c + c a b;
``one`` is the unit of the free algebra (the adjoined unit of the hull).
"""

from __future__ import annotations

import re

from .fields import Field, FieldError
from .freealg import FreePoly, GeneratorSet

_KEYWORDS = ("rev", "sym", "sq", "circ", "U", "Ulin", "one")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/(),;]))"
)


class ParseError(ValueError):
    """Syntax or semantic error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = pos + (len(text) - pos - len(stripped))
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, gens: GeneratorSet, field: Field):
        self.text = text
        self.gens = gens
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> FreePoly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return p

    def expr(self) -> FreePoly:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if val == "+":
                self.next()
                p = p + self.term()
            elif val == "-":
                self.next()
                p = p - self.term()
            else:
                return p

    def term(self) -> FreePoly:
        p = self.factor()
        while self.peek()[1] == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> FreePoly:
        kind, val, _ = self.peek()
        if val == "-":
            self.next()
            return -self.factor()
        if val == "+":
            self.next()
            return self.factor()
        return self.atom()

    def atom(self) -> FreePoly:
        kind, val, pos = self.next()
        if kind == "int":
            num = int(val)
            den = 1
            if self.peek()[1] == "/":
                self.next()
                k2, v2, p2 = self.next()
                if k2 != "int":
                    raise ParseError("expected denominator digits", p2)
                den = int(v2)
            try:
                c = self.field.from_rational(num, den)
            except (ZeroDivisionError, FieldError):
                raise ParseError(f"bad scalar {num}/{den} over this field", pos) from None
            return FreePoly.constant(self.gens, self.field, c)
        if kind == "name":
            if val == "one":
                return FreePoly.one(self.gens, self.field)
            if val in _KEYWORDS:
                return self.call(val, pos)
            try:
                return FreePoly.generator(self.gens, self.field, val)
            except KeyError:
                raise ParseError(f"unknown generator {val!r}", pos) from None
        if val == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError(f"unexpected {val or 'end of input'!r}", pos)

    def call(self, name: str, pos: int) -> FreePoly:
        from . import jordan

        self.expect("(")
        first = self.expr()
        if name in ("rev", "sym", "sq"):
            self.expect(")")
            if name == "rev":
                return first.reverse()
            if name == "sym":
                return first.symmetrize()
            return jordan.square(first)
        if name == "circ":
            self.expect(",")
            second = self.expr()
            self.expect(")")
            return jordan.circ(first, second)
        if name == "U":
            self.expect(";")
            operand = self.expr()
            self.expect(")")
            return jordan.u_apply(first, operand)
        if name == "Ulin":
            self.expect(",")
            second = self.expr()
            self.expect(";")
            operand = self.expr()
            self.expect(")")
            return jordan.u_lin(first, second, operand)
        raise ParseError(f"unknown function {name!r}", pos)


def parse_expr(text: str, gens: GeneratorSet, field: Field) -> FreePoly:
    """Parse an expression to an exact polynomial over the given generators."""
    bad = [n for n in gens.names if n in _KEYWORDS]
    if bad:
        raise ValueError(f"generator names collide with keywords: {bad}")
    parser = _Parser(text, gens, field)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


# ---------------------------------------------------------------------------
# Formatting


def format_scalar(c, field: Field) -> str:
    if field.characteristic:
        return str(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _signed_sum(terms, field: Field) -> str:
    """Join (coeff, text) terms as ``text - 2*text + ...``; text None stands for
    the unit, which leaves the bare scalar.  Only Q scalars carry a sign, so a
    GF(p) term prints its residue in 0..p-1.  No terms join to "0"."""
    parts = []
    for c, text in terms:
        if field.characteristic == 0 and c < 0:
            sign, c = "-", -c
        else:
            sign = "+"
        if text is None:
            body = format_scalar(c, field)
        elif c == field.one:
            body = text
        else:
            body = f"{format_scalar(c, field)}*{text}"
        parts.append(f"{sign} {body}")
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out[0] == "+" else f"-{out[2:]}"


def format_poly(p: FreePoly) -> str:
    """Canonical text form: deglex term order; parse_expr inverts it exactly."""
    return _signed_sum(((c, p.word_str(w) if w else None) for w, c in p.sorted_terms()), p.field)


def format_linear_combination(terms, field: Field) -> str:
    """Render [(coeff, expr_str), ...] as a parseable sum like
    ``expr1 - 2*(expr2) + 1/2*(expr3)``; an empty combination is "0"."""
    return _signed_sum(((c, f"({expr})") for c, expr in terms if not field.is_zero(c)), field)
