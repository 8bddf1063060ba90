"""Expression grammar for free-algebra and Jordan elements.  The canonical
formatter (``format_poly`` and kin, defined in :mod:`jvu.freealg` and bound
here) round-trips through the parser.

Grammar (ASCII rendering of the algebra's notation):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('-' | '+')* atom
    atom    := INT ['/' INT] | 'one' | generator | call | '(' expr ')'
    call    := rev(e) | sym(e) | sq(e) | circ(e, f) | U(b; a) | Ulin(b, c; a)

``INT`` is a run of ASCII digits 0-9; any other digit is an unexpected
character.  ``U(b; a)`` denotes a U_b = b a b and ``Ulin(b, c; a)`` denotes
b a c + c a b; ``one`` is the unit of the free algebra (the adjoined unit of
the hull).
The calls are stated once, in ``CALLS``, which the parser and ``format_call`` read.
"""

from __future__ import annotations

import re
from decimal import Decimal
from types import MappingProxyType

from .fields import Field, FieldError
from .freealg import FreePoly, GeneratorSet, format_linear_combination, format_poly, format_scalar


def circ(p: FreePoly, q: FreePoly) -> FreePoly:
    """The circle product pq + qp."""
    return p * q + q * p


def u_apply(b: FreePoly, a: FreePoly) -> FreePoly:
    """a U_b = b a b."""
    return b * a * b


def u_lin(b: FreePoly, c: FreePoly, a: FreePoly) -> FreePoly:
    """Linearized U: b a c + c a b = a U_{b+c} - a U_b - a U_c."""
    return b * a * c + c * a * b


def square(p: FreePoly) -> FreePoly:
    return p * p


#: The grammar's calls, read-only: name -> (the separator after each argument
#: but the last, the operation on the arguments' values).
CALLS = MappingProxyType({
    "rev": ((), FreePoly.reverse),
    "sym": ((), FreePoly.symmetrize),
    "sq": ((), square),
    "circ": ((",",), circ),
    "U": ((";",), u_apply),
    "Ulin": ((",", ";"), u_lin),
})

#: Names that cannot be generators.
KEYWORDS = (*CALLS, "one")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/(),;])|(?P<bad>\S))"
)


class ParseError(ValueError):
    """Syntax or semantic error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
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
            num = int(Decimal(val))  # int(str) refuses past 4300 digits; INT has no length bound
            den = 1
            if self.peek()[1] == "/":
                self.next()
                k2, v2, p2 = self.next()
                if k2 != "int":
                    raise ParseError("expected denominator digits", p2)
                den = int(Decimal(v2))
            try:
                if not den:  # before Fraction, whose own message prints num
                    raise ZeroDivisionError
                c = self.field.from_rational(num, den)
            except (ZeroDivisionError, FieldError):
                raise ParseError(f"bad scalar {Decimal(num)}/{Decimal(den)} over this field", pos) from None
            return FreePoly.constant(self.gens, self.field, c)
        if kind == "name":
            if val == "one":
                return FreePoly.one(self.gens, self.field)
            if val in CALLS:
                return self.call(val)
            try:
                return FreePoly.generator(self.gens, self.field, val)
            except KeyError:
                raise ParseError(f"unknown generator {val!r}", pos) from None
        if val == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError(f"unexpected {val or 'end of input'!r}", pos)

    def call(self, name: str) -> FreePoly:
        separators, operation = CALLS[name]
        self.expect("(")
        args = [self.expr()]
        for sep in separators:
            self.expect(sep)
            args.append(self.expr())
        self.expect(")")
        return operation(*args)


def parse_expr(text: str, gens: GeneratorSet, field: Field) -> FreePoly:
    """Parse an expression to an exact polynomial over the given generators."""
    bad = [n for n in gens.names if n in KEYWORDS]
    if bad:
        raise ValueError(f"generator names collide with keywords: {bad}")
    parser = _Parser(text, gens, field)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


def format_call(name: str, args) -> str:
    """Render the call ``name`` of ``CALLS`` on argument texts, e.g.
    ``format_call("U", ["x", "z"]) == "U(x; z)"``; parse_expr reads it back."""
    separators, _ = CALLS[name]
    rest = "".join(f"{sep} {arg}" for sep, arg in zip(separators, args[1:], strict=True))
    return f"{name}({args[0]}{rest})"
