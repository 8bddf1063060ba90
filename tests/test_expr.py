"""The expression grammar and the canonical formatter round-trip."""

import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from jvu.expr import (
    CALLS,
    KEYWORDS,
    ParseError,
    _tokenize,
    format_call,
    format_linear_combination,
    format_poly,
    parse_expr,
    u_lin,
)
from jvu.fields import field_from_name
from jvu.freealg import FreePoly, GeneratorSet
from jvu.jordan import circ, u_apply

QQ = field_from_name("q")
GF2 = field_from_name("gf2")
GF5 = field_from_name("gf5")

G3 = GeneratorSet(("x", "y", "z"))
G4 = GeneratorSet(("x", "y", "z", "t"))


def gen(gens, field, name):
    return FreePoly.generator(gens, field, name)


def test_parse_circle_product():
    x, y = gen(G3, QQ, "x"), gen(G3, QQ, "y")
    assert parse_expr("x*y + y*x", G3, QQ) == circ(x, y)
    assert parse_expr("circ(x, y)", G3, QQ) == circ(x, y)


def test_parse_symmetrized_witness():
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    expected = (circ(x, y) * z * x * y).symmetrize()
    assert parse_expr("sym((x*y + y*x)*z*x*y)", G3, QQ) == expected


def test_parse_u_operator():
    x, z = gen(G3, QQ, "x"), gen(G3, QQ, "z")
    assert parse_expr("U(x; z)", G3, QQ) == x * z * x
    assert parse_expr("Ulin(x, z; y)", G3, QQ) == u_lin(x, z, gen(G3, QQ, "y"))
    assert parse_expr("U(one; z)", G3, QQ) == z


def test_parse_scalars_and_precedence():
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    assert parse_expr("2*x", G3, QQ) == x.scale(Fraction(2))
    assert parse_expr("1/2*x*y", G3, QQ) == (x * y).scale(Fraction(1, 2))
    assert parse_expr("-x + x", G3, QQ).is_zero()
    assert parse_expr("x - (x - y)", G3, QQ) == y
    assert parse_expr("3/2", G3, QQ) == FreePoly.constant(G3, QQ, Fraction(3, 2))
    assert parse_expr("sq(x + y)", G3, QQ) == (x + y) * (x + y)
    assert parse_expr("rev(x*y*z)", G3, QQ) == (x * y * z).reverse()


def test_parse_scalar_inversion_mod_p():
    x = gen(G3, GF5, "x")
    assert parse_expr("1/2*x", G3, GF5) == x.scale(3)  # 1/2 = 3 mod 5
    with pytest.raises(ParseError):
        parse_expr("1/2*x", G3, GF2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_expr("x + ", G3, QQ)
    assert e.value.pos == 4
    with pytest.raises(ParseError) as e:
        parse_expr("x @ y", G3, QQ)
    assert e.value.pos == 2
    with pytest.raises(ParseError):
        parse_expr("w + x", G3, QQ)  # unknown generator
    with pytest.raises(ParseError):
        parse_expr("circ(x y)", G3, QQ)
    with pytest.raises(ParseError):
        parse_expr("U(x, z)", G3, QQ)  # needs the semicolon
    with pytest.raises(ParseError):
        parse_expr("x y", G3, QQ)  # missing operator


X_PLUS_Y = [("name", "x", 1), ("sym", "+", 3), ("name", "y", 5), ("end", "", 7)]


@pytest.mark.parametrize(
    "text,tokens",
    [
        ("", [("end", "", 0)]),
        (" ", [("end", "", 1)]),
        ("\t\r\x1c\xa0", [("end", "", 4)]),
        *[(f"{w}x{w}+{w}y{w}", X_PLUS_Y) for w in ("\t", "\r", "\x1c", "\xa0")],
        ("007*x", [("int", "007", 0), ("sym", "*", 3), ("name", "x", 4), ("end", "", 5)]),
        ("12x", [("int", "12", 0), ("name", "x", 2), ("end", "", 3)]),
    ],
)
def test_tokenize_edge_inputs(text, tokens):
    """Any Unicode whitespace separates tokens, and an int is ASCII digits."""
    assert _tokenize(text) == tokens


@pytest.mark.parametrize(
    "text,char,pos",
    [
        ("\xe9", "\xe9", 0),
        ("x + \xe9", "\xe9", 4),
        ("#", "#", 0),
        ("x # y", "#", 2),
        ("  \t#", "#", 3),
        ("\u0663*x", "\u0663", 0),
    ],
)
def test_tokenize_refuses_other_characters(text, char, pos):
    with pytest.raises(ParseError) as e:
        _tokenize(text)
    assert (str(e.value), e.value.pos) == (f"unexpected character {char!r} (at position {pos})", pos)


def test_keyword_generator_names_rejected():
    with pytest.raises(ValueError):
        parse_expr("one", GeneratorSet(("one", "x")), QQ)


def test_format_examples():
    x, y = gen(G3, QQ, "x"), gen(G3, QQ, "y")
    assert format_poly(FreePoly(G3, QQ)) == "0"
    assert format_poly(x * y - y * x) == "x*y - y*x"
    assert format_poly(x.scale(Fraction(-1, 2))) == "-1/2*x"
    assert format_poly(FreePoly.one(G3, QQ)) == "1"
    p = gen(G3, GF2, "x") * gen(G3, GF2, "y")
    assert format_poly(p) == "x*y"


def test_format_parse_round_trip_random():
    rng = random.Random(50)
    for field in (QQ, GF2, GF5):
        for _ in range(50):
            p = rand_poly(rng, G4, field)
            assert parse_expr(format_poly(p), G4, field) == p


def test_format_linear_combination_parses_back():
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    terms = [
        (Fraction(1), "circ(x, y)"),
        (Fraction(-2), "U(x; z)"),
        (Fraction(1, 3), "z"),
    ]
    text = format_linear_combination(terms, QQ)
    expected = circ(x, y) - u_apply(x, z).scale(Fraction(2)) + z.scale(Fraction(1, 3))
    assert parse_expr(text, G3, QQ) == expected
    assert format_linear_combination([], QQ) == "0"
    assert format_linear_combination([(QQ.zero, "x")], QQ) == "0"


@pytest.mark.parametrize("name", sorted(CALLS))
def test_format_call_round_trips_through_the_table(name):
    """Each call renders from ``CALLS`` and parses back to the table's
    operation on its parsed arguments, over Q, GF(2) and GF(5)."""
    rng = random.Random(51)
    separators, operation = CALLS[name]
    for field in (QQ, GF2, GF5):
        for _ in range(10):
            texts = [format_poly(rand_poly(rng, G4, field, max_len=2)) for _ in range(len(separators) + 1)]
            args = [parse_expr(t, G4, field) for t in texts]
            assert parse_expr(format_call(name, texts), G4, field) == operation(*args)


def test_format_call_shapes_and_keywords():
    assert format_call("U", ["x", "z"]) == "U(x; z)"
    assert format_call("Ulin", ["x", "y", "z"]) == "Ulin(x, y; z)"
    assert format_call("sq", ["x + y"]) == "sq(x + y)"
    with pytest.raises(ValueError):
        format_call("circ", ["x"])
    assert KEYWORDS == (*CALLS, "one")
