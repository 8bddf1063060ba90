"""Exact field arithmetic over Q and GF(p)."""

import random
from fractions import Fraction

import pytest

from conftest import rand_nonzero_scalar, rand_scalar
from jvu.fields import FieldError, field_from_name

QQ = field_from_name("q")
GF2 = field_from_name("gf2")
GF5 = field_from_name("gf5")


def test_field_name_construction():
    assert field_from_name("gf2").characteristic == 2
    assert field_from_name("q").characteristic == 0


def test_field_name_rejects_nonprime():
    with pytest.raises(FieldError, match=r"^prime-field modulus must be prime, got 4$"):
        field_from_name("gf4")
    with pytest.raises(FieldError, match=r"^prime-field modulus must be prime, got 1$"):
        field_from_name("gf1")
    with pytest.raises(FieldError):
        field_from_name("bogus")


def test_field_from_name_refusals():
    """field_from_name is the one constructor: it refuses a modulus of 2^31
    or more and takes 2^31 - 1; the words "rationals" and "prime-field" are
    not field names."""
    with pytest.raises(FieldError, match=r"^modulus too large: 2147483648$"):
        field_from_name("gf2147483648")
    assert field_from_name("gf2147483647").characteristic == 2**31 - 1
    for name in ("rationals", "prime-field"):
        with pytest.raises(FieldError, match="bad field name"):
            field_from_name(name)


def test_field_from_name():
    assert field_from_name("q") == QQ
    assert field_from_name("gf2") == GF2
    assert field_from_name("gf97").characteristic == 97
    with pytest.raises(FieldError):
        field_from_name("gf6")
    with pytest.raises(FieldError):
        field_from_name("float")
    # non-canonical spellings of GF(11), GF(3) and GF(2) would echo different
    # names in reports for one field
    for name in ("gf1_1", "gf\u0663", "gf02", "gf+2", "gf2 ", " gf2", "gf2\n", "GF2", "gf"):
        with pytest.raises(FieldError):
            field_from_name(name)


def test_rational_add():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_gf2_add_wraps():
    assert GF2.add(1, 1) == 0


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_require_exact_rejects_operand_from_other_field():
    with pytest.raises(FieldError):
        GF2.require_exact([Fraction(1, 2)])


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_field_axioms_random(field):
    """Associativity, commutativity, distributivity, inverses: 50 random triples."""
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (rand_scalar(rng, field) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.is_zero(field.add(a, field.neg(a)))
        n = rand_nonzero_scalar(rng, field)
        assert field.mul(n, field.inv(n)) == field.one


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_canonical_form_unique(field):
    """Equal values compare equal after canonicalization."""
    rng = random.Random(2)
    for _ in range(50):
        a = rand_scalar(rng, field)
        b = field.sub(field.add(a, field.one), field.one)
        assert a == b
        field.require_exact([a])


def test_gf2_negation_is_identity():
    """Over GF(2) the map x -> -x is the identity (char-2 degeneration)."""
    for x in (0, 1):
        assert GF2.neg(x) == x


def test_from_rational_over_prime_field():
    assert GF5.from_rational(1, 2) == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        GF2.from_rational(1, 2)


def test_rational_inverse_of_int_is_exact():
    """Over Q an int operand inverts to a Fraction, never a float; zero still fails."""
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.div(1, 4)) is Fraction
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
