"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` for the rationals,
``int`` residues in ``[0, p)`` for GF(p).  A :class:`Field` handle owns the
operations; everything downstream is generic over it.  All arithmetic is
exact, there is no floating-point mode.  ``field_from_name`` is the one
validated constructor: it takes the names reports echo, ``q`` and ``gf<p>``.
"""

from __future__ import annotations

import re
from fractions import Fraction

# GF(p) residues are machine integers; everything needed here fits far below this.
_MAX_PRIME = 2**31


class FieldError(ValueError):
    """Invalid field descriptor or operand from the wrong field."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Handle for an exact field: the rationals (characteristic 0) or GF(p).

    Scalars are canonical by construction: Fractions are reduced with a
    positive denominator, residues lie in ``[0, p)``.  Membership tests
    elsewhere rely on that exact-zero canonicalization.
    """

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int):
        self.characteristic = characteristic
        self.zero = 0 if characteristic else Fraction(0)
        self.one = 1 if characteristic else Fraction(1)

    def __repr__(self):
        if not self.characteristic:
            return "Field(Q)"
        return f"Field(GF({self.characteristic}))"

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    def from_int(self, n: int):
        """Image of the integer n in this field."""
        if not self.characteristic:
            return Fraction(n)
        return n % self.characteristic

    def from_rational(self, num: int, den: int = 1):
        """Image of num/den; over GF(p) the denominator is inverted mod p."""
        if not self.characteristic:
            return Fraction(num, den)
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def require_exact(self, values):
        """Raise FieldError unless every value is a canonical exact scalar of
        this field: an int or a Fraction over Q, an int in [0, p) over GF(p)."""
        p = self.characteristic
        for a in values:
            if not (isinstance(a, int) and 0 <= a < p if p else isinstance(a, (int, Fraction))):
                raise FieldError(f"expected an exact scalar over {self!r}, got {type(a).__name__} {a!r}")

    def add(self, a, b):
        if not self.characteristic:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if not self.characteristic:
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a, b):
        if not self.characteristic:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a):
        if not self.characteristic:
            return -a
        return (-a) % self.characteristic

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if not self.characteristic:
            return self.one / a  # a Fraction for int a too, never a float
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not a


def field_from_name(name: str) -> Field:
    """Parse a field name as used on the command line: ``q``, ``gf2``, ``gf5``, ...

    Only the canonical spelling is accepted (ASCII digits, no leading zero,
    no sign or space), so each field has one name and reports echo it.  The
    modulus must be a prime below 2^31."""
    if name == "q":
        return Field(0)
    if re.fullmatch(r"gf[1-9][0-9]*", name):
        if len(name) - 2 > len(str(_MAX_PRIME)):  # refused before int() reads a number of any length
            raise FieldError(f"modulus too large: {len(name) - 2} digits")
        p = int(name[2:])
        if p >= _MAX_PRIME:
            raise FieldError(f"modulus too large: {p}")
        if not _is_prime(p):
            raise FieldError(f"prime-field modulus must be prime, got {p}")
        return Field(p)
    raise FieldError(f"bad field name {name!r} (expected q or gf<p>)")

