"""The free associative algebra F<X> on named generators.

Words are tuples of generator indices; polynomials are sparse maps from
words to nonzero scalars of a :class:`~jvu.fields.Field`.  The reversal
involution ``*`` fixes generators and reverses words; the symmetrizer
``{u} = u + u*`` produces the symmetric elements out of which the special
Jordan algebra is built.

Words of equal multidegree all have the same length, so the degree-then-
lexicographic order used throughout is just tuple order within a component.
``format_poly`` writes a polynomial in the grammar that :mod:`jvu.expr` parses.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .fields import Field

Word = tuple[int, ...]
MultiDegree = tuple[int, ...]


class GeneratorSet:
    """An ordered set of distinct generator names; the order fixes multidegree
    coordinates and the deglex word order."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"generator names must be distinct: {names}")
        if not names:
            raise ValueError("need at least one generator")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"GeneratorSet({', '.join(self.names)})"

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r} (have {', '.join(self.names)})")
        return self._index[name]

    def word_multidegree(self, word: Word) -> MultiDegree:
        counts = [0] * len(self.names)
        for i in word:
            counts[i] += 1
        return tuple(counts)


class FreePoly:
    """A sparse noncommutative polynomial: word -> nonzero scalar.

    Stored as ints ``num``, a read-only map from word to nonzero int, over one
    positive ``den``: over Q the numerators in lowest terms, gcd(den, *num) = 1;
    over GF(p) the residues in [0, p), over den = 1.  The store is canonical on
    construction, so equality compares stores and p - p is the empty
    polynomial.  ``terms`` is a read-only view of it in field scalars; given
    terms must be exact scalars.
    """

    __slots__ = ("gens", "field", "den", "num")

    def __init__(self, gens: GeneratorSet, field: Field, terms=None):
        terms = terms or {}
        field.require_exact(terms.values())
        if field.characteristic:
            den, num = 1, {w: c for w, c in terms.items() if c}
        else:  # the lcm of reduced denominators leaves the numerators coprime to it
            den = lcm(*[c.denominator for c in terms.values()])
            num = {w: c.numerator * (den // c.denominator) for w, c in terms.items() if c}
        self.gens, self.field, self.den, self.num = gens, field, den, MappingProxyType(num)

    def _with(self, num: dict, den: int = 1) -> "FreePoly":
        """A polynomial over the same generators and field whose store is
        ``num`` (no zero) over ``den``, put in lowest terms."""
        if den != 1 and (g := gcd(den, *num.values())) != 1:
            num = {w: n // g for w, n in num.items()}
            den //= g
        out = FreePoly.__new__(FreePoly)
        out.gens, out.field, out.den, out.num = self.gens, self.field, den, MappingProxyType(num)
        return out

    @property
    def terms(self):
        """word -> nonzero field scalar, read-only: a Fraction over Q, a residue over GF(p)."""
        if self.field.characteristic:
            return self.num
        den = self.den
        return MappingProxyType({w: Fraction(n, den) for w, n in self.num.items()})

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, gens: GeneratorSet, field: Field) -> "FreePoly":
        """The empty word with coefficient 1 (the unit of F<X>)."""
        return cls(gens, field, {(): field.one})

    @classmethod
    def generator(cls, gens: GeneratorSet, field: Field, name: str) -> "FreePoly":
        return cls(gens, field, {(gens.index(name),): field.one})

    @classmethod
    def from_word(cls, gens: GeneratorSet, field: Field, word: Word) -> "FreePoly":
        return cls(gens, field, {tuple(word): field.one})

    @classmethod
    def constant(cls, gens: GeneratorSet, field: Field, c) -> "FreePoly":
        return cls(gens, field, {(): c})

    def _compat(self, other: "FreePoly"):
        if self.gens is not other.gens and self.gens != other.gens:
            raise ValueError("mismatched generator sets")
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mismatched fields")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "FreePoly") -> "FreePoly":
        """The sum over lcm(den, other.den); one ``% p`` per word over GF(p)."""
        self._compat(other)
        p = self.field.characteristic
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        num = {w: n * a for w, n in self.num.items()} if a != 1 else dict(self.num)
        get = num.get
        for w, n in other.num.items():
            s = get(w, 0) + n * b
            if p:
                s %= p
            if s:
                num[w] = s
            else:  # n * b is nonzero, so w was there
                del num[w]
        return self._with(num, den)

    def __neg__(self) -> "FreePoly":
        p = self.field.characteristic
        return self._with({w: p - n if p else -n for w, n in self.num.items()}, self.den)

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self + (-other)

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        """Each product word's coefficient is summed as an int from the two
        stores, over den * other.den; one ``% p`` per word over GF(p)."""
        self._compat(other)
        sums: dict = {}
        get = sums.get
        right = other.num.items()
        for w1, c1 in self.num.items():
            for w2, c2 in right:
                w = w1 + w2
                sums[w] = get(w, 0) + c1 * c2
        if p := self.field.characteristic:
            return self._with({w: r for w, s in sums.items() if (r := s % p)})
        return self._with({w: s for w, s in sums.items() if s}, self.den * other.den)

    def scale(self, c) -> "FreePoly":
        self.field.require_exact([c])
        p, a = self.field.characteristic, c.numerator
        num = {w: n * a % p if p else n * a for w, n in self.num.items()} if a else {}
        return self._with(num, self.den * c.denominator)

    def __eq__(self, other):
        return (
            isinstance(other, FreePoly)
            and self.gens == other.gens
            and self.field == other.field
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.gens, self.field, self.den, frozenset(self.num.items())))

    def is_zero(self) -> bool:
        return not self.num

    # -- involution and grading ---------------------------------------------

    def reverse(self) -> "FreePoly":
        """The involution *: reverse every word, keep coefficients."""
        return self._with({w[::-1]: n for w, n in self.num.items()}, self.den)

    def symmetrize(self) -> "FreePoly":
        """{p} = p + p*, in one pass over the store: each word's int is added
        at its reverse, one ``% p`` per word over GF(p); always a fixed point
        of reverse."""
        p = self.field.characteristic
        num = dict(self.num)
        get = num.get
        for w, n in self.num.items():
            r = w[::-1]
            s = get(r, 0) + n
            if p:
                s %= p
            if s:
                num[r] = s
            else:  # n is nonzero, so r was there
                del num[r]
        return self._with(num, self.den)

    def component(self, d: MultiDegree) -> "FreePoly":
        """The sub-sum of terms of multidegree exactly d."""
        d = tuple(d)
        multidegree = self.gens.word_multidegree
        return self._with({w: n for w, n in self.num.items() if multidegree(w) == d}, self.den)

    def is_homogeneous(self, d: MultiDegree) -> bool:
        d = tuple(d)
        return all(self.gens.word_multidegree(w) == d for w in self.num)

    def multidegree(self) -> MultiDegree | None:
        """The common multidegree of all terms, or None if mixed or zero."""
        degs = {self.gens.word_multidegree(w) for w in self.num}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self):
        """Terms in deglex order (degree, then lexicographic in generator indices)."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        return "*".join(self.gens.names[i] for i in word)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"FreePoly({self})"


# ---------------------------------------------------------------------------
# Formatting in the expression grammar (``jvu.expr`` parses it back)


def format_scalar(c, field: Field) -> str:
    """c in the grammar's digits; a Q numerator or denominator of any length
    prints through Decimal, which str(int) refuses past 4300 digits."""
    if field.characteristic:
        return str(c)
    if c.denominator == 1:
        return str(Decimal(c.numerator))
    return f"{Decimal(c.numerator)}/{Decimal(c.denominator)}"


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
