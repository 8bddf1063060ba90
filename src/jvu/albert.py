"""A concrete 27-dimensional exceptional Jordan algebra over the rationals.

The coordinate algebra is the split octonions realized as Zorn vector
matrices [[alpha, a], [b, beta]] with alpha, beta rational and a, b rational
3-vectors; their multiplication table is integral and the norm form
alpha*beta - a.b is isotropic.  Hermitian 3x3 matrices over them, with the
product a.b = (AB + BA)/2, form the exceptional Jordan algebra.

Elements (27 numerators) and right-multiplication operators (a 27x27
numerator matrix) have one exact store: integer tuples ``num`` over one
positive ``den``, put in lowest terms by ``__init__``, so equal values have
equal, immutable stores.  All arithmetic is on integers, and a scalar read
off the store (a coordinate, t(a), n(a)) is an int when its reduced
denominator is 1 and a Fraction otherwise.

The operators are the probe's matrix reference: row i of ``r_op(a)`` is
``_product2(e_i, a)`` over 2 a.den, and operators multiply by the plain exact
product of their stores.

The checks build no operator.  They read every operator word
R_{y_1} ... R_{y_n} they compare off one packed probe P (Kronecker
substitution, cf. Harvey 2009): coordinate i of P is 2^(W i), so P R_y is one
``_product2(P, y)``, a word's image is n such products, and int j of it packs
column j of the word, entry (i, j) in slot i.  Each verdict is one ``==`` of two packed sides,
each side an integer combination of word images.

- Homogeneity.  The letters y are numerator sequences: a, b and, made from
  them by ``_product2``, A = 2 a^2, B = 2 b^2, c = 2 ab and d = 4 (ab)b.
  Every term of a compared side carries the same number of products (a word
  step is one) and the same degrees in a and in b: 16 and (2, 2) in
  [U_a, U_b] = [R_{a^2}, R_{b^2}], 8 and (1, 2) in the operator identity.
  So the denominators of a and b and the powers of 2 cancel, and the sides
  are compared on integers.
- Width.  A step by y maps a slot's column vector of max-norm m to one of
  max-norm at most K m max|y|, where K = 18 is the largest sum over i, k of
  |c_j| for the numerators c of the basis products 2(e_i . e_k).
  So every slot of a side sum_t c_t w_t is at most
  B = sum_t |c_t| K^len(w_t) prod_{y in w_t} max|y|, and the probe takes
  W = bit_length(2B) for the largest B among the sides it serves, so
  2^W > 2B: two packed sides are equal exactly when every slot is.

Each level has one product definition, a plain integer formula with no class
around it: ``zorn_mul`` (with ``zorn_conj``, ``zorn_norm`` and its
polarization ``zorn_bilinear``) on split octonions as 8-tuples, and
``_product2`` on Hermitian elements, the 27 numerators of 2(a.b) = AB + BA
from two numerator sequences.  Its diagonal entries take no octonion product:
d_i = 2 a.d_i b.d_i + n(a.o_j, b.o_j) + n(a.o_k, b.o_k), with n the polarized
norm.  ``jordan_mul`` builds its element from them once; the rows of ``r_op``
and the probe read them.

The cubic form data t, s, n is the Freudenthal determinant package; the sign
conventions are pinned by requiring the cubic characteristic identity
a^3 = t(a) a^2 - s(a) a + n(a) 1 to vanish identically, which the test suite
re-checks against all sign variants.

Zero-product pairs come from the Peirce decomposition of an idempotent e.
Subscripts are eigenvalues of L_e, multiplication by e: the 0- and 1-spaces
are the U-images J_0(e) = U_{1-e}(J) and J_1(e) = U_e(J), and
J_0(e) J_1(e) = 0.  McCrimmon indexes by the eigenvalues of V_e = 2 L_e, so
J_1(e) here is his J_2(e).  For a rank-one e, as the sampler draws, this
space is F e, so every sampled b is a multiple of e.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from .fields import field_from_name
from .linalg import Coordinates, affine_solve

DIM = 27

_QQ = field_from_name("q")


# ---------------------------------------------------------------------------
# Split octonions


def zorn_mul(x, y):
    """Zorn vector-matrix product on raw 8-coordinate tuples
    (alpha, beta, a1, a2, a3, b1, b2, b3)."""
    a1, b1, v1, v2, v3, w1, w2, w3 = x
    a2, b2, p1, p2, p3, q1, q2, q3 = y
    return (
        a1 * a2 + v1 * q1 + v2 * q2 + v3 * q3,
        b1 * b2 + w1 * p1 + w2 * p2 + w3 * p3,
        a1 * p1 + b2 * v1 - w2 * q3 + w3 * q2,
        a1 * p2 + b2 * v2 - w3 * q1 + w1 * q3,
        a1 * p3 + b2 * v3 - w1 * q2 + w2 * q1,
        a2 * w1 + b1 * q1 + v2 * p3 - v3 * p2,
        a2 * w2 + b1 * q2 + v3 * p1 - v1 * p3,
        a2 * w3 + b1 * q3 + v1 * p2 - v2 * p1,
    )


def zorn_conj(x):
    """The conjugate of a raw 8-tuple: alpha and beta swap, both vectors negate."""
    return (x[1], x[0], -x[2], -x[3], -x[4], -x[5], -x[6], -x[7])


def zorn_norm(x):
    """The norm alpha*beta - a.b of a raw 8-tuple."""
    return x[0] * x[1] - (x[2] * x[5] + x[3] * x[6] + x[4] * x[7])


def zorn_bilinear(x, y):
    """The polarized norm n(x, y) = zorn_norm(x + y) - zorn_norm(x) - zorn_norm(y),
    which is the trace of x conj(y); n(x, x) = 2 zorn_norm(x)."""
    return x[0] * y[1] + x[1] * y[0] - (
        x[2] * y[5] + x[3] * y[6] + x[4] * y[7] + x[5] * y[2] + x[6] * y[3] + x[7] * y[4]
    )


# ---------------------------------------------------------------------------
# Hermitian 3x3 elements


def _scalar(n, den: int):
    """n / den (den > 0, n an int or a Fraction) as an int when it is
    integral, else as a Fraction."""
    return n // den if n % den == 0 else Fraction(n, den)


def _content(den: int, entries) -> int:
    """The divisor, signed like den, that puts a store in lowest terms."""
    if not den:
        raise ValueError("the denominator must be nonzero")
    g = gcd(den, *entries)
    return g if den > 0 else -g


class AlbertElement:
    """A Hermitian 3x3 octonion matrix: diagonal (d1, d2, d3) and
    off-diagonal octonions (o1, o2, o3), laid out as
    [[d1, o3, conj(o2)], [conj(o3), d2, o1], [o2, conj(o1), d3]].

    Stored as the 27 integer numerators ``num`` = (d1, d2, d3, o1, o2, o3)
    over one positive denominator ``den``, in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1):
        num = tuple(num)
        if len(num) != DIM:
            raise ValueError("Albert elements have 27 coordinates")
        g = _content(den, num)
        self.num = num if g == 1 else tuple(x // g for x in num)
        self.den = den // g

    @classmethod
    def unit(cls):
        return cls((1, 1, 1) + (0,) * 24)

    @classmethod
    def basis(cls, k: int):
        num = [0] * DIM
        num[k] = 1
        return cls(num)

    def coords(self):
        return [_scalar(x, self.den) for x in self.num]

    def __add__(self, other):
        da, db = self.den, other.den
        return AlbertElement([db * x + da * y for x, y in zip(self.num, other.num)], da * db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlbertElement([-x for x in self.num], self.den)

    def scale(self, c):
        """c times self, for an int or Fraction c."""
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"expected an int or a Fraction, got {type(c).__name__} {c!r}")
        return AlbertElement([c.numerator * x for x in self.num], c.denominator * self.den)

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        return isinstance(other, AlbertElement) and self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"AlbertElement({self.num}, {self.den})"


def _product2(an, bn) -> list:
    """The 27 numerators of 2(a.b) = AB + BA over a.den b.den, from the
    numerator sequences an, bn of a and b, entry by entry in the layout of
    AlbertElement: integers in, integers out.  For each cyclic (i, j, k) of
    (0, 1, 2),

        d_i = 2 a.d_i b.d_i + n(a.o_j, b.o_j) + n(a.o_k, b.o_k),
        o_i = (a.d_j + a.d_k) b.o_i + (b.d_j + b.d_k) a.o_i
              + conj(b.o_j a.o_k + a.o_j b.o_k),

    where n(x, y) = t(x conj y) is ``zorn_bilinear``: six ``zorn_mul`` in all.
    """
    ao, bo = (an[3:11], an[11:19], an[19:27]), (bn[3:11], bn[11:19], bn[19:27])
    n = [zorn_bilinear(x, y) for x, y in zip(ao, bo)]
    d, o = [], []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d.append(2 * an[i] * bn[i] + n[j] + n[k])
        sa, sb = an[j] + an[k], bn[j] + bn[k]
        cross = zorn_conj([x + y for x, y in zip(zorn_mul(bo[j], ao[k]), zorn_mul(ao[j], bo[k]))])
        o.extend(sa * y + sb * x + c for x, y, c in zip(ao[i], bo[i], cross))
    return d + o


def jordan_mul(a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """The Jordan product (AB + BA)/2: ``_product2`` of the numerators over 2 a.den b.den."""
    return AlbertElement(_product2(a.num, b.num), 2 * a.den * b.den)


# ---------------------------------------------------------------------------
# Exact operators


class AlbertOperator:
    """An exact linear operator on Albert elements, acting on coordinate row
    vectors from the right: (x op)[j] = sum_i x[i] num[i][j] / den, with 27
    integer row tuples ``num`` over one positive ``den`` in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1):
        rows = tuple(map(tuple, num))
        if len(rows) != DIM or any(len(row) != DIM for row in rows):
            raise ValueError("Albert operators are 27x27")
        g = _content(den, chain.from_iterable(rows))
        self.num = rows if g == 1 else tuple(tuple([x // g for x in row]) for row in rows)
        self.den = den // g

    @classmethod
    def identity(cls):
        return cls([[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)])

    def __matmul__(self, other: "AlbertOperator") -> "AlbertOperator":
        """The exact product of the stores: x (self @ other) = (x self) other."""
        cols = list(zip(*other.num))
        return AlbertOperator([[sum(map(mul, row, col)) for col in cols] for row in self.num], self.den * other.den)

    def __add__(self, other: "AlbertOperator") -> "AlbertOperator":
        da, db = self.den, other.den
        num = [[db * x + da * y for x, y in zip(ra, rb)] for ra, rb in zip(self.num, other.num)]
        return AlbertOperator(num, da * db)

    def __sub__(self, other: "AlbertOperator") -> "AlbertOperator":
        return self + (-other)

    def __neg__(self):
        return self.scale_int(-1)

    def scale_int(self, k: int) -> "AlbertOperator":
        if not isinstance(k, int):
            raise TypeError(f"expected an int, got {type(k).__name__} {k!r}")
        return AlbertOperator([[k * x for x in row] for row in self.num], self.den)

    def is_zero(self) -> bool:
        return all(not x for row in self.num for x in row)

    def __eq__(self, other):
        if not isinstance(other, AlbertOperator):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def apply(self, elem: AlbertElement) -> AlbertElement:
        out = [0] * DIM
        for v, row in zip(elem.num, self.num):
            if v:
                for j, c in enumerate(row):
                    if c:
                        out[j] += v * c
        return AlbertElement(out, elem.den * self.den)


def r_op(a: AlbertElement) -> AlbertOperator:
    """The right multiplication operator x -> x.a as an exact matrix: row i
    is ``_product2`` of basis_i and a, over 2 a.den."""
    return AlbertOperator([_product2(AlbertElement.basis(i).num, a.num) for i in range(DIM)], 2 * a.den)


def u_op(a: AlbertElement) -> AlbertOperator:
    """U_a = 2 R_a^2 - R_{a^2}."""
    ra = r_op(a)
    return (ra @ ra).scale_int(2) - r_op(jordan_mul(a, a))


def _u_image(x: AlbertElement, y: AlbertElement) -> AlbertElement:
    """y U_x = 2 (y.x).x - y.x^2, equal to u_op(x).apply(y) from four
    ``jordan_mul`` calls, with no operator built."""
    return jordan_mul(jordan_mul(y, x), x).scale(2) - jordan_mul(y, jordan_mul(x, x))


# ---------------------------------------------------------------------------
# Operator words on one packed probe


#: K = max_j sum_{i,k} |c_j| over the numerators c of the basis products
#: 2(e_i . e_k): a step by a letter y multiplies a slot's max-norm by at most K max|y|
_STEP_GAIN = 18


def _letters(an, bn) -> dict:
    """The letters a, b, A = 2 a^2 and B = 2 b^2 from the numerators of a and b."""
    return {"a": an, "b": bn, "A": _product2(an, an), "B": _product2(bn, bn)}


class _Probe:
    """Packed images of operator words on one probe P (module docstring).
    ``letters`` maps a one-character letter to a numerator sequence, and the
    word "ab" is R_a R_b.  A fact is a pair (lhs, rhs) of sides, each a tuple
    of (coefficient, word) terms; P's width fits every side of ``facts``, whose
    slots are all within ``bound``.  Each word prefix is one ``_product2``,
    made once."""

    __slots__ = ("letters", "bound", "_images")

    def __init__(self, letters: dict, facts):
        norms = {y: max(map(abs, v)) for y, v in letters.items()}
        self.letters = letters
        self.bound = max(
            sum(abs(c) * _STEP_GAIN ** len(w) * prod([norms[y] for y in w]) for c, w in side)
            for fact in facts
            for side in fact
        )
        width = (2 * self.bound).bit_length()
        self._images = {"": [1 << (width * i) for i in range(DIM)]}

    def image(self, word: str) -> list:
        """P R_{word[0]} ... R_{word[-1]}: int j packs column j of the word."""
        img = self._images.get(word)
        if img is None:
            img = self._images[word] = _product2(self.image(word[:-1]), self.letters[word[-1]])
        return img

    def side(self, terms) -> list:
        """The packed image of sum c w over the (c, w) in terms."""
        images = [(c, self.image(w)) for c, w in terms]
        return [sum([c * img[j] for c, img in images]) for j in range(DIM)]

    def holds(self, fact) -> bool:
        lhs, rhs = fact
        return self.side(lhs) == self.side(rhs)


#: U_a U_b = (2 R_a^2 - R_{a^2}) (2 R_b^2 - R_{b^2}) and U_b U_a, on letters a, b, A, B
_U_AB = ((4, "aabb"), (-2, "aaB"), (-2, "Abb"), (1, "AB"))
_U_BA = ((4, "bbaa"), (-2, "bbA"), (-2, "Baa"), (1, "BA"))
_U_COMMUTE = (_U_AB, _U_BA)


# ---------------------------------------------------------------------------
# Cubic form data


def trace_form(a: AlbertElement):
    return _scalar(a.num[0] + a.num[1] + a.num[2], a.den)


def s_form(a: AlbertElement):
    """s(a) = s(a, a) / 2 = (t(a)^2 - t(a^2)) / 2."""
    return _scalar(s_bilinear(a, a), 2)


def norm_form(a: AlbertElement):
    """The Freudenthal cubic norm (the determinant of the Hermitian matrix),
    a cubic form in the numerators over den^3."""
    d1, d2, d3, o1, o2, o3 = *a.num[:3], a.num[3:11], a.num[11:19], a.num[19:27]
    triple = zorn_mul(zorn_mul(o1, o2), o3)
    n = d1 * d2 * d3 - d1 * zorn_norm(o1) - d2 * zorn_norm(o2) - d3 * zorn_norm(o3)
    return _scalar(n + triple[0] + triple[1], a.den**3)


def s_bilinear(a: AlbertElement, b: AlbertElement):
    """s(a, b) = s(a+b) - s(a) - s(b) = t(a) t(b) - t(a.b)."""
    return _scalar(trace_form(a) * trace_form(b) - trace_form(jordan_mul(a, b)), 1)


def norm_trilinear(a: AlbertElement, b: AlbertElement, c: AlbertElement):
    """n(a, b, c), the full polarization of the cubic norm."""
    return (
        norm_form(a + b + c)
        - norm_form(a + b)
        - norm_form(a + c)
        - norm_form(b + c)
        + norm_form(a)
        + norm_form(b)
        + norm_form(c)
    )


# ---------------------------------------------------------------------------
# Identity checks


def check_cubic(a: AlbertElement) -> AlbertElement:
    """Residual of a^3 - t(a) a^2 + s(a) a - n(a) 1; exactly zero on contract.
    Two ``jordan_mul`` calls: s(a) = (t(a)^2 - t(a^2)) / 2 reads the a^2 held."""
    a2, t = jordan_mul(a, a), trace_form(a)
    s = _scalar(t * t - trace_form(a2), 2)
    return jordan_mul(a2, a) - a2.scale(t) + a.scale(s) - AlbertElement.unit().scale(norm_form(a))


def check_eq1(a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """Residual of the directional linearization of the cubic identity:
    a^2 b + 2 (ab) a  vs  t(b) a^2 + 2 t(a) ab - s(a,b) a - s(a) b + n(a,a,b)/2.
    Four ``jordan_mul`` calls: s(a, b) = t(a) t(b) - t(ab) and s(a) read the ab and a^2 held."""
    a2 = jordan_mul(a, a)
    ab = jordan_mul(a, b)
    ta, tb = trace_form(a), trace_form(b)
    lhs = jordan_mul(a2, b) + jordan_mul(ab, a).scale(2)
    rhs = (
        a2.scale(tb)
        + ab.scale(2 * ta)
        - a.scale(ta * tb - trace_form(ab))
        - b.scale(_scalar(ta * ta - trace_form(a2), 2))
        + AlbertElement.unit().scale(Fraction(norm_trilinear(a, a, b), 2))
    )
    return lhs - rhs


#: R_b^2 R_a + R_a R_b^2 + R_{(ab)b} = 2 R_{ab} R_b + R_{b^2} R_a, on letters a, b, B, c, d
_OPERATOR_IDENTITY = (((1, "bba"), (1, "abb"), (1, "d")), ((2, "cb"), (1, "Ba")))


def check_operator_identity(a: AlbertElement, b: AlbertElement) -> bool:
    """R_b^2 R_a + R_a R_b^2 = -R_{(ba)b} + 2 R_{ab} R_b + R_{b^2} R_a, exactly,
    read off one probe."""
    an, bn = a.num, b.num
    ab = _product2(an, bn)  # and (ba)b = (ab)b, as ba = ab
    letters = {"a": an, "b": bn, "B": _product2(bn, bn), "c": ab, "d": _product2(ab, bn)}
    return _Probe(letters, (_OPERATOR_IDENTITY,)).holds(_OPERATOR_IDENTITY)


#: When ab = 0 the operator identity degenerates to R_b^2 R_a + R_a R_b^2 = R_{b^2} R_a
_COLLAPSE = (((1, "bba"), (1, "abb")), ((1, "Ba"),))


def zero_pair_operator_collapse(probe: _Probe) -> bool:
    """R_b^2 R_a + R_a R_b^2 = R_{b^2} R_a, read off a probe over the letters
    a, b, B whose width fits ``_COLLAPSE``."""
    return probe.holds(_COLLAPSE)


class ZeroPairChecks(NamedTuple):
    """Exact operator facts for one pair with a.b = 0, including the
    dichotomy witness: s(a,b) = 0 or a^2 b = 0 (at least one always holds)."""

    r_a2_b_commute: bool
    r_a_b2_commute: bool
    commutators_match: bool  # [U_a, U_b] = [R_{a^2}, R_{b^2}]
    u_commutator_zero: bool
    operator_collapse: bool  # R_b^2 R_a + R_a R_b^2 = R_{b^2} R_a
    s_ab_zero: bool
    a2b_zero: bool


#: The ZeroPairChecks fields that must hold on every pair, in report order:
#: all but the two dichotomy witnesses, which come last.
OPERATOR_CHECKS = ZeroPairChecks._fields[:-2]


#: The ZeroPairChecks operator facts but the collapse, on letters a, b, A, B
_ZERO_PAIR_FACTS = {
    "r_a2_b_commute": (((1, "Ab"),), ((1, "bA"),)),
    "r_a_b2_commute": (((1, "aB"),), ((1, "Ba"),)),
    "commutators_match": (_U_AB + ((1, "BA"),), _U_BA + ((1, "AB"),)),
    "u_commutator_zero": _U_COMMUTE,
}


def check_zero_pair(a: AlbertElement, b: AlbertElement) -> ZeroPairChecks:
    """All the zero-product consequences at once, every operator fact read off
    one probe over the letters a, b, A, B; see ZeroPairChecks.  Once a.b = 0
    is checked, s(a, b) = t(a) t(b) - t(a.b) is t(a) t(b)."""
    if any(_product2(a.num, b.num)):
        raise ValueError("precondition a.b = 0 violated")
    letters = _letters(a.num, b.num)
    probe = _Probe(letters, (*_ZERO_PAIR_FACTS.values(), _COLLAPSE))
    return ZeroPairChecks(
        **{k: probe.holds(fact) for k, fact in _ZERO_PAIR_FACTS.items()},
        operator_collapse=zero_pair_operator_collapse(probe),
        s_ab_zero=trace_form(a) * trace_form(b) == 0,
        a2b_zero=not any(_product2(letters["A"], b.num)),
    )


# ---------------------------------------------------------------------------
# Sampling


def random_element(rng: random.Random) -> AlbertElement:
    """Uniform integer coordinates in [-9, 9]."""
    return AlbertElement([rng.randint(-9, 9) for _ in range(DIM)])


def left_kernel(op: AlbertOperator) -> list[list[Fraction]]:
    """Basis of {v : v op = 0} (row vectors), exact over the rationals."""
    cols = [Coordinates(tuple(j for j, x in enumerate(row) if x), tuple(filter(None, row)), op.den, DIM, _QQ)
            for row in op.num]
    return affine_solve(cols, Coordinates((), (), 1, DIM, _QQ)).homogeneous


def _integral(x: AlbertElement) -> AlbertElement:
    """The numerators of x with their content divided out (the checks are
    scale-invariant)."""
    return AlbertElement(x.num, gcd(*x.num) or 1)


def sample_zero_pair(rng: random.Random) -> tuple[AlbertElement, AlbertElement]:
    """A pair (a, b) with a.b = 0, via Peirce decomposition, drawn from rng
    (reproducible for a seeded one).

    Builds a rank-one element c = U_w(e11) from a random integer w; if
    c^2 = t(c) c, then e = c / t(c) is idempotent and a = U_{t(c) 1 - c}(r1),
    b = U_c(r2) for random integer r1, r2 are t(c)^2 times points of the
    Peirce spaces J_0(e) = U_{1-e}(J) and J_1(e) = U_e(J), whose product is
    zero (subscripts are eigenvalues of L_e: J_1(e) is McCrimmon's J_2(e)).
    As e has rank one, J_1(e) = F e, so b is always a multiple of e.
    Content is divided out, and the result is re-verified exactly before
    returning.  Retries on degenerate draws and aborts after 100 attempts.
    """
    e11 = AlbertElement.basis(0)
    unit = AlbertElement.unit()
    for _ in range(100):
        w = random_element(rng)
        c = _integral(_u_image(w, e11))
        tc = trace_form(c)
        if tc == 0 or jordan_mul(c, c) != c.scale(tc):
            continue
        a = _integral(_u_image(unit.scale(tc) - c, random_element(rng)))
        b = _integral(_u_image(c, random_element(rng)))
        if a.is_zero() or b.is_zero():
            continue
        if not jordan_mul(a, b).is_zero():
            raise AssertionError("Peirce sampling produced a nonzero product")
        return a, b
    raise RuntimeError("no zero pair found in 100 attempts")


#: random pairs tried by find_noncommuting_pair before giving up
NONCOMMUTING_ATTEMPTS = 50


def find_noncommuting_pair(rng: random.Random):
    """A pair with a.b != 0 and [U_a, U_b] != 0 (shows the checks are not vacuous)."""
    for _ in range(NONCOMMUTING_ATTEMPTS):
        a, b = random_element(rng), random_element(rng)
        if not any(_product2(a.num, b.num)):
            continue
        if not _Probe(_letters(a.num, b.num), (_U_COMMUTE,)).holds(_U_COMMUTE):
            return a, b
    raise RuntimeError("no noncommuting pair found")
