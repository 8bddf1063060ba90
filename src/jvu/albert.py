"""A concrete 27-dimensional exceptional Jordan algebra over the rationals.

The coordinate algebra is the split octonions realized as Zorn vector
matrices [[alpha, a], [b, beta]] with alpha, beta rational and a, b rational
3-vectors; their multiplication table is integral and the norm form
alpha*beta - a.b is isotropic.  Hermitian 3x3 matrices over them, with the
product a.b = (AB + BA)/2, form the exceptional Jordan algebra.

Elements (27 numerators) and right-multiplication operators (a 27x27
numerator matrix) have one exact store: integer tuples ``num`` over one
positive ``den``, put in lowest terms by the constructor, so equal values have
equal, immutable stores and each operator verdict is one ``==`` or ``!=`` of
them (terms move across the equation; none is subtracted).  All arithmetic is
on integers, and a scalar read off the store (a coordinate, t(a), n(a)) is an
int when its reduced denominator is 1 and a Fraction otherwise.

Operators multiply by Kronecker substitution (cf. Harvey 2009): each row of
the right factor is packed into one int of 27 signed 64-bit words, and each
row of the product is one sum of 27 big-int multiples of those packed rows,
read back as 27 words.  Every product entry c has |c| <= 27 max|a| max|b|,
each max scanned once per operator; while that bound and the right factor's
entries fit signed words, no carry crosses a word.  A row packs by one
``struct`` pack and one ``int.from_bytes``, a product row reads back by one
``to_bytes`` and one unpack, and XOR with 2^63 in each word turns
two's-complement words into offset ones and back.  Entries past a word take
the plain exact product of the stores instead; no verb reaches it.  The
structure constants of ``r_op`` are read off ``_product2`` by the same word
reader: coordinate k of 2(e_i . P), for the probe P with coordinate j equal
to 2^(64j), is sum_j T[i][j][k] 2^(64j) with T[i][j] = 2(e_i . e_j), whose
entries lie in [-2, 2], so 27 products fill the table.  Results the
operators compute skip the constructor's shape check, and its gcd when den
is 1.

Each level has one product definition.  A split octonion is a plain
8-tuple with no class around it, and ``zorn_mul``, ``zorn_conj`` and
``zorn_norm`` are its whole arithmetic.  For Hermitian elements it is
``_product2``, the closed-form entries of 2(a.b) = AB + BA on the numerators,
which ``jordan_mul`` and the structure constants of ``r_op`` read.

The cubic form data t, s, n is the Freudenthal determinant package; the sign
conventions are pinned by requiring the cubic characteristic identity
a^3 = t(a) a^2 - s(a) a + n(a) 1 to vanish identically, which the test suite
re-checks against all sign variants.

Zero-product pairs come from the Peirce decomposition of an idempotent e:
the 0- and 1-spaces are the U-images J_0(e) = U_{1-e}(J) and J_1(e) = U_e(J),
and J_0(e) J_1(e) = 0.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

from .fields import RATIONALS, make_field
from .linalg import affine_solve

DIM = 27

_QQ = make_field(RATIONALS)


# ---------------------------------------------------------------------------
# Split octonions


def zorn_mul(x, y):
    """Zorn vector-matrix product on raw 8-coordinate tuples
    (alpha, beta, a1, a2, a3, b1, b2, b3)."""
    a1, b1 = x[0], x[1]
    v1, w1 = x[2:5], x[5:8]
    a2, b2 = y[0], y[1]
    v2, w2 = y[2:5], y[5:8]
    dot_vw = v1[0] * w2[0] + v1[1] * w2[1] + v1[2] * w2[2]
    dot_wv = w1[0] * v2[0] + w1[1] * v2[1] + w1[2] * v2[2]
    cross_ww = (
        w1[1] * w2[2] - w1[2] * w2[1],
        w1[2] * w2[0] - w1[0] * w2[2],
        w1[0] * w2[1] - w1[1] * w2[0],
    )
    cross_vv = (
        v1[1] * v2[2] - v1[2] * v2[1],
        v1[2] * v2[0] - v1[0] * v2[2],
        v1[0] * v2[1] - v1[1] * v2[0],
    )
    return (
        a1 * a2 + dot_vw,
        b1 * b2 + dot_wv,
        a1 * v2[0] + b2 * v1[0] - cross_ww[0],
        a1 * v2[1] + b2 * v1[1] - cross_ww[1],
        a1 * v2[2] + b2 * v1[2] - cross_ww[2],
        a2 * w1[0] + b1 * w2[0] + cross_vv[0],
        a2 * w1[1] + b1 * w2[1] + cross_vv[1],
        a2 * w1[2] + b1 * w2[2] + cross_vv[2],
    )


def zorn_conj(x):
    """The conjugate of a raw 8-tuple: alpha and beta swap, both vectors negate."""
    return (x[1], x[0], -x[2], -x[3], -x[4], -x[5], -x[6], -x[7])


def zorn_norm(x):
    """The norm alpha*beta - a.b of a raw 8-tuple."""
    return x[0] * x[1] - (x[2] * x[5] + x[3] * x[6] + x[4] * x[7])


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
    def diag_idempotent(cls, i: int):
        return cls([int(k == i) for k in range(3)] + [0] * 24)

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


def _product2(a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """2(a.b) = AB + BA of Hermitian matrices on the numerators of a and b,
    over the product of their denominators, entry by entry in the layout of
    AlbertElement: integer coordinates give integer coordinates.  For each
    cyclic (i, j, k) of (0, 1, 2),

        d_i = 2 a.d_i b.d_i + t(a.o_j conj b.o_j) + t(a.o_k conj b.o_k),
        o_i = (a.d_j + a.d_k) b.o_i + (b.d_j + b.d_k) a.o_i
              + conj(b.o_j a.o_k + a.o_j b.o_k).
    """
    an, bn = a.num, b.num
    ao, bo = (an[3:11], an[11:19], an[19:27]), (bn[3:11], bn[11:19], bn[19:27])
    d, o = [], []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        pj = zorn_mul(ao[j], zorn_conj(bo[j]))
        pk = zorn_mul(ao[k], zorn_conj(bo[k]))
        d.append(2 * an[i] * bn[i] + pj[0] + pj[1] + pk[0] + pk[1])
        sa, sb = an[j] + an[k], bn[j] + bn[k]
        cross = zorn_conj([x + y for x, y in zip(zorn_mul(bo[j], ao[k]), zorn_mul(ao[j], bo[k]))])
        o.extend(sa * y + sb * x + c for x, y, c in zip(ao[i], bo[i], cross))
    return AlbertElement(d + o, a.den * b.den)


def jordan_mul(a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """The Jordan product (AB + BA)/2: ``_product2`` over twice its denominator."""
    p = _product2(a, b)
    return AlbertElement(p.num, 2 * p.den)


# ---------------------------------------------------------------------------
# Exact operators


#: DIM signed 64-bit words, and the 64-bit bias 2^63 in each of them
_WORDS = struct.Struct(f"<{DIM}q")
_TOPS = int.from_bytes(_WORDS.pack(*[-(1 << 63)] * DIM), "little")


def _words(acc: int) -> tuple:
    """(c_0, ..., c_26) read off acc = sum_j c_j 2^(64j), every c_j a signed 64-bit word."""
    return _WORDS.unpack(((acc + _TOPS) ^ _TOPS).to_bytes(_WORDS.size, "little"))


class AlbertOperator:
    """An exact linear operator on Albert elements, acting on coordinate row
    vectors from the right: (x op)[j] = sum_i x[i] num[i][j] / den, with 27
    integer row tuples ``num`` over one positive ``den`` in lowest terms."""

    __slots__ = ("num", "den", "_peak")

    def __init__(self, num, den: int = 1):
        rows = tuple(map(tuple, num))
        if len(rows) != DIM or any(len(row) != DIM for row in rows):
            raise ValueError("Albert operators are 27x27")
        self._store(rows, den, _content(den, chain.from_iterable(rows)))

    @classmethod
    def _computed(cls, rows: tuple, den: int) -> "AlbertOperator":
        """27 int row tuples computed here, over den > 0: no shape check, and a gcd only if den != 1."""
        op = cls.__new__(cls)
        op._store(rows, den, 1 if den == 1 else gcd(den, *chain.from_iterable(rows)))
        return op

    def _store(self, rows: tuple, den: int, g: int):
        self.num = rows if g == 1 else tuple(tuple([x // g for x in row]) for row in rows)
        self.den, self._peak = den // g, None

    def _max_abs(self) -> int:
        """The largest |entry| of ``num``, scanned on first use only."""
        if self._peak is None:
            self._peak = max(map(abs, chain.from_iterable(self.num)))
        return self._peak

    @classmethod
    def identity(cls):
        return cls([[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)])

    def __matmul__(self, other: "AlbertOperator") -> "AlbertOperator":
        """The exact product by Kronecker substitution (see the module
        docstring): row i is read off sum_k self.num[i][k] * packed[k], where
        packed[k] is row k of ``other.num`` in 64-bit words.  Entries past a
        word take the plain product of the stores."""
        w = (DIM * self._max_abs() * other._max_abs()).bit_length() + 1
        if w <= 64 and other._max_abs() < 1 << 63:
            packed = [(int.from_bytes(_WORDS.pack(*row), "little") ^ _TOPS) - _TOPS for row in other.num]
            num = tuple([_words(sum(map(mul, row, packed))) for row in self.num])
        else:
            cols = list(zip(*other.num))
            num = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.num])
        return AlbertOperator._computed(num, self.den * other.den)

    def __add__(self, other: "AlbertOperator") -> "AlbertOperator":
        da, db = self.den, other.den
        num = tuple(tuple([db * x + da * y for x, y in zip(ra, rb)]) for ra, rb in zip(self.num, other.num))
        return AlbertOperator._computed(num, da * db)

    def __sub__(self, other: "AlbertOperator") -> "AlbertOperator":
        da, db = self.den, other.den
        num = tuple(tuple([db * x - da * y for x, y in zip(ra, rb)]) for ra, rb in zip(self.num, other.num))
        return AlbertOperator._computed(num, da * db)

    def __neg__(self):
        return self.scale_int(-1)

    def scale_int(self, k: int) -> "AlbertOperator":
        if not isinstance(k, int):
            raise TypeError(f"expected an int, got {type(k).__name__} {k!r}")
        return AlbertOperator._computed(tuple(tuple([k * x for x in row]) for row in self.num), self.den)

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


@functools.cache
def _structure_constants() -> tuple:
    """Sparse rows of T[i][j] = 2(basis_i . basis_j), each a tuple of
    (k, coefficient) pairs, built on first use from one ``_product2`` of
    basis_i and a probe, read by ``_words`` (see the module docstring)."""
    probe = AlbertElement([1 << (64 * j) for j in range(DIM)])
    table = []
    for i in range(DIM):
        rows = [[] for _ in range(DIM)]
        for k, v in enumerate(_product2(AlbertElement.basis(i), probe).num):
            if v:
                for row, c in zip(rows, _words(v)):
                    if c:
                        row.append((k, c))
        table.append(tuple(map(tuple, rows)))
    return tuple(table)


def r_op(a: AlbertElement) -> AlbertOperator:
    """The right multiplication operator x -> x.a as an exact matrix."""
    sc = _structure_constants()
    num = []
    for i in range(DIM):
        row = [0] * DIM
        sci = sc[i]
        for k, v in enumerate(a.num):
            if v:
                for j, c in sci[k]:
                    row[j] += v * c
        num.append(tuple(row))
    return AlbertOperator._computed(tuple(num), 2 * a.den)


def u_op(a: AlbertElement) -> AlbertOperator:
    """U_a = 2 R_a^2 - R_{a^2}."""
    ra = r_op(a)
    return (ra @ ra).scale_int(2) - r_op(jordan_mul(a, a))


def _u_image(x: AlbertElement, y: AlbertElement) -> AlbertElement:
    """y U_x = 2 (y.x).x - y.x^2, equal to u_op(x).apply(y) from four
    ``jordan_mul`` calls, with no operator built."""
    return jordan_mul(jordan_mul(y, x), x).scale(2) - jordan_mul(y, jordan_mul(x, x))


# ---------------------------------------------------------------------------
# Cubic form data


def trace_form(a: AlbertElement):
    return _scalar(a.num[0] + a.num[1] + a.num[2], a.den)


def s_form(a: AlbertElement):
    """s(a) = (t(a)^2 - t(a^2)) / 2."""
    t = trace_form(a)
    return _scalar(t * t - trace_form(jordan_mul(a, a)), 2)


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
    """Residual of a^3 - t(a) a^2 + s(a) a - n(a) 1; exactly zero on contract."""
    a2 = jordan_mul(a, a)
    a3 = jordan_mul(a2, a)
    t, s, n = trace_form(a), s_form(a), norm_form(a)
    return a3 - a2.scale(t) + a.scale(s) - AlbertElement.unit().scale(n)


def check_eq1(a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """Residual of the directional linearization of the cubic identity:
    a^2 b + 2 (ab) a  vs  t(b) a^2 + 2 t(a) ab - s(a,b) a - s(a) b + n(a,a,b)/2."""
    a2 = jordan_mul(a, a)
    ab = jordan_mul(a, b)
    lhs = jordan_mul(a2, b) + jordan_mul(ab, a).scale(2)
    rhs = (
        a2.scale(trace_form(b))
        + ab.scale(2 * trace_form(a))
        - a.scale(s_bilinear(a, b))
        - b.scale(s_form(a))
        + AlbertElement.unit().scale(Fraction(norm_trilinear(a, a, b), 2))
    )
    return lhs - rhs


def check_operator_identity(a: AlbertElement, b: AlbertElement) -> bool:
    """R_b^2 R_a + R_a R_b^2 = -R_{(ba)b} + 2 R_{ab} R_b + R_{b^2} R_a, exactly."""
    ra, rb = r_op(a), r_op(b)
    rb2 = rb @ rb
    ab, bab = jordan_mul(a, b), jordan_mul(jordan_mul(b, a), b)
    return rb2 @ ra + ra @ rb2 + r_op(bab) == (r_op(ab) @ rb).scale_int(2) + r_op(jordan_mul(b, b)) @ ra


def zero_pair_operator_collapse(ra: AlbertOperator, rb_sq: AlbertOperator, rb2_ra: AlbertOperator) -> bool:
    """When ab = 0 the operator identity degenerates to
    R_b^2 R_a + R_a R_b^2 = R_{b^2} R_a; takes R_a, R_b^2 and R_{b^2} R_a."""
    return rb_sq @ ra + ra @ rb_sq == rb2_ra


@dataclass
class ZeroPairChecks:
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
OPERATOR_CHECKS = tuple(f.name for f in fields(ZeroPairChecks)[:-2])


def check_zero_pair(a: AlbertElement, b: AlbertElement) -> ZeroPairChecks:
    """All the zero-product consequences at once, from one set of operators
    R_a, R_b, R_{a^2}, R_{b^2}, R_a^2, R_b^2; see ZeroPairChecks."""
    if not jordan_mul(a, b).is_zero():
        raise ValueError("precondition a.b = 0 violated")
    ra, rb = r_op(a), r_op(b)
    a2, b2 = jordan_mul(a, a), jordan_mul(b, b)
    ra2, rb2 = r_op(a2), r_op(b2)
    ra_sq, rb_sq, rb2_ra = ra @ ra, rb @ rb, rb2 @ ra
    ua, ub = ra_sq.scale_int(2) - ra2, rb_sq.scale_int(2) - rb2
    ua_ub, ub_ua = ua @ ub, ub @ ua
    return ZeroPairChecks(
        r_a2_b_commute=ra2 @ rb == rb @ ra2,
        r_a_b2_commute=ra @ rb2 == rb2_ra,
        commutators_match=ua_ub + rb2 @ ra2 == ub_ua + ra2 @ rb2,
        u_commutator_zero=ua_ub == ub_ua,
        operator_collapse=zero_pair_operator_collapse(ra, rb_sq, rb2_ra),
        s_ab_zero=s_bilinear(a, b) == 0,
        a2b_zero=jordan_mul(a2, b).is_zero(),
    )


# ---------------------------------------------------------------------------
# Sampling


def random_element(rng: random.Random) -> AlbertElement:
    """Uniform integer coordinates in [-9, 9]."""
    return AlbertElement([rng.randint(-9, 9) for _ in range(DIM)])


def left_kernel(op: AlbertOperator) -> list[list[Fraction]]:
    """Basis of {v : v op = 0} (row vectors), exact over the rationals."""
    cols = [[Fraction(x, op.den) for x in row] for row in op.num]
    zero = [Fraction(0)] * DIM
    return affine_solve(cols, zero, _QQ).homogeneous


def _integral(x: AlbertElement) -> AlbertElement:
    """The numerators of x with their content divided out (the checks are
    scale-invariant)."""
    return AlbertElement(x.num, gcd(*x.num) or 1)


def sample_zero_pair(seed_or_rng) -> tuple[AlbertElement, AlbertElement]:
    """A reproducible pair (a, b) with a.b = 0, via Peirce decomposition.

    Builds a rank-one element c = U_w(e11) from a random integer w; if
    c^2 = t(c) c, then e = c / t(c) is idempotent and a = U_{t(c) 1 - c}(r1),
    b = U_c(r2) for random integer r1, r2 are t(c)^2 times points of the
    Peirce spaces J_0(e) = U_{1-e}(J) and J_1(e) = U_e(J), whose product is
    zero.  Content is divided out, and the result is re-verified exactly
    before returning.  Retries on degenerate draws and aborts after 100
    attempts.
    """
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    e11 = AlbertElement.diag_idempotent(0)
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
        if jordan_mul(a, b).is_zero():
            continue
        ua, ub = u_op(a), u_op(b)
        if ua @ ub != ub @ ua:
            return a, b
    raise RuntimeError("no noncommuting pair found")
