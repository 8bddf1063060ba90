"""The 27-dimensional exceptional Jordan algebra: split octonions as 8-tuples
under zorn_mul, zorn_conj and zorn_norm, cubic form data, operator
identities, and zero-product commutation."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from jvu import albert
from jvu.albert import (
    _product2,
    _u_image,
    AlbertElement,
    AlbertOperator,
    check_cubic,
    check_eq1,
    check_operator_identity,
    check_zero_pair,
    find_noncommuting_pair,
    jordan_mul,
    left_kernel,
    norm_form,
    norm_trilinear,
    r_op,
    random_element,
    s_bilinear,
    s_form,
    sample_zero_pair,
    trace_form,
    u_op,
    zero_pair_operator_collapse,
    zorn_bilinear,
    zorn_conj,
    zorn_mul,
    zorn_norm,
)
from jvu.cli import run_command

E11 = AlbertElement.basis(0)
E22 = AlbertElement.basis(1)
UNIT = AlbertElement.unit()

#: the split octonions' unit and basis as 8-tuples (alpha, beta, a1, a2, a3, b1, b2, b3)
OCT_ONE = (1, 1, 0, 0, 0, 0, 0, 0)
OCT_BASIS = [tuple(int(k == i) for k in range(8)) for i in range(8)]


def rand_oct(rng):
    return tuple(rng.randint(-9, 9) for _ in range(8))


def oct_scale(c, u):
    return tuple(c * x for x in u)


def oct_trace(u):
    """u + conj(u) as a scalar (the coefficient of the unit)."""
    return u[0] + u[1]


def from_coords(coords):
    """The element with these 27 int or Fraction coordinates, over the lcm
    of their denominators."""
    den = lcm(*(c.denominator for c in coords))
    return AlbertElement([c.numerator * (den // c.denominator) for c in coords], den)


def all_hold(checks):
    """Every operator check and the dichotomy hold, the pass rule of the albert verb."""
    return all(getattr(checks, k) for k in albert.OPERATOR_CHECKS) and (checks.s_ab_zero or checks.a2b_zero)


# -- split octonions ---------------------------------------------------------


def test_octonion_unit():
    rng = random.Random(20)
    for _ in range(20):
        u = rand_oct(rng)
        assert zorn_mul(OCT_ONE, u) == u
        assert zorn_mul(u, OCT_ONE) == u


def test_octonion_basis_null_vector():
    """The split form is isotropic already on the basis."""
    e1 = OCT_BASIS[0]
    assert any(e1)
    assert zorn_norm(e1) == 0


def test_octonion_composition_law():
    rng = random.Random(21)
    for _ in range(100):
        u, v = rand_oct(rng), rand_oct(rng)
        assert zorn_norm(zorn_mul(u, v)) == zorn_norm(u) * zorn_norm(v)


def test_octonion_alternative_laws():
    rng = random.Random(22)
    for _ in range(50):
        u, v = rand_oct(rng), rand_oct(rng)
        assert zorn_mul(zorn_mul(u, u), v) == zorn_mul(u, zorn_mul(u, v))
        assert zorn_mul(zorn_mul(u, v), v) == zorn_mul(u, zorn_mul(v, v))


def test_octonion_conjugation_antiautomorphism():
    rng = random.Random(23)
    for _ in range(50):
        u, v = rand_oct(rng), rand_oct(rng)
        assert zorn_conj(zorn_mul(u, v)) == zorn_mul(zorn_conj(v), zorn_conj(u))
    u = rand_oct(rng)
    assert zorn_conj(zorn_conj(u)) == u


def test_octonion_trace_and_norm_from_conjugation():
    """u + conj(u) = t(u) 1 and u conj(u) = n(u) 1, coordinatewise."""
    rng = random.Random(24)
    for _ in range(50):
        u = rand_oct(rng)
        assert tuple(x + y for x, y in zip(u, zorn_conj(u))) == oct_scale(oct_trace(u), OCT_ONE)
        assert zorn_mul(u, zorn_conj(u)) == oct_scale(zorn_norm(u), OCT_ONE)


def test_octonion_not_associative():
    e1, u1, u2 = OCT_BASIS[0], OCT_BASIS[2], OCT_BASIS[3]
    lhs = zorn_mul(zorn_mul(e1, u1), u2)
    rhs = zorn_mul(e1, zorn_mul(u1, u2))
    assert lhs != rhs


#: e_i e_j on the Zorn basis: row i, column j is +k or -k for +-e_k, or . for 0.
#: Not symmetric (e_2 e_3 = e_7 = -e_3 e_2), so it tells x y from y x.
ZORN_BASIS_PRODUCTS = (
    "+0 .  +2 +3 +4 .  .  .",
    ".  +1 .  .  .  +5 +6 +7",
    ".  +2 .  +7 -6 +0 .  .",
    ".  +3 -7 .  +5 .  +0 .",
    ".  +4 +6 -5 .  .  .  +0",
    "+5 .  +1 .  .  .  -4 +3",
    "+6 .  .  +1 .  +4 .  -2",
    "+7 .  .  .  +1 -3 +2 .",
)


def test_zorn_basis_products_pinned():
    for i, row in enumerate(ZORN_BASIS_PRODUCTS):
        for j, entry in enumerate(row.split()):
            want = (0,) * 8 if entry == "." else oct_scale(int(entry[0] + "1"), OCT_BASIS[int(entry[1])])
            assert zorn_mul(OCT_BASIS[i], OCT_BASIS[j]) == want, (i, j)


def slice_cross_zorn_mul(x, y):
    """The Zorn product written with slices, dot products and the two cross
    products w1 x w2 and v1 x v2: the reference for the unrolled zorn_mul."""
    a1, b1, v1, w1 = x[0], x[1], x[2:5], x[5:8]
    a2, b2, v2, w2 = y[0], y[1], y[2:5], y[5:8]

    def cross(p, q):
        return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])

    def dot(p, q):
        return sum(s * t for s, t in zip(p, q))

    cww, cvv = cross(w1, w2), cross(v1, v2)
    return (
        a1 * a2 + dot(v1, w2),
        b1 * b2 + dot(w1, v2),
        *(a1 * v2[m] + b2 * v1[m] - cww[m] for m in range(3)),
        *(a2 * w1[m] + b1 * w2[m] + cvv[m] for m in range(3)),
    )


def big_oct(rng, bits):
    return tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(8))


def test_zorn_mul_matches_slice_cross_reference():
    """On small ints, on ints of 1,000 bits and more, and on a mix of the two,
    as a probe step multiplies a wide image by a small letter."""
    rng = random.Random(25)
    for _ in range(200):
        u, v = rand_oct(rng), rand_oct(rng)
        assert zorn_mul(u, v) == slice_cross_zorn_mul(u, v)
    for bits in (1000, 2000):
        for _ in range(50):
            u, v = big_oct(rng, bits), big_oct(rng, bits)
            for x, y in ((u, v), (u, rand_oct(rng)), (rand_oct(rng), v)):
                assert zorn_mul(x, y) == slice_cross_zorn_mul(x, y)
                assert zorn_mul(list(x), list(y)) == zorn_mul(x, y)  # _product2 passes list slices


def test_zorn_bilinear_is_the_polarized_norm():
    """n(x, y) = t(x conj y) = n(x + y) - n(x) - n(y) and n(x, x) = 2 n(x), on
    small ints and on ints of packed-probe width (27 slots of 73 bits)."""
    rng = random.Random(26)
    for bits in (4, 27 * 73):
        for _ in range(100):
            x, y = big_oct(rng, bits), big_oct(rng, bits)
            n = zorn_bilinear(x, y)
            assert n == oct_trace(zorn_mul(x, zorn_conj(y)))
            assert n == zorn_norm(tuple(s + t for s, t in zip(x, y))) - zorn_norm(x) - zorn_norm(y)
            assert n == zorn_bilinear(y, x)
            assert zorn_bilinear(x, x) == 2 * zorn_norm(x)


# -- Hermitian elements ------------------------------------------------------


def test_jordan_mul_idempotents():
    assert jordan_mul(E11, E11) == E11
    assert jordan_mul(E11, E22).is_zero()


def test_jordan_mul_commutative_random():
    rng = random.Random(25)
    for _ in range(30):
        a, b = random_element(rng), random_element(rng)
        assert jordan_mul(a, b) == jordan_mul(b, a)


def test_coords_round_trip():
    rng = random.Random(26)
    a = random_element(rng)
    assert from_coords(a.coords()) == a


def test_unit_is_identity():
    rng = random.Random(27)
    for _ in range(10):
        a = random_element(rng)
        assert jordan_mul(a, UNIT) == a


def split_coords(x: AlbertElement):
    """The diagonal (d1, d2, d3) and the off-diagonal 8-tuples (o1, o2, o3) of x."""
    c = x.coords()
    return c[:3], [tuple(c[3 + 8 * i : 11 + 8 * i]) for i in range(3)]


def hermitian_matrix(x: AlbertElement):
    """The 3x3 octonion matrix of x in the layout of the AlbertElement docstring."""
    (d1, d2, d3), (o1, o2, o3) = split_coords(x)
    return [
        [oct_scale(d1, OCT_ONE), o3, zorn_conj(o2)],
        [zorn_conj(o3), oct_scale(d2, OCT_ONE), o1],
        [o2, zorn_conj(o1), oct_scale(d3, OCT_ONE)],
    ]


def hermitian_jordan_product(ma, mb):
    """(AB + BA)/2 of 3x3 matrices of 8-tuples, entry by entry."""

    def entry(i, j):
        terms = [zorn_mul(ma[i][k], mb[k][j]) for k in range(3)] + [zorn_mul(mb[i][k], ma[k][j]) for k in range(3)]
        return tuple(Fraction(sum(col), 2) for col in zip(*terms))

    return [[entry(i, j) for j in range(3)] for i in range(3)]


def test_jordan_mul_matches_hermitian_matrix_product():
    """jordan_mul against (AB + BA)/2 computed as a product of octonion matrices."""
    rng = random.Random(43)

    def check(a, b):
        expected = hermitian_jordan_product(hermitian_matrix(a), hermitian_matrix(b))
        assert hermitian_matrix(jordan_mul(a, b)) == expected

    def doubled_on_integers(a, b):
        p = _product2(a.num, b.num)
        return all(type(c) is int for c in p) and p == [2 * c for c in jordan_mul(a, b).coords()]

    for _ in range(30):
        a, b = random_element(rng), random_element(rng)
        check(a, b)
        assert doubled_on_integers(a, b)
    for _ in range(30):
        a, b = (from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(27)]) for _ in range(2))
        check(a, b)
    for i in range(27):
        for j in range(i, 27):
            a, b = AlbertElement.basis(i), AlbertElement.basis(j)
            check(a, b)
            assert doubled_on_integers(a, b)


def basis_products():
    """The table of sparse rows ((k, c), ...) of the numerators of
    2(e_i . e_j) = _product2(e_i, e_j), for all i, j."""
    basis = [AlbertElement.basis(k).num for k in range(27)]
    return tuple(
        tuple(tuple((k, c) for k, c in enumerate(_product2(ei, ej)) if c) for ej in basis) for ei in basis
    )


def test_structure_constants_pinned():
    """The basis products are exact integer data in [-2, 2]: any change to
    the product formula must leave them entry-for-entry the same."""
    table = basis_products()
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == "2cf9784edc962763580996071c48cb5965178dbd2e6bae5ef493f7e9822d5105"
    assert all(-2 <= c <= 2 for row in table for entry in row for _, c in entry)


# -- operators ---------------------------------------------------------------


def test_r_op_of_unit_is_identity_matrix():
    assert (r_op(UNIT) - AlbertOperator.identity()).is_zero()


def test_r_op_reproduces_multiplication():
    """r_op(a).apply(x) == x.a on integer, fractional, basis and 2^70-scaled a."""
    rng = random.Random(28)
    inputs = [random_element(rng) for _ in range(10)] + [frac_element(rng) for _ in range(5)]
    inputs += [AlbertElement.basis(k) for k in (0, 5, 26)] + [random_element(rng).scale(2**70)]
    for a in inputs:
        for x in (random_element(rng), frac_element(rng)):
            assert r_op(a).apply(x) == jordan_mul(x, a)


def test_u_op_peirce_orthogonality():
    assert u_op(E11).apply(E22).is_zero()


def test_u_op_on_unit_gives_square():
    rng = random.Random(29)
    for _ in range(10):
        a = random_element(rng)
        assert u_op(a).apply(UNIT) == jordan_mul(a, a)


def test_u_image_equals_u_op_apply():
    """The sampler's operator-free U-image is exactly u_op(x).apply(y):
    random integer pairs, random fractional pairs and all basis pairs."""
    rng = random.Random(33)

    def frac():
        return from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(27)])

    pairs = [(random_element(rng), random_element(rng)) for _ in range(10)]
    pairs += [(frac(), frac()) for _ in range(10)]
    for x, y in pairs:
        assert _u_image(x, y) == u_op(x).apply(y)
    basis = [AlbertElement.basis(k) for k in range(27)]
    for x in basis:
        ux = u_op(x)
        for y in basis:
            assert _u_image(x, y) == ux.apply(y)


def test_operator_arithmetic_exact():
    rng = random.Random(30)
    a, b = random_element(rng), random_element(rng)
    ra, rb = r_op(a), r_op(b)
    x = random_element(rng)
    assert (ra + rb).apply(x) == jordan_mul(x, a) + jordan_mul(x, b)
    assert (ra - rb).apply(x) == jordan_mul(x, a) - jordan_mul(x, b)
    assert (ra @ rb).apply(x) == jordan_mul(jordan_mul(x, a), b)


# -- cubic form data ---------------------------------------------------------


def test_forms_of_unit():
    assert (trace_form(UNIT), s_form(UNIT), norm_form(UNIT)) == (3, 3, 1)


def test_forms_of_rank_one_idempotent():
    assert (trace_form(E11), s_form(E11), norm_form(E11)) == (1, 0, 0)


def test_s_bilinear_is_polarization_of_s():
    """t(a) t(b) - t(a.b) against its definition s(a+b) - s(a) - s(b)."""
    rng = random.Random(44)

    def frac():
        return from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(27)])

    pairs = [(random_element(rng), random_element(rng)) for _ in range(30)]
    pairs += [(frac(), frac()) for _ in range(30)]
    for a, b in pairs:
        got = s_bilinear(a, b)
        assert type(got) is (int if got.denominator == 1 else Fraction)
        assert got == s_form(a + b) - s_form(a) - s_form(b)


def test_s_polarization_diagonal():
    rng = random.Random(31)
    for _ in range(20):
        a = random_element(rng)
        assert s_bilinear(a, a) == 2 * s_form(a)


def test_check_cubic_examples():
    assert check_cubic(UNIT).is_zero()
    assert check_cubic(E11).is_zero()


def test_check_cubic_random():
    rng = random.Random(32)
    for _ in range(50):
        assert check_cubic(random_element(rng)).is_zero()


def test_norm_form_signs_pinned_by_cubic_identity():
    """Calibration: among the sign variants of the determinant expansion,
    only (-1 on the octonion-norm terms, +1 on the triple-trace term)
    satisfies the cubic identity on random elements."""
    rng = random.Random(33)
    elems = [random_element(rng) for _ in range(10)]

    def variant(a, s1, s2):
        (d1, d2, d3), (o1, o2, o3) = split_coords(a)
        return (
            d1 * d2 * d3
            + s1 * (d1 * zorn_norm(o1) + d2 * zorn_norm(o2) + d3 * zorn_norm(o3))
            + s2 * oct_trace(zorn_mul(zorn_mul(o1, o2), o3))
        )

    def residual_zero(a, s1, s2):
        a2 = jordan_mul(a, a)
        a3 = jordan_mul(a2, a)
        r = a3 - a2.scale(trace_form(a)) + a.scale(s_form(a)) - UNIT.scale(variant(a, s1, s2))
        return r.is_zero()

    for s1 in (1, -1):
        for s2 in (1, -1):
            ok = all(residual_zero(a, s1, s2) for a in elems)
            assert ok == (s1 == -1 and s2 == 1)
    for a in elems:
        assert norm_form(a) == variant(a, -1, 1)


def test_check_eq1_unit_and_idempotents():
    assert check_eq1(UNIT, UNIT).is_zero()
    # hand oracle for (e11, e22): both sides vanish; the polarized form values
    # are s(e11, e22) = 1 and n(e11, e11, e22) = 0
    assert s_bilinear(E11, E22) == 1
    assert norm_trilinear(E11, E11, E22) == 0
    assert check_eq1(E11, E22).is_zero()


def test_check_eq1_random():
    rng = random.Random(34)
    for _ in range(30):
        assert check_eq1(random_element(rng), random_element(rng)).is_zero()


def test_trace_form_associative():
    """t((ab)c) = t(a(bc)): the bilinearized trace is associative."""
    rng = random.Random(35)
    for _ in range(20):
        a, b, c = (random_element(rng) for _ in range(3))
        assert trace_form(jordan_mul(jordan_mul(a, b), c)) == trace_form(
            jordan_mul(a, jordan_mul(b, c))
        )


# -- operator identities -----------------------------------------------------


def test_operator_identity_unit_case():
    assert check_operator_identity(UNIT, UNIT)


def test_operator_identity_random():
    rng = random.Random(36)
    for _ in range(30):
        assert check_operator_identity(random_element(rng), random_element(rng))


def test_jordan_identity_operator_form():
    """[R_a, R_{a^2}] = 0, and its linearization
    [R_{a^2}, R_b] + 2 [R_{ab}, R_a] = 0."""
    rng = random.Random(37)
    for _ in range(20):
        a, b = random_element(rng), random_element(rng)
        ra, rb, ra2, rab = r_op(a), r_op(b), r_op(jordan_mul(a, a)), r_op(jordan_mul(a, b))
        assert ra @ ra2 == ra2 @ ra
        assert ra2 @ rb + (rab @ ra).scale_int(2) == rb @ ra2 + (ra @ rab).scale_int(2)


def test_associator_bridge():
    """Coordinates of c [R_{a^2}, R_{b^2}] equal the associator (a^2, c, b^2)."""
    rng = random.Random(38)
    for _ in range(10):
        a, b, c = (random_element(rng) for _ in range(3))
        a2, b2 = jordan_mul(a, a), jordan_mul(b, b)
        lhs = (r_op(a2) @ r_op(b2) - r_op(b2) @ r_op(a2)).apply(c)
        associator = jordan_mul(jordan_mul(a2, c), b2) - jordan_mul(a2, jordan_mul(c, b2))
        assert lhs == associator


# -- zero-product pairs ------------------------------------------------------


def test_orthogonal_idempotents_pair():
    checks = check_zero_pair(E22, E11)
    assert checks.commutators_match and checks.operator_collapse
    assert all_hold(checks)
    assert u_op(E22) @ u_op(E11) == u_op(E11) @ u_op(E22)


def test_zero_pair_checks_are_read_only():
    checks = check_zero_pair(E22, E11)
    with pytest.raises(AttributeError):
        checks.u_commutator_zero = False
    assert checks.u_commutator_zero


def test_zero_pair_precondition_enforced():
    rng = random.Random(39)
    a, b = find_noncommuting_pair(rng)
    with pytest.raises(ValueError):
        check_zero_pair(a, b)


def test_sample_zero_pair_postcondition():
    rng = random.Random(40)
    for _ in range(5):
        a, b = sample_zero_pair(rng)
        assert jordan_mul(a, b).is_zero()
        assert not a.is_zero() and not b.is_zero()
        assert gcd(*a.coords()) == 1 and gcd(*b.coords()) == 1


def test_sample_zero_pair_deterministic():
    a1, b1 = sample_zero_pair(random.Random(42))
    a2, b2 = sample_zero_pair(random.Random(42))
    assert a1 == a2 and b1 == b2
    assert a1.coords() == a2.coords()


def test_sample_zero_pair_pinned():
    """The first 20 pairs from Random(42): a reseeded sampler gives the same
    primitive integer pairs, whatever route computes the U-images."""
    rng = random.Random(42)
    pairs = [sample_zero_pair(rng) for _ in range(20)]
    digest = hashlib.sha256(json.dumps([[a.coords(), b.coords()] for a, b in pairs]).encode()).hexdigest()
    assert digest == "86e69764e0b3b49fc24d0ba05f62270ab73561c8a0c099353e7b199a2fe88c68"


def test_element_products_apply_no_operator(monkeypatch):
    """Every element product is a jordan_mul: the sampler and all checks run
    with AlbertOperator.apply disabled."""

    def refuse(op, elem):
        raise AssertionError("AlbertOperator.apply called")

    monkeypatch.setattr(AlbertOperator, "apply", refuse)
    a, b = sample_zero_pair(random.Random(3))
    assert all_hold(check_zero_pair(a, b))
    rng = random.Random(4)
    x, y = random_element(rng), random_element(rng)
    assert check_cubic(x).is_zero()
    assert check_eq1(x, y).is_zero()
    assert check_operator_identity(x, y)
    find_noncommuting_pair(random.Random(1))


def test_peirce_dimensions_of_primitive_idempotent():
    """The Peirce spaces of E11 by two routes: eigenspaces of R_e, and the
    U-images J_0 = U_{1-e}(J), J_1 = U_e(J) that the sampler draws from.
    Every kernel vector is annihilated by its operator.  For the first five
    seed-42 zero pairs (a, b), the kernel of R_a is the line through b."""

    def kernel(op):
        vecs = left_kernel(op)
        assert all(op.apply(from_coords(v)).is_zero() for v in vecs)
        return vecs

    re = r_op(E11)
    assert len(kernel(re)) == 10
    assert len(kernel(u_op(UNIT - E11))) == 17  # image of dimension 10
    assert len(kernel(re - AlbertOperator.identity())) == 1
    assert len(kernel(u_op(E11))) == 26  # image of dimension 1
    # the half eigenspace fills the rest of the 27 dimensions
    half_identity = AlbertOperator([[1 if i == j else 0 for j in range(27)] for i in range(27)], 2)
    assert len(kernel(re - half_identity)) == 16
    pairs = random.Random(42)
    for _ in range(5):
        a, b = sample_zero_pair(pairs)
        (v,) = kernel(r_op(a))
        b = b.coords()
        k = next(i for i, c in enumerate(b) if c)
        assert [v[k] / b[k] * c for c in b] == v
    rng = random.Random(42)
    for _ in range(5):
        x = random_element(rng)
        assert re.apply(u_op(UNIT - E11).apply(x)).is_zero()
        j1 = u_op(E11).apply(x)
        assert re.apply(j1) == j1


def test_sampled_pairs_pass_all_zero_product_checks():
    rng = random.Random(41)
    for _ in range(10):
        a, b = sample_zero_pair(rng)
        checks = check_zero_pair(a, b)
        assert all_hold(checks)
        assert checks.a2b_zero
        assert checks.operator_collapse


def record_probes(monkeypatch):
    """Patch albert._Probe to append each probe it builds, with the facts it
    was built for as ``facts``; returns the list."""
    probes = []

    class Recorded(albert._Probe):
        __slots__ = ("facts",)

        def __init__(self, letters, facts):
            facts = tuple(facts)
            super().__init__(letters, facts)
            self.facts = facts
            probes.append(self)

    monkeypatch.setattr(albert, "_Probe", Recorded)
    return probes


def test_check_zero_pair_builds_each_operator_once(monkeypatch):
    """check_zero_pair makes no r_op and no operator product: it builds one
    probe, and the 14 words its five facts compare share prefixes, so it
    makes 22 probe steps (a, aa, aab, aabb, aaB, A, Ab, Abb, AB, b, bA, bb,
    bba, bbaa, bbA, B, Ba, Baa, BA, aB, ab, abb)."""
    a, b = sample_zero_pair(random.Random(41))
    r_ops = count_calls(monkeypatch, albert, "r_op")
    matmuls = count_calls(monkeypatch, AlbertOperator, "__matmul__")
    probes = record_probes(monkeypatch)
    assert all_hold(check_zero_pair(a, b))
    assert (len(r_ops), len(matmuls), len(probes)) == (0, 0, 1)
    assert len(probes[0]._images) - 1 == 22


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the count list."""
    calls, orig = [], getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_jordan_mul_builds_one_element(monkeypatch):
    """jordan_mul runs the AlbertElement constructor once per product, on
    integer and fractional pairs, and r_op runs it only for the 27 basis
    elements its rows are products with."""
    rng = random.Random(48)
    pairs = [(random_element(rng), random_element(rng)), (frac_element(rng), frac_element(rng))]
    expected = [jordan_mul(a, b) for a, b in pairs]
    inits = count_calls(monkeypatch, AlbertElement, "__init__")
    for (a, b), p in zip(pairs, expected):
        del inits[:]
        assert jordan_mul(a, b) == p
        assert len(inits) == 1
    del inits[:]
    r_op(pairs[1][0])
    assert len(inits) == 27


def test_zero_pair_and_operator_identity_product_counts(monkeypatch):
    """Neither check makes a jordan_mul: every product is a _product2 on
    numerators.  check_zero_pair makes 4 element products (a.b, A = 2a^2,
    B = 2b^2, A b; s(a, b) reads the a.b = 0 it has checked) and 22 probe
    steps.  check_operator_identity makes 3 (ab, (ab)b, b^2; (ba)b is (ab)b)
    and 11 probe steps (b, bb, bba, a, ab, abb, d, c, cb, B, Ba)."""
    a, b = sample_zero_pair(random.Random(41))
    x, y = random_element(random.Random(36)), random_element(random.Random(37))
    calls = count_calls(monkeypatch, albert, "jordan_mul")
    products = count_calls(monkeypatch, albert, "_product2")
    assert all_hold(check_zero_pair(a, b))
    assert (len(calls), len(products)) == (0, 4 + 22)
    del products[:]
    assert check_operator_identity(x, y)
    assert (len(calls), len(products)) == (0, 3 + 11)


def test_product2_makes_six_octonion_products(monkeypatch):
    """The diagonal of 2(a.b) reads three polarized norms and takes no
    octonion product; each off-diagonal entry takes two."""
    a, b = random_element(random.Random(36)), random_element(random.Random(37))
    want = _product2(a.num, b.num)
    muls = count_calls(monkeypatch, albert, "zorn_mul")
    norms = count_calls(monkeypatch, albert, "zorn_bilinear")
    assert _product2(a.num, b.num) == want
    assert (len(muls), len(norms)) == (6, 3)


def test_cubic_and_eq1_product_counts(monkeypatch):
    """check_cubic makes 2 products (a^2, a^3) and check_eq1 makes 4 (a^2,
    ab, a^2 b, (ab)a): s(a) and s(a, b) read the a^2 and ab they hold.  The
    residuals stay zero on an integer and on a fractional a."""
    x, y = random_element(random.Random(36)), random_element(random.Random(37))
    calls = count_calls(monkeypatch, albert, "jordan_mul")
    for a in (x, x.scale(Fraction(1, 3))):
        del calls[:]
        assert check_cubic(a).is_zero()
        assert len(calls) == 2
        del calls[:]
        assert check_eq1(a, y).is_zero()
        assert len(calls) == 4


def test_s_ab_zero_is_s_bilinear_zero():
    """s_ab_zero is s(a, b) = 0: False on sampled pairs, and True on
    (E11, E22 - E33), a zero pair with t(E22 - E33) = 0."""
    rng = random.Random(41)
    for _ in range(3):
        a, b = sample_zero_pair(rng)
        assert check_zero_pair(a, b).s_ab_zero is (s_bilinear(a, b) == 0) is False
    a, b = E11, E22 - AlbertElement.basis(2)
    checks = check_zero_pair(a, b)
    assert checks.s_ab_zero is (s_bilinear(a, b) == 0) is True
    assert all_hold(checks)


def perturb_step(monkeypatch, letter):
    """Make every probe step by ``letter`` act as R_letter with entry (3, 5)
    raised: int 5 of the step's image gains int 3 of the image it steps from."""

    class Perturbed(albert._Probe):
        __slots__ = ()

        def image(self, word):
            fresh = word not in self._images
            img = super().image(word)
            if fresh and word[-1:] == letter:
                img[5] += self.image(word[:-1])[3]
            return img

    monkeypatch.setattr(albert, "_Probe", Perturbed)


@pytest.mark.parametrize(
    "operator,flipped",
    [
        ("R_a", {"r_a_b2_commute", "commutators_match", "u_commutator_zero", "operator_collapse"}),
        ("R_b", {"r_a2_b_commute", "commutators_match", "u_commutator_zero", "operator_collapse"}),
        ("R_a2", {"r_a2_b_commute", "commutators_match", "u_commutator_zero"}),
        ("R_b2", {"r_a_b2_commute", "commutators_match", "u_commutator_zero", "operator_collapse"}),
    ],
)
def test_every_operator_verdict_can_fail(monkeypatch, operator, flipped):
    """A wrong R_a, R_b, R_{a^2} or R_{b^2} step turns every operator check
    that reads it False on a pinned pair, so no check compares a value with
    itself."""
    a, b = sample_zero_pair(random.Random(41))
    assert all_hold(check_zero_pair(a, b))
    perturb_step(monkeypatch, {"R_a": "a", "R_b": "b", "R_a2": "A", "R_b2": "B"}[operator])
    checks = check_zero_pair(a, b)
    assert {k for k in albert.OPERATOR_CHECKS if not getattr(checks, k)} == flipped


def test_operator_identity_fails_with_wrong_r_bab(monkeypatch):
    """check_operator_identity turns False when its R_{(ba)b} step (letter d)
    is off by one entry."""
    rng = random.Random(36)
    a, b = random_element(rng), random_element(rng)
    assert check_operator_identity(a, b)
    perturb_step(monkeypatch, "d")
    assert not check_operator_identity(a, b)


def test_operator_store_is_immutable():
    """The canonical store that == compares is a tuple of 27 tuples."""
    ra = r_op(sample_zero_pair(random.Random(41))[0])
    assert type(ra.num) is tuple and len(ra.num) == 27
    assert all(type(row) is tuple and len(row) == 27 for row in ra.num)
    with pytest.raises(TypeError):
        ra.num[0] = ra.num[1]
    with pytest.raises(TypeError):
        ra.num[0][0] += 1


def test_operator_collapse_fails_off_zero_pairs():
    """The collapsed identity needs a.b = 0: on a noncommuting pair it is false,
    so a vacuous collapse check cannot pass."""
    a, b = find_noncommuting_pair(random.Random(1))
    probe = albert._Probe(albert._letters(a.num, b.num), [albert._COLLAPSE])
    assert not zero_pair_operator_collapse(probe)


def test_nonvacuous_commutator_exists():
    rng = random.Random(1)
    a, b = find_noncommuting_pair(rng)
    assert not jordan_mul(a, b).is_zero()
    assert u_op(a) @ u_op(b) != u_op(b) @ u_op(a)


def test_scaling_invariance_of_zero_product_checks():
    """The checked statements are homogeneous in each argument, so integer
    rescaling (as done by the sampler) cannot change any verdict."""
    a, b = sample_zero_pair(random.Random(7))
    sa, sb = a.scale(Fraction(3)), b.scale(Fraction(-2))
    assert jordan_mul(sa, sb).is_zero()
    assert all_hold(check_zero_pair(sa, sb))


# -- the exact store ----------------------------------------------------------


def frac_element(rng):
    """Random coordinates n/d with d in [-6, 6] \\ {0}, negative denominators included."""
    return from_coords([Fraction(rng.randint(-9, 9), rng.randint(-6, 6) or 1) for _ in range(27)])


def test_store_rejects_inexact_input():
    """Numerators are ints, never floats, strings or Fractions, the
    denominator is nonzero, and an element has 27 numerators."""
    for bad in (0.5, 0.1, "1/2", None, Fraction(1, 2)):
        with pytest.raises(TypeError):
            AlbertElement([bad] + [0] * 26)
    with pytest.raises(TypeError):
        AlbertOperator([[0.5] * 27 for _ in range(27)])
    with pytest.raises(ValueError):
        AlbertElement([1] * 27, 0)
    with pytest.raises(ValueError):
        AlbertOperator(AlbertOperator.identity().num, 0)
    with pytest.raises(ValueError):
        AlbertElement([1] * 26)


def test_store_is_canonical():
    """Equal values have identical (num, den) with den > 0, whatever route
    built them, and zero is stored over 1."""
    rng = random.Random(45)
    a, b = frac_element(rng), frac_element(rng)
    routes = [
        from_coords(a.coords()),  # ints and Fractions of several denominators
        from_coords([Fraction(-3 * n, -3 * a.den) for n in a.num]),
        AlbertElement([-n for n in a.num], -a.den),
        AlbertElement([6 * n for n in a.num], 6 * a.den),
        a.scale(Fraction(-7, 4)).scale(Fraction(4, -7)),
        a + b - b,
        jordan_mul(a, UNIT),
    ]
    for r in routes:
        assert r == a
        assert (r.num, r.den) == (a.num, a.den)
        assert r.den > 0
    assert a.coords() == [Fraction(n, a.den) for n in a.num]
    assert all(type(c) is int or c.denominator > 1 for c in a.coords())
    zeros = [a - a, a.scale(0), jordan_mul(E11, E22), AlbertElement([0] * 27, -5)]
    for z in zeros:
        assert z.is_zero() and z.num == (0,) * 27 and z.den == 1
    ra = r_op(a)
    twice, doubled = ra + ra, ra.scale_int(2)
    assert twice == doubled and (twice.num, twice.den) == (doubled.num, doubled.den)
    assert ra.den > 0 and ra - ra == AlbertOperator([[0] * 27 for _ in range(27)], 9)
    assert (ra - ra).den == 1
    assert AlbertOperator([[2 * x for x in row] for row in ra.num], -2 * ra.den) == -ra


def test_product2_is_doubled_jordan_mul_on_fractions():
    """2(a.b) from _product2 equals jordan_mul scaled by 2, store for store,
    on fractional pairs with negative and mixed denominators."""
    rng = random.Random(46)
    for _ in range(30):
        a, b = frac_element(rng), frac_element(rng)
        p, q = AlbertElement(_product2(a.num, b.num), a.den * b.den), jordan_mul(a, b).scale(2)
        assert p == q and (p.num, p.den) == (q.num, q.den)


def test_products_build_no_fraction(monkeypatch):
    """jordan_mul, _product2, r_op and apply run on the integer store alone."""
    rng = random.Random(47)
    a, b = frac_element(rng), frac_element(rng)

    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(albert, "Fraction", refuse)
    p = jordan_mul(a, b)
    assert AlbertElement(_product2(a.num, b.num), a.den * b.den) == p.scale(2)
    assert r_op(b).apply(a) == p


def test_operator_store_rejects_wrong_shape():
    """An operator store is 27 rows of 27 entries, like the 27 coordinates of
    an element; a short row or a missing row is refused, not truncated."""
    for bad in ([[1] * 26] * 27, [[1] * 27] * 5, [[1] * 28] * 27, [[1] * 27] * 28, []):
        with pytest.raises(ValueError):
            AlbertOperator(bad)
    rows = [[1] * 27 for _ in range(27)]
    rows[13] = [1] * 26
    with pytest.raises(ValueError):
        AlbertOperator(rows, 3)


# -- the packed probe ---------------------------------------------------------


#: per letter: the _product2 calls that made it, and its degrees in a and in b
LETTERS = {"a": (0, 1, 0), "b": (0, 0, 1), "A": (1, 2, 0), "B": (1, 0, 2), "c": (1, 1, 1), "d": (2, 1, 2)}

#: every fact the three checks compare, by name
FACTS = {**albert._ZERO_PAIR_FACTS, "operator_collapse": albert._COLLAPSE, "operator_identity": albert._OPERATOR_IDENTITY}


def all_letters(a, b):
    """The six letters of the checks for the numerators of a and b."""
    ab = _product2(a.num, b.num)
    return {**albert._letters(a.num, b.num), "c": ab, "d": _product2(ab, b.num)}


def weight(word):
    """(products, degree in a, degree in b) of a word's term: a step is one product."""
    p, da, db = map(sum, zip(*(LETTERS[k] for k in word)))
    return len(word) + p, da, db


def unpack(v, w):
    """The 27 signed slots of v = sum_i s_i 2^(w i), each |s_i| < 2^(w-1)."""
    slots = []
    for _ in range(27):
        s = v & ((1 << w) - 1)
        s -= (s >> (w - 1)) << w
        slots.append(s)
        v = (v - s) >> w
    assert v == 0
    return slots


def width(probe):
    """The slot width W of a probe: its coordinate 1 is 2^W."""
    return probe.image("")[1].bit_length() - 1


def packed_columns(op, w):
    """The integer operator op as 27 ints, int j packing column j in slots of width w."""
    assert op.den == 1
    return [sum(x << (w * i) for i, x in enumerate(col)) for col in zip(*op.num)]


def probe_pairs():
    """Seeded random integer pairs (a.b != 0, so most zero-pair facts are
    false), one scaled by 2/3, and one scaled by 2^70 (slots past 64 bits)."""
    rng = random.Random(53)
    pairs = [(random_element(rng), random_element(rng)) for _ in range(2)]
    a, b = pairs[0]
    return pairs + [(a.scale(Fraction(2, 3)), b), (a.scale(2**70), b)]


def test_probe_images_equal_operator_products():
    """The probe image of every word the three checks compare equals the
    packed columns of the same r_op/@ product on the letters' elements, and
    the U-sides equal 16 u_op(a) @ u_op(b) and 16 u_op(b) @ u_op(a).  Each
    letter is 2^p times its element for p its _product2 calls, and every term
    of a fact carries the same number of products and the same degrees in a
    and in b, so the sides compare the facts' operators up to one factor."""
    for a, b in probe_pairs():
        letters = all_letters(a, b)
        x, y = AlbertElement(a.num), AlbertElement(b.num)
        xy = jordan_mul(x, y)
        elements = {"a": x, "b": y, "A": jordan_mul(x, x), "B": jordan_mul(y, y), "c": xy, "d": jordan_mul(xy, y)}
        for k, e in elements.items():
            assert AlbertElement(letters[k]) == e.scale(2 ** LETTERS[k][0])
        probe = albert._Probe(letters, FACTS.values())
        w = width(probe)
        assert probe.image("") == [1 << (w * i) for i in range(27)]
        steps = {k: r_op(e).scale_int(2 ** (1 + LETTERS[k][0])) for k, e in elements.items()}
        for lhs, rhs in FACTS.values():
            assert len({weight(word) for _, word in lhs + rhs}) == 1
            for _, word in lhs + rhs:
                op = steps[word[0]]
                for k in word[1:]:
                    op = op @ steps[k]
                assert probe.image(word) == packed_columns(op, w), word
        ua, ub = u_op(x), u_op(y)
        assert probe.side(albert._U_AB) == packed_columns((ua @ ub).scale_int(16), w)
        assert probe.side(albert._U_BA) == packed_columns((ub @ ua).scale_int(16), w)


def matrix_zero_pair_facts(a, b):
    """The five operator facts of check_zero_pair by the matrix route, with no precondition."""
    ra, rb, ra2, rb2 = r_op(a), r_op(b), r_op(jordan_mul(a, a)), r_op(jordan_mul(b, b))
    ua_ub, ub_ua = u_op(a) @ u_op(b), u_op(b) @ u_op(a)
    rb_sq = rb @ rb
    return {
        "r_a2_b_commute": ra2 @ rb == rb @ ra2,
        "r_a_b2_commute": ra @ rb2 == rb2 @ ra,
        "commutators_match": ua_ub + rb2 @ ra2 == ub_ua + ra2 @ rb2,
        "u_commutator_zero": ua_ub == ub_ua,
        "operator_collapse": rb_sq @ ra + ra @ rb_sq == rb2 @ ra,
    }


def matrix_operator_identity(a, b):
    """check_operator_identity by the matrix route."""
    ra, rb = r_op(a), r_op(b)
    rb_sq, ab = rb @ rb, jordan_mul(a, b)
    return rb_sq @ ra + ra @ rb_sq + r_op(jordan_mul(ab, b)) == (r_op(ab) @ rb).scale_int(2) + r_op(jordan_mul(b, b)) @ ra


def matrix_noncommuting_pair(rng):
    """find_noncommuting_pair by the matrix route."""
    for _ in range(albert.NONCOMMUTING_ATTEMPTS):
        a, b = random_element(rng), random_element(rng)
        if not jordan_mul(a, b).is_zero() and u_op(a) @ u_op(b) != u_op(b) @ u_op(a):
            return a, b


def test_probe_checks_agree_with_matrix_route():
    """Every verdict read off a probe equals the matrix route's: the five
    zero-pair facts on random pairs (where most are false), on sampled zero
    pairs and their 2/3 and 2^70 scalings; the operator identity on the same
    pairs; and the pair find_noncommuting_pair returns."""
    facts = (*albert._ZERO_PAIR_FACTS.values(), albert._COLLAPSE)
    names = [*albert._ZERO_PAIR_FACTS, "operator_collapse"]
    false_seen = 0
    for a, b in probe_pairs():
        probe = albert._Probe(albert._letters(a.num, b.num), facts)
        got = {k: probe.holds(f) for k, f in zip(names, facts)}
        want = matrix_zero_pair_facts(a, b)
        assert got == want
        false_seen += list(want.values()).count(False)
        assert check_operator_identity(a, b) is matrix_operator_identity(a, b) is True
    assert false_seen >= 8
    rng = random.Random(54)
    a, b = sample_zero_pair(rng)
    for x, y in [(a, b), sample_zero_pair(rng), (a.scale(Fraction(2, 3)), b), (a, b.scale(2**70))]:
        checks = check_zero_pair(x, y)
        assert {k: getattr(checks, k) for k in albert.OPERATOR_CHECKS} == matrix_zero_pair_facts(x, y)
    for seed in (1, 2):
        a, b = find_noncommuting_pair(random.Random(seed))
        assert (a, b) == matrix_noncommuting_pair(random.Random(seed))


def test_step_gain_read_off_the_table():
    """The step gain K the probe width is built from is max_j sum_{i,k} |c_j|
    over the numerators c of the basis products 2(e_i . e_k), 18."""
    columns = [0] * 27
    for row in basis_products():
        for entry in row:
            for j, c in entry:
                columns[j] += abs(c)
    assert max(columns) == albert._STEP_GAIN == 18


def test_every_side_within_its_bound(monkeypatch):
    """On every probe `albert --samples 10 --seed 42` builds (the zero-pair
    checks, the operator identities and the nonvacuous search), the bound is
    the width rule's B = max over sides of sum |c| K^len(w) prod max|y|, both
    sides of every fact unpack to slots within it, and 2^W > 2B."""
    probes = record_probes(monkeypatch)
    code, report = run_command(["albert", "--samples", "10", "--seed", "42"])
    assert code == 0 and report["verdict"] == "confirmed"
    assert len(probes) >= 21
    for probe in probes:
        norms = {y: max(map(abs, v)) for y, v in probe.letters.items()}
        sides = [side for fact in probe.facts for side in fact]
        assert probe.bound == max(sum(abs(c) * 18 ** len(w) * prod(norms[y] for y in w) for c, w in side) for side in sides)
        w = width(probe)
        assert 2**w > 2 * probe.bound
        for fact in probe.facts:
            for side in fact:
                assert all(abs(s) <= probe.bound for v in probe.side(side) for s in unpack(v, w))


def test_albert_verb_builds_no_operator(monkeypatch):
    """`albert --samples 20` builds no AlbertOperator: every operator fact is
    read off a probe."""

    def refuse(*args):
        raise AssertionError("AlbertOperator built")

    monkeypatch.setattr(AlbertOperator, "__init__", refuse)
    for seed in ("1", "42"):
        code, report = run_command(["albert", "--samples", "20", "--seed", seed])
        assert code == 0 and report["verdict"] == "confirmed"


# -- results the operators compute -------------------------------------------


def test_scale_refuses_inexact_scalars():
    """AlbertElement.scale takes an int or a Fraction and scale_int an int;
    anything else is a TypeError, on operators over 1 and over another den."""
    a = random_element(random.Random(49))
    for bad in (0.5, "2", None, 1.0):
        with pytest.raises(TypeError):
            a.scale(bad)
    assert a.scale(Fraction(1, 2)) == AlbertElement(a.num, 2)
    for op in (AlbertOperator.identity(), r_op(a)):
        for bad in (0.5, "2", None, Fraction(1, 2), 2.0):
            with pytest.raises(TypeError):
                op.scale_int(bad)
    assert AlbertOperator.identity().scale_int(3) == AlbertOperator([[3 * int(i == j) for j in range(27)] for i in range(27)])


def test_computed_operators_have_canonical_stores():
    """Every operator result (r_op, u_op, @, +, -, scale_int) on sampled,
    fractional, zero and identity operators has the store the public
    constructor gives its value: 27 tuples of 27 ints in lowest terms over a
    positive den."""
    rng = random.Random(50)
    a, b = sample_zero_pair(rng)
    f = frac_element(rng)
    assert f.den != 1
    ops = [r_op(a), r_op(b), u_op(a), r_op(f), u_op(f)]
    ops += [AlbertOperator([[0] * 27 for _ in range(27)], 5), AlbertOperator.identity(), r_op(UNIT)]
    ops.append(AlbertOperator([[rng.randint(-9, 9) for _ in range(27)] for _ in range(27)], 6))
    assert {op.den for op in ops} != {1}
    results = list(ops)
    for p in ops:
        results += [p.scale_int(k) for k in (0, 2, -3)]
        for q in ops:
            results += [p @ q, p + q, p - q]
    for r in results:
        assert type(r.num) is tuple and len(r.num) == 27
        assert all(type(row) is tuple and len(row) == 27 and all(type(x) is int for x in row) for row in r.num)
        fresh = AlbertOperator(r.num, r.den)
        assert (r.num, r.den) == (fresh.num, fresh.den) and r.den > 0
