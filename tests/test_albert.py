"""The 27-dimensional exceptional Jordan algebra: split octonions as 8-tuples
under zorn_mul, zorn_conj and zorn_norm, cubic form data, operator
identities, and zero-product commutation."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

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
    zorn_conj,
    zorn_mul,
    zorn_norm,
)
from jvu.cli import run_command

E11 = AlbertElement.diag_idempotent(0)
E22 = AlbertElement.diag_idempotent(1)
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
        p = _product2(a, b).coords()
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


def test_structure_constants_pinned():
    """The r_op table is exact integer data: any change to how it is built
    must leave it entry-for-entry the same."""
    digest = hashlib.sha256(repr(albert._structure_constants()).encode()).hexdigest()
    assert digest == "2cf9784edc962763580996071c48cb5965178dbd2e6bae5ef493f7e9822d5105"


def test_structure_constants_from_27_packed_products(monkeypatch):
    """The table read off one packed _product2 per basis element equals, entry
    for entry, the table of all 378 basis pairs multiplied one at a time, and
    one build makes exactly 27 _product2 calls."""
    basis = [AlbertElement.basis(k) for k in range(27)]
    reference = [[()] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            row = tuple((k, c) for k, c in enumerate(_product2(basis[i], basis[j]).num) if c)
            reference[i][j] = reference[j][i] = row
    assert sum(1 for i in range(27) for j in range(i, 27)) == 378
    calls = []

    def counted(a, b):
        calls.append(1)
        return _product2(a, b)

    monkeypatch.setattr(albert, "_product2", counted)
    albert._structure_constants.cache_clear()
    try:
        table = albert._structure_constants()
    finally:
        albert._structure_constants.cache_clear()
    assert len(calls) == 27
    assert table == tuple(map(tuple, reference))
    assert all(-2 <= c <= 2 for row in reference for entry in row for _, c in entry)


# -- operators ---------------------------------------------------------------


def test_r_op_of_unit_is_identity_matrix():
    assert (r_op(UNIT) - AlbertOperator.identity()).is_zero()


def test_r_op_reproduces_multiplication():
    rng = random.Random(28)
    for _ in range(10):
        a, x = random_element(rng), random_element(rng)
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
    a1, b1 = sample_zero_pair(42)
    a2, b2 = sample_zero_pair(42)
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
    U-images J_0 = U_{1-e}(J), J_1 = U_e(J) that the sampler draws from."""
    re = r_op(E11)
    assert len(left_kernel(re)) == 10
    assert len(left_kernel(u_op(UNIT - E11))) == 17  # image of dimension 10
    assert len(left_kernel(re - AlbertOperator.identity())) == 1
    assert len(left_kernel(u_op(E11))) == 26  # image of dimension 1
    # the half eigenspace fills the rest of the 27 dimensions
    half_identity = AlbertOperator([[1 if i == j else 0 for j in range(27)] for i in range(27)], 2)
    assert len(left_kernel(re - half_identity)) == 16
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


def test_check_zero_pair_builds_each_operator_once(monkeypatch):
    """R_a, R_b, R_{a^2}, R_{b^2} are 4 r_op calls; R_a^2, R_b^2, R_{b^2} R_a
    and the commutators and collapse over them are 12 operator products."""
    a, b = sample_zero_pair(41)
    calls = {"r_op": 0, "matmul": 0}
    r_op_orig, matmul_orig = albert.r_op, AlbertOperator.__matmul__

    def counted_r_op(x):
        calls["r_op"] += 1
        return r_op_orig(x)

    def counted_matmul(p, q):
        calls["matmul"] += 1
        return matmul_orig(p, q)

    monkeypatch.setattr(albert, "r_op", counted_r_op)
    monkeypatch.setattr(AlbertOperator, "__matmul__", counted_matmul)
    assert all_hold(check_zero_pair(a, b))
    assert calls == {"r_op": 4, "matmul": 12}


def off_by_one(op):
    """op with the value of entry (3, 5) raised by one."""
    return op + AlbertOperator([[int((i, j) == (3, 5)) for j in range(27)] for i in range(27)])


def perturb_r_op(monkeypatch, target):
    """Make albert.r_op return R_target with one entry off by one."""
    r_op_orig = albert.r_op
    monkeypatch.setattr(albert, "r_op", lambda x: off_by_one(r_op_orig(x)) if x == target else r_op_orig(x))


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
    """A wrong R_a, R_b, R_{a^2} or R_{b^2} turns every operator check that
    reads it False on a pinned pair, so no check compares a value with itself."""
    a, b = sample_zero_pair(41)
    assert all_hold(check_zero_pair(a, b))
    target = {"R_a": a, "R_b": b, "R_a2": jordan_mul(a, a), "R_b2": jordan_mul(b, b)}[operator]
    perturb_r_op(monkeypatch, target)
    checks = check_zero_pair(a, b)
    assert {k for k in albert.OPERATOR_CHECKS if not getattr(checks, k)} == flipped


def test_operator_identity_fails_with_wrong_r_bab(monkeypatch):
    """check_operator_identity turns False when R_{(ba)b} is off by one entry."""
    rng = random.Random(36)
    a, b = random_element(rng), random_element(rng)
    assert check_operator_identity(a, b)
    perturb_r_op(monkeypatch, jordan_mul(jordan_mul(b, a), b))
    assert not check_operator_identity(a, b)


def test_operator_store_is_immutable():
    """The canonical store that == compares is a tuple of 27 tuples."""
    ra = r_op(sample_zero_pair(41)[0])
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
    ra, rb = r_op(a), r_op(b)
    assert not zero_pair_operator_collapse(ra, rb @ rb, r_op(jordan_mul(b, b)) @ ra)


def test_nonvacuous_commutator_exists():
    rng = random.Random(1)
    a, b = find_noncommuting_pair(rng)
    assert not jordan_mul(a, b).is_zero()
    assert u_op(a) @ u_op(b) != u_op(b) @ u_op(a)


def test_scaling_invariance_of_zero_product_checks():
    """The checked statements are homogeneous in each argument, so integer
    rescaling (as done by the sampler) cannot change any verdict."""
    a, b = sample_zero_pair(7)
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
        p, q = _product2(a, b), jordan_mul(a, b).scale(2)
        assert p == q and (p.num, p.den) == (q.num, q.den)


def test_products_build_no_fraction(monkeypatch):
    """jordan_mul, _product2, r_op and apply run on the integer store alone."""
    rng = random.Random(47)
    a, b = frac_element(rng), frac_element(rng)
    albert._structure_constants()

    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(albert, "Fraction", refuse)
    p = jordan_mul(a, b)
    assert _product2(a, b) == p.scale(2)
    assert r_op(b).apply(a) == p


# -- the packed operator product ----------------------------------------------


def plain_matmul(p, q):
    """The reference product: the 27x27 integer triple loop on the stores."""
    num = [[sum(p.num[i][k] * q.num[k][j] for k in range(27)) for j in range(27)] for i in range(27)]
    return AlbertOperator(num, p.den * q.den)


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


def test_packed_product_matches_triple_loop():
    """The packed product equals the plain triple loop, store for store, on
    sampled operators, signed and fractional entries, zero and the identity,
    entries above 2^64, lopsided factors and the slot-width bound."""
    rng = random.Random(48)
    a, b = sample_zero_pair(rng)
    ra, rb = r_op(a), r_op(b)
    sampled = [ra, rb @ rb, u_op(a)]
    fractional = [r_op(frac_element(rng)) for _ in range(2)]
    fractional.append(AlbertOperator([[rng.randint(-9, 9) for _ in range(27)] for _ in range(27)], 35))
    zero, one = AlbertOperator([[0] * 27 for _ in range(27)]), AlbertOperator.identity()
    big = AlbertOperator([[rng.randint(-(2**80), 2**80) for _ in range(27)] for _ in range(27)], 7)
    tiny = AlbertOperator([[rng.randint(-1, 1) for _ in range(27)] for _ in range(27)])
    ops = sampled + fractional + [zero, one, big, tiny]
    assert max(abs(x) for row in big.num for x in row) > 2**64
    assert {op.den for op in fractional} != {1} and any(x < 0 for op in fractional for row in op.num for x in row)
    pairs = [(p, q) for p in ops for q in ops]
    # the bound edge: every entry +M against every entry +M or -M, and a sign
    # pattern per row, so output entries reach +27 M^2 and -27 M^2 exactly
    m = 2**40 + 3
    plus = AlbertOperator([[m] * 27 for _ in range(27)])
    minus = AlbertOperator([[-m] * 27 for _ in range(27)])
    mixed = AlbertOperator([[m if (i + j) % 2 else -m for j in range(27)] for i in range(27)])
    pairs += [(plus, plus), (plus, minus), (minus, plus), (plus, mixed), (mixed, plus)]
    for p, q in pairs:
        got, want = p @ q, plain_matmul(p, q)
        assert (got.num, got.den) == (want.num, want.den)
    extremes = [max(x for row in (p @ q).num for x in row) for p, q in [(plus, plus), (minus, minus)]]
    assert extremes == [27 * m * m] * 2
    assert min(x for row in (plus @ minus).num for x in row) == -27 * m * m


def record_paths(monkeypatch):
    """Patch the operator product to append, per call, "word" when it read
    its 27 rows through ``albert._words`` and "plain" when it read none."""
    paths, reads = [], []
    words, matmul = albert._words, AlbertOperator.__matmul__
    monkeypatch.setattr(albert, "_words", lambda acc: reads.append(acc) or words(acc))

    def spy(p, q):
        reads.clear()
        out = matmul(p, q)
        assert len(reads) in (0, 27)
        paths.append("word" if reads else "plain")
        return out

    monkeypatch.setattr(AlbertOperator, "__matmul__", spy)
    return paths


def test_word_product_boundary_matches_triple_loop(monkeypatch):
    """Products whose entries reach +-27 M^2 just inside one signed 64-bit
    word take the one-word path, and one step past it the plain product; a
    zero factor against entries of 2^63 and more takes the word path only
    when those entries are on the left.  Every product equals the plain
    triple loop store for store, den included."""
    paths = record_paths(monkeypatch)

    def factors(m):
        """Pairs whose product entries are all +-27 m^2 over the product of
        the dens: constant factors, and a sign per row against a sign per
        column, whose product rows hold both signs."""
        plus = AlbertOperator([[m] * 27 for _ in range(27)], 7)
        minus = AlbertOperator([[-m] * 27 for _ in range(27)])
        by_row = AlbertOperator([[m if i % 2 else -m] * 27 for i in range(27)])
        by_col = AlbertOperator([[m if j % 2 else -m for j in range(27)] for _ in range(27)], 5)
        return [(plus, plus), (plus, minus), (minus, plus), (minus, minus), (by_row, by_col), (by_col, by_row)]

    inside = isqrt((2**63 - 1) // 27)
    assert 27 * inside**2 < 2**63 <= 27 * (inside + 1) ** 2
    rng = random.Random(51)
    big = AlbertOperator([[rng.choice((1, -1)) * rng.randint(2**63, 2**70) for _ in range(27)] for _ in range(27)], 3)
    zero = AlbertOperator([[0] * 27 for _ in range(27)], 7)
    cases = [(inside, factors(inside), ["word"] * 6), (inside + 1, factors(inside + 1), ["plain"] * 6)]
    cases.append((None, [(big, zero), (zero, big)], ["word", "plain"]))
    for m, pairs, want_paths in cases:
        paths.clear()
        for p, q in pairs:
            got, want = p @ q, plain_matmul(p, q)
            assert (got.num, got.den) == (want.num, want.den)
            if m is not None:
                entries = {Fraction(x, got.den) for row in got.num for x in row}
                assert {abs(x) for x in entries} == {Fraction(27 * m * m, p.den * q.den)}
        assert paths == want_paths


def test_albert_verb_products_stay_on_words(monkeypatch):
    """Every operator product the albert verb makes takes the word path, so
    the plain product serves only inputs no verb produces."""
    paths = record_paths(monkeypatch)
    for seed in ("1", "42"):
        paths.clear()
        code, report = run_command(["albert", "--samples", "20", "--seed", seed])
        assert code == 0 and report["verdict"] == "confirmed"
        assert paths and set(paths) == {"word"}


def test_product_routes_give_the_same_verdicts(monkeypatch):
    """check_zero_pair, check_operator_identity and find_noncommuting_pair
    give the same results from the packed product as from the triple loop."""

    def verdicts():
        rng = random.Random(52)
        pairs = [sample_zero_pair(rng) for _ in range(2)]
        zero_pairs = [check_zero_pair(a, b) for a, b in pairs]
        zero_pairs.append(check_zero_pair(pairs[0][0].scale(Fraction(2, 3)), pairs[0][1]))
        identities = [check_operator_identity(random_element(rng), frac_element(rng)) for _ in range(2)]
        a, b = find_noncommuting_pair(rng)
        return zero_pairs, identities, (a.num, a.den, b.num, b.den)

    packed = verdicts()
    monkeypatch.setattr(AlbertOperator, "__matmul__", plain_matmul)
    assert verdicts() == packed
    assert all(all_hold(checks) for checks in packed[0]) and packed[1] == [True, True]


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
    positive den, and a largest |entry| equal to a fresh scan."""
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
        assert r._max_abs() == max(abs(x) for row in r.num for x in row)
