"""Jordan operations, the bracketing identity, and spanning-set closures."""

import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from jvu import expr
from jvu.expr import parse_expr
from jvu.fields import make_field
from jvu.freealg import FreePoly, GeneratorSet
from jvu.jordan import (
    COMMUTATOR_WITNESS,
    SYMMETRIZED_PRODUCT,
    U_IMAGE,
    GradedSpanTable,
    JordanElement,
    _spanning_candidates,
    circ,
    dominated,
    je_circ,
    je_square,
    je_u,
    je_ulin,
    jordan_closure_table,
    recipe_str,
    spanning_is_fixed_point,
    square,
    symmetric_component_dim,
    u_apply,
    u_lin,
    commutator_identity_residual,
)
from jvu.ideals import outer_ideal_component
from jvu.linalg import to_vector, words_of_multidegree

QQ = make_field("rationals")
GF2 = make_field("prime-field", 2)
GF3 = make_field("prime-field", 3)
GF5 = make_field("prime-field", 5)

G1 = GeneratorSet(("x",))
G3 = GeneratorSet(("x", "y", "z"))
G4 = GeneratorSet(("x", "y", "z", "t"))


def gen(gens, field, name):
    return FreePoly.generator(gens, field, name)


def test_circ_examples():
    x, y = gen(G3, QQ, "x"), gen(G3, QQ, "y")
    assert circ(x, y) == x * y + y * x
    assert circ(x, x) == (x * x).scale(QQ.from_int(2))
    x2, dummy = gen(G3, GF2, "x"), None
    assert circ(x2, x2).is_zero()


def test_circ_symmetric_random():
    rng = random.Random(12)
    for _ in range(50):
        p, q = rand_poly(rng, G3, QQ), rand_poly(rng, G3, QQ)
        assert circ(p, q) == circ(q, p)


def test_u_apply_examples():
    x, z = gen(G3, QQ, "x"), gen(G3, QQ, "z")
    assert u_apply(x, z) == x * z * x
    y = gen(G3, QQ, "y")
    xy = circ(x, y)
    assert u_apply(xy, z) == xy * z * xy
    a = rand_poly(random.Random(13), G3, QQ)
    assert u_apply(FreePoly.one(G3, QQ), a) == a


def test_u_lin_examples():
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    assert u_lin(x, z, y) == (x * y * z).symmetrize()
    b, a = gen(G3, QQ, "y"), gen(G3, QQ, "z")
    assert u_lin(b, b, a) == u_apply(b, a).scale(QQ.from_int(2))
    one = FreePoly.one(G3, QQ)
    assert u_lin(x, one, a) == circ(x, a)


def test_u_apply_via_circle_in_char_not_2():
    """b a b = ((a o b) o b)/2 - (a o (b b))/2: the linear-mode reduction of U."""
    rng = random.Random(14)
    half = Fraction(1, 2)
    for _ in range(50):
        a, b = rand_poly(rng, G3, QQ), rand_poly(rng, G3, QQ)
        lhs = u_apply(b, a)
        rhs = circ(circ(a, b), b).scale(half) - circ(a, b * b).scale(half)
        assert lhs == rhs


def test_commutator_witness_examples():
    """The witness text is z[U_x, U_y] = y x z x y - x y z y x: it vanishes
    at y = x and changes sign when x and y swap."""
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    witness = parse_expr(COMMUTATOR_WITNESS, G3, QQ)
    assert witness == y * x * z * x * y - x * y * z * y * x
    assert parse_expr(COMMUTATOR_WITNESS.replace("y", "x"), G3, QQ).is_zero()
    swapped = parse_expr(COMMUTATOR_WITNESS.translate(str.maketrans("xy", "yx")), G3, QQ)
    assert (witness + swapped).is_zero()


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_commutator_identity_residual_zero(field):
    assert commutator_identity_residual(field).is_zero()


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_lemma1_texts_evaluate_to_hand_built(field):
    """Each claim text parses to the polynomial built from the operations."""
    x, y, z = (gen(G3, field, n) for n in "xyz")
    assert parse_expr(COMMUTATOR_WITNESS, G3, field) == u_apply(y, u_apply(x, z)) - u_apply(x, u_apply(y, z))
    assert parse_expr(SYMMETRIZED_PRODUCT, G3, field) == (circ(x, y) * z * x * y).symmetrize()
    assert parse_expr(U_IMAGE, G3, field) == u_apply(circ(x, y), z)


def test_commutator_identity_gf5_frozen_expansion():
    """Independent oracle: the eight associative words expanded by hand."""
    x, y, z = (gen(G3, GF5, n) for n in "xyz")
    lhs = parse_expr(COMMUTATOR_WITNESS, G3, GF5)
    assert lhs.terms == {(1, 0, 2, 0, 1): 1, (0, 1, 2, 1, 0): 4}
    sym_part = (circ(x, y) * z * x * y).symmetrize()
    assert sym_part.terms == {(0, 1, 2, 0, 1): 1, (1, 0, 2, 0, 1): 2, (1, 0, 2, 1, 0): 1}
    u_part = u_apply(circ(x, y), z)
    assert u_part.terms == {
        (0, 1, 2, 0, 1): 1,
        (0, 1, 2, 1, 0): 1,
        (1, 0, 2, 0, 1): 1,
        (1, 0, 2, 1, 0): 1,
    }
    assert lhs == sym_part - u_part


def _closure(gens, d, mode, field):
    return jordan_closure_table(gens, d, mode, False, field)


def _in_span(table, d, p):
    return table.subspace(d).contains(to_vector(p, table.component_basis(d)))


def test_spanning_multilinear_three_gens_linear():
    """Hand enumeration: the 3 symmetrized classes {xyz}, {xzy}, {yxz} span,
    and the Jordan span reaches all of them."""
    d = (1, 1, 1)
    table = _closure(G3, d, "linear", QQ)
    assert table.dim(d) == 3
    for w in ((0, 1, 2), (0, 2, 1), (1, 0, 2)):
        assert _in_span(table, d, FreePoly.from_word(G3, QQ, w).symmetrize())


def test_spanning_multilinear_four_gens_gf2_dim_11():
    assert _closure(G4, (1, 1, 1, 1), "quadratic", GF2).dim((1, 1, 1, 1)) == 11


def test_spanning_one_generator_cube():
    x = gen(G1, QQ, "x")
    for mode in ("linear", "quadratic"):
        table = _closure(G1, (3,), mode, QQ)
        assert table.dim((3,)) == 1
        assert _in_span(table, (3,), x * x * x)


def test_spanning_elements_are_symmetric():
    """Jordan span lies inside the reverse-fixed elements."""
    d = (1, 1, 1, 1)
    for field in (QQ, GF2):
        reps = _closure(G4, d, "quadratic", field).reps(d)
        assert len(reps) >= 11
        for e in reps:
            assert e.value.reverse() == e.value
            assert e.value.is_homogeneous(d)


def test_spanning_fixed_point_certified():
    for field, mode in ((GF2, "quadratic"), (QQ, "linear")):
        table = jordan_closure_table(G3, (2, 2, 1), mode, False, field)
        assert spanning_is_fixed_point(table, mode)


def test_linear_and_quadratic_spans_agree_over_q():
    """With 1/2 available the two operation alphabets span the same components."""
    for d in ((1, 1, 1, 1), (2, 1, 1, 0)):
        lin = _closure(G4, d, "linear", QQ)
        quad = _closure(G4, d, "quadratic", QQ)
        assert lin.dim(d) == quad.dim(d)
        for e in quad.reps(d):
            assert lin.contains(e)


def test_linear_mode_is_smaller_in_char2():
    """Over GF(2) the circle alphabet alone cannot span the multilinear
    component; the quadratic alphabet is genuinely needed."""
    d = (1, 1, 1)
    assert _closure(G3, d, "linear", GF2).dim(d) < _closure(G3, d, "quadratic", GF2).dim(d) == 3


def test_degree_bound_enforced():
    """Total degree 10 is above ``MAX_DEGREE_BOUND``; refused before any work."""
    with pytest.raises(ValueError):
        _closure(G4, (3, 3, 2, 2), "quadratic", QQ)


def test_symmetric_component_dims():
    assert symmetric_component_dim(G4, (1, 1, 1, 1), GF2) == 12
    assert symmetric_component_dim(G4, (1, 1, 1, 1), QQ) == 12
    assert symmetric_component_dim(G3, (1, 1, 1), QQ) == 3
    assert symmetric_component_dim(G1, (2,), QQ) == 1


def test_symmetric_component_dim_formula_multilinear():
    """No multilinear word is a palindrome, so the dimension is words/2."""
    from math import factorial

    for gens, d in ((G3, (1, 1, 1)), (G4, (1, 1, 1, 1))):
        n = len(gens)
        expected = factorial(n) // 2
        assert symmetric_component_dim(gens, d, QQ) == expected
        assert symmetric_component_dim(gens, d, GF2) == expected


def test_symmetric_component_dim_char2_palindrome_collapse():
    """(2,1): words xxy, xyx, yxx; the palindrome's symmetrization dies mod 2
    but survives over Q."""
    g2 = GeneratorSet(("x", "y"))
    assert symmetric_component_dim(g2, (2, 1), QQ) == 2
    assert symmetric_component_dim(g2, (2, 1), GF2) == 1


def test_recipes_evaluate_and_render():
    x = JordanElement.generator(G3, QQ, "x")
    y = JordanElement.generator(G3, QQ, "y")
    e = je_circ(x, y)
    assert recipe_str(e.recipe) == "circ(x, y)"
    assert parse_expr(recipe_str(e.recipe), G3, QQ) == e.value
    for elem in _closure(G4, (1, 1, 1, 1), "quadratic", GF2).reps((1, 1, 1, 1)):
        assert parse_expr(recipe_str(elem.recipe), G4, GF2) == elem.value


def test_square_polarizes_to_circ():
    rng = random.Random(16)
    for _ in range(50):
        p, q = rand_poly(rng, G3, QQ), rand_poly(rng, G3, QQ)
        assert square(p + q) == square(p) + square(q) + circ(p, q)


def _reference_candidates(reps, old_ids, mode, limit):
    """The per-candidate filter that degree bucketing replaced: walk every
    tuple of representatives and test its degree sum against the limit.  The
    one shortcut, skipping a (b, c) pair already over the limit, is valid
    because degrees are nonnegative.  Yields recipes, not products."""

    def fits(*elems):
        return all(sum(c) <= m for c, m in zip(zip(*(e.multidegree for e in elems)), limit))

    def all_old(*elems):
        return all(id(e) in old_ids for e in elems)

    for i, v in enumerate(reps):
        if mode == "quadratic" and not all_old(v) and fits(v, v):
            yield ("square", v.recipe)
        for w in reps[i:]:
            if not all_old(v, w) and fits(v, w):
                yield ("circ", v.recipe, w.recipe)
    if mode != "quadratic":
        return
    for b in reps:
        for a in reps:
            if not all_old(b, a) and fits(b, b, a):
                yield ("U", b.recipe, a.recipe)
    for i, b in enumerate(reps):
        for c in reps[i + 1 :]:
            if not fits(b, c):
                continue
            for a in reps:
                if not all_old(b, c, a) and fits(b, c, a):
                    yield ("Ulin", b.recipe, c.recipe, a.recipe)


@functools.cache
def _closure_reps(gens, limit, mode, unital, field):
    """The closure's representatives, computed once per case and shared by
    its no-old and half-old runs."""
    return jordan_closure_table(gens, limit, mode, unital, field).all_reps()


@pytest.mark.parametrize("old_half", [False, True], ids=["no-old", "half-old"])
@pytest.mark.parametrize(
    "gens, limit, mode, unital, field",
    [
        (G3, (2, 2, 1), "quadratic", True, GF2),
        (G3, (3, 2, 1), "quadratic", True, GF2),
        (G3, (2, 2, 2), "quadratic", False, GF2),
        (G3, (2, 2, 1), "linear", False, QQ),
        (G3, (3, 2, 2), "linear", False, QQ),
        (G4, (1, 1, 1, 1), "quadratic", False, GF2),
    ],
    ids=["gf2-quad-221-unital", "gf2-quad-321-unital", "gf2-quad-222", "q-lin-221", "q-lin-322", "gf2-quad-1111"],
)
def test_spanning_candidates_match_reference(gens, limit, mode, unital, field, old_half):
    """Degree-bucketed enumeration yields exactly the reference stream, in
    order: the order fixes recipes, inserted lists and certificate indices."""
    reps = _closure_reps(gens, limit, mode, unital, field)
    old_ids = {id(e) for e in reps[: len(reps) // 2]} if old_half else set()
    got = [recipe_str(c.recipe) for c in _spanning_candidates(reps, old_ids, mode, limit)]
    want = [recipe_str(r) for r in _reference_candidates(reps, old_ids, mode, limit)]
    assert got == want
    assert got  # the case enumerates something


#: (inserted count, sha256) of the closure's insert stream: per multidegree
#: in ``table.multidegrees()`` order, a "d dim" line and then the recipe of
#: every inserted element.  Recorded before the fixed-point loop moved into
#: ``GradedSpanTable.close``; the candidate oracle above fixes the order
#: within a round, this fixes the rounds.
CLOSURE_STREAMS = {
    "gf2-quad-321-unital": (1055, "5e53b9811e3704d897c45309a3ce46a5ad59aa5e6b324c12096db950f721ccb9"),
    "q-lin-222": (246, "9ae889df6c3dc429a5702bf549977b57a63f884811679cca94fd886f1d0f4c8c"),
}


@pytest.mark.parametrize(
    "case, limit, mode, unital, field",
    [
        ("gf2-quad-321-unital", (3, 2, 1), "quadratic", True, GF2),
        ("q-lin-222", (2, 2, 2), "linear", False, QQ),
    ],
    ids=["gf2-quad-321-unital", "q-lin-222"],
)
def test_closure_insert_stream_pinned(case, limit, mode, unital, field):
    table = jordan_closure_table(G3, limit, mode, unital, field)
    lines = []
    for d in table.multidegrees():
        lines.append(f"{d} {table.dim(d)}")
        lines.extend(recipe_str(e.recipe) for e in table.inserted(d))
    count = len(lines) - len(table.multidegrees())
    assert (count, hashlib.sha256("\n".join(lines).encode()).hexdigest()) == CLOSURE_STREAMS[case]


_SYMMETRIC_CASES = [(QQ, "linear"), (GF2, "quadratic"), (GF3, "linear"), (GF3, "quadratic")]
_SYMMETRIC_IDS = ["q-linear", "gf2-quadratic", "gf3-linear", "gf3-quadratic"]
_SYMMETRIC_LIMITS = [(2, 2, 1), (3, 2, 1), (2, 2, 2)]


@functools.cache
def _closure_and_ideal_tables(field, mode, limit):
    """The closure table at limit, and the outer ideal of x o y at limit
    with the hull it multiplies by."""
    f = je_circ(JordanElement.generator(G3, field, "x"), JordanElement.generator(G3, field, "y"))
    outer = outer_ideal_component(f, limit, mode, field)
    return jordan_closure_table(G3, limit, mode, mode == "quadratic", field), outer.table, outer.hull


@pytest.mark.parametrize("limit", _SYMMETRIC_LIMITS, ids=lambda d: "".join(map(str, d)))
@pytest.mark.parametrize("field, mode", _SYMMETRIC_CASES, ids=_SYMMETRIC_IDS)
def test_table_elements_are_reversal_fixed(field, mode, limit):
    """je_circ and je_ulin rely on it: every representative and every
    inserted element of a closure or outer-ideal table is fixed by reversal."""
    for table in _closure_and_ideal_tables(field, mode, limit):
        inserted = [e for d in table.multidegrees() for e in table.inserted(d)]
        assert inserted and all(e.value.reverse() == e.value for e in inserted)
        assert all(e.value.reverse() == e.value for e in table.all_reps())


@pytest.mark.parametrize("field", [QQ, GF2], ids=["q", "gf2"])
def test_jordan_element_refuses_a_value_not_fixed_by_reversal(field):
    """je_circ(e, z) is e*z + z*e only when e is reversal-fixed, so the
    constructor refuses x*y whatever its recipe, and takes x*y*x."""
    x, y = gen(G3, field, "x"), gen(G3, field, "y")
    with pytest.raises(ValueError, match="symmetric under reversal"):
        JordanElement(x * y, ("circ", ("gen", "x"), ("gen", "y")))
    assert JordanElement(x * y * x, ("U", ("gen", "x"), ("gen", "y"))).multidegree == (2, 1, 0)


def test_span_table_contains_agrees_with_insert():
    """contains refuses a non-homogeneous element with insert's ValueError,
    answers False on a component with no span without creating one, and
    still refuses an element over another generator set."""
    g2 = GeneratorSet(("x", "y"))
    x, y = (JordanElement.generator(g2, QQ, name) for name in "xy")
    table = GradedSpanTable(g2, QQ, (2, 1))
    assert table.insert(je_circ(x, y))
    mixed = JordanElement(x.value + y.value, None)
    for query in (table.insert, table.contains):
        with pytest.raises(ValueError, match="homogeneous elements only"):
            query(mixed)
    assert table.contains(je_circ(y, x))
    assert not table.contains(je_u(x, x)) and not table.contains(je_square(x))
    assert set(table._spans) == {(1, 1)} and table.dim((3, 0)) == 0
    a, b = (JordanElement.generator(GeneratorSet(("a", "b")), QQ, name) for name in "ab")
    for foreign in (je_circ(a, b), je_u(a, a)):
        with pytest.raises(ValueError, match="mismatched generator sets"):
            table.contains(foreign)


@pytest.mark.parametrize("limit", _SYMMETRIC_LIMITS, ids=lambda d: "".join(map(str, d)))
@pytest.mark.parametrize("field, mode", _SYMMETRIC_CASES, ids=_SYMMETRIC_IDS)
def test_symmetric_products_match_the_grammar(field, mode, limit):
    """On seeded samples of table representatives whose degrees sum to at
    most the limit, je_circ and je_ulin equal the grammar's general
    ``expr.circ`` (pq + qp) and ``expr.u_lin`` (bac + cab)."""
    rng = random.Random(f"{field!r}/{mode}/{limit}")
    reps = [e for table in _closure_and_ideal_tables(field, mode, limit) for e in table.all_reps()]

    def sample(k):
        while True:
            picked = [rng.choice(reps) for _ in range(k)]
            if dominated(tuple(map(sum, zip(*(e.multidegree for e in picked)))), limit):
                return picked

    for _ in range(20):
        a, b = sample(2)
        assert je_circ(a, b).value == expr.circ(a.value, b.value)
        b, c, a = sample(3)
        assert je_ulin(b, c, a).value == expr.u_lin(b.value, c.value, a.value)


def test_symmetric_products_make_one_product_chain(monkeypatch):
    """je_circ makes one FreePoly product and je_ulin two."""
    calls = []
    mul = FreePoly.__mul__
    monkeypatch.setattr(FreePoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    x, y, z = (JordanElement.generator(G3, QQ, n) for n in "xyz")
    xy = je_circ(x, y)
    assert len(calls) == 1
    calls.clear()
    je_ulin(xy, z, x)
    assert len(calls) == 2


def _reversible_dim(gens, e):
    """dim H_e, the reversal-fixed part of multidegree e: reversal fixes each
    palindrome and pairs off the other words."""
    words = words_of_multidegree(gens, e)
    return (len(words) + sum(w == w[::-1] for w in words)) // 2


@pytest.mark.parametrize("limit", [(4, 2, 1), (3, 3, 1), (3, 2, 2)], ids=lambda d: "".join(map(str, d)))
@pytest.mark.parametrize("field, mode", _SYMMETRIC_CASES, ids=_SYMMETRIC_IDS)
def test_closure_meets_cohn_reversibility(field, mode, limit):
    """Cohn's reversibility theorem: for three generators the Jordan algebra
    they generate is all of H, in every characteristic.  So every nonzero
    multidegree e <= limit of the non-unital closure of x, y, z has dimension
    (#words(e) + #palindromes(e)) / 2, a count with no linear algebra."""
    table = jordan_closure_table(G3, limit, mode, False, field)
    every = [e for e in itertools.product(*(range(c + 1) for c in limit)) if any(e)]
    assert [table.dim(e) for e in every] == [_reversible_dim(G3, e) for e in every]
