"""Jordan operations, the bracketing identity, and spanning-set closures."""

import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import dense, rand_nonzero_scalar, rand_poly
from jvu import expr
from jvu.expr import parse_expr
from jvu.fields import field_from_name
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
from jvu.ideals import outer_ideal_component, outer_ideal_is_closed
from jvu.linalg import ComponentBasis, OrbitBasis, Subspace, coordinates, words_of_multidegree

QQ = field_from_name("q")
GF2 = field_from_name("gf2")
GF3 = field_from_name("gf3")
GF5 = field_from_name("gf5")

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
    return table.subspace(d).contains(coordinates(p, table.component_basis(d)))


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


def test_symmetric_component_dim_matches_span_rank():
    """The orbit count equals the rank of span{ {w} } found by elimination,
    on every component <= (2,2,2) and <= (1,1,1,1), zero multidegrees included."""

    def span_dim(gens, d, field):
        cb = ComponentBasis(gens, d)
        span = Subspace(field, len(cb))
        for w in cb.words:
            sym = FreePoly.from_word(gens, field, w).symmetrize()
            if not sym.is_zero():
                span.insert(coordinates(sym, cb))
        return span.dim

    for gens, top in ((G3, (2, 2, 2)), (G4, (1, 1, 1, 1))):
        for d in itertools.product(*(range(t + 1) for t in top)):
            for field in (QQ, GF2, GF3):
                assert symmetric_component_dim(gens, d, field) == span_dim(gens, d, field), (d, field)


def test_recipes_evaluate_and_render():
    x = JordanElement.generator(G3, QQ, "x")
    y = JordanElement.generator(G3, QQ, "y")
    e = je_circ(x, y)
    assert recipe_str(e.recipe) == "circ(x, y)"
    assert parse_expr(recipe_str(e.recipe), G3, QQ) == e.value
    for elem in _closure(G4, (1, 1, 1, 1), "quadratic", GF2).reps((1, 1, 1, 1)):
        assert parse_expr(recipe_str(elem.recipe), G4, GF2) == elem.value


@pytest.mark.parametrize("field, mode", [(QQ, "linear"), (GF2, "quadratic")], ids=["q-linear", "gf2-quadratic"])
def test_recipes_are_grammar_text(field, mode):
    """A recipe leaf is its own grammar text and an operation node is a tuple
    headed by the ``CALLS`` name it renders as, in the closure and outer-ideal
    tables at (2,2,1); a node with any other head is refused."""

    def is_grammar_text(r):
        if isinstance(r, str):
            return r in G3.names or r == "one"
        return type(r) is tuple and r[0] in expr.CALLS and all(map(is_grammar_text, r[1:]))

    for table in _closure_and_ideal_tables(field, mode, (2, 2, 1)):
        inserted = [e for d in table.multidegrees() for e in table.inserted(d)]
        assert inserted and all(is_grammar_text(e.recipe) for e in inserted)
    x = JordanElement.generator(G3, field, "x")
    assert x.recipe == "x" and JordanElement.unit(G3, field).recipe == "one"
    assert je_square(x).recipe == ("sq", "x")
    assert recipe_str(("U", ("sq", "x"), "one")) == "U(sq(x); one)"
    with pytest.raises(ValueError, match="unknown recipe node"):
        recipe_str(("bogus", "x"))


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
            yield ("sq", v.recipe)
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
        JordanElement(x * y, ("circ", "x", "y"))
    assert JordanElement(x * y * x, ("U", "x", "y")).multidegree == (2, 1, 0)


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


def test_span_table_contains_builds_no_basis_without_a_span():
    """A query at a multidegree above the limit, where no span is, answers
    False and builds no ComponentBasis, so it enumerates no word there."""
    table = jordan_closure_table(G3, (2, 1, 1), "quadratic", False, GF2)
    bases = dict(table._bases)
    x = JordanElement.generator(G3, GF2, "x")
    x8 = je_square(je_square(je_square(x)))
    assert x8.multidegree == (8, 0, 0) and not x8.value.is_zero()
    assert not table.contains(x8)
    assert table._bases == bases and (8, 0, 0) not in table._bases


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
    """Building je_circ makes no FreePoly product and je_ulin one (ba of
    {bac}); the first ``value`` read of each makes one more, a second none."""
    calls = []
    mul = FreePoly.__mul__
    monkeypatch.setattr(FreePoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    x, y, z = (JordanElement.generator(G3, QQ, n) for n in "xyz")
    xy = je_circ(x, y)
    assert len(calls) == 0
    xy.value
    xy.value
    assert len(calls) == 1
    calls.clear()
    xyz = je_ulin(xy, z, x)
    assert len(calls) == 1
    xyz.value
    xyz.value
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


_ORBIT_CASES = [(QQ, "linear"), (GF2, "quadratic"), (GF3, "linear")]
_ORBIT_IDS = ["q-linear", "gf2-quadratic", "gf3-linear"]


@pytest.mark.parametrize("limit", [(2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)], ids=lambda d: "".join(map(str, d)))
@pytest.mark.parametrize("field, mode", _ORBIT_CASES, ids=_ORBIT_IDS)
def test_orbit_spans_match_word_spans(field, mode, limit):
    """Every component of a closure table and of an outer-ideal table,
    eliminated on reversal-orbit columns, equals a word-column ``Subspace``
    fed the same insert stream: the same growth at each insert, the same
    dimension, pivots and RREF rows, and the same verdicts, certificates and
    residuals on seeded queries (rows of the span and symmetrized words)."""
    rng = random.Random(f"orbits/{field!r}/{limit}")
    closure, ideal, _ = _closure_and_ideal_tables(field, mode, limit)
    for table in (closure, ideal):
        for d in table.multidegrees():
            cb, span = table.component_basis(d), table.subspace(d)
            words = Subspace(field, len(cb))
            reps = {id(e) for e in table.reps(d)}
            assert [words.insert(coordinates(e.value, cb)) for e in table.inserted(d)] == [
                id(e) in reps for e in table.inserted(d)
            ]
            assert span.dim == words.dim == table.dim(d)
            assert (span.pivots, span.rows) == (words.pivots, words.rows)
            rows = words.rows
            queries = [FreePoly(G3, field, dict(zip(cb.words, rng.choice(rows)))) for _ in range(min(3, len(rows)))]
            queries += [FreePoly.from_word(G3, field, rng.choice(cb.words)).symmetrize() for _ in range(3)]
            for q in queries:
                v = coordinates(q, cb)
                assert span.membership(v) == words.membership(v)
                assert span.contains(v) == words.contains(v)


@pytest.mark.parametrize("field, mode", _ORBIT_CASES, ids=_ORBIT_IDS)
def test_orbit_fold_of_a_half_product_is_its_symmetrization(field, mode):
    """The orbit coordinates a table folds off the unsymmetrized half H of a
    circle or linearized-U product, expanded to words, are the word
    coordinates of {H}; the product's value is {H}, read once and kept."""
    rng = random.Random(f"fold/{field!r}")
    reps = [e for t in _closure_and_ideal_tables(field, mode, (2, 2, 2)) for e in t.all_reps() if any(e.multidegree)]
    orbit_bases = {}

    def fitting(k):
        while True:
            picked = rng.sample(reps, k)
            if dominated(tuple(map(sum, zip(*(e.multidegree for e in picked)))), (2, 2, 2)):
                return picked

    for _ in range(40):
        for k, make in ((2, je_circ), (3, je_ulin)):
            product = make(*fitting(k))
            half, d = product._half, product._degree
            orbits = orbit_bases.setdefault(d, OrbitBasis(ComponentBasis(G3, d)))
            folded = orbits.fold(half)
            assert orbits.expand(dense(folded)) == dense(coordinates(half.symmetrize(), orbits.basis))
            assert product._half is half  # folding does not symmetrize
            assert product.value == half.symmetrize() and product.value is product.value
            assert dense(orbits.pick(product.value)) == dense(folded)


def test_orbit_views_refuse_asymmetric_and_off_degree_vectors():
    """A table's span and an outer-ideal component take word coordinates of
    reversal-fixed vectors only: an asymmetric vector is refused with
    ValueError, and so is a vector of another component's length."""
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    f = je_circ(JordanElement.generator(G3, QQ, "x"), JordanElement.generator(G3, QQ, "y"))
    comp = outer_ideal_component(f, (2, 2, 1), "linear", QQ)
    cb, span = comp.component_basis, comp.span
    asymmetric = x * y * z * x * y
    for query in (span.contains, span.membership):
        with pytest.raises(ValueError, match="not symmetric under reversal"):
            query(coordinates(asymmetric, cb))
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            query(coordinates(x * y * z, ComponentBasis(G3, (1, 1, 1))))
    with pytest.raises(ValueError, match="not symmetric under reversal"):
        comp.membership(asymmetric)
    with pytest.raises(ValueError, match="not homogeneous"):
        comp.membership(x * y * z)
    orbits = span.orbits
    with pytest.raises(ValueError, match="not homogeneous"):
        orbits.fold(x * y * z)
    with pytest.raises(ValueError, match="mismatched generator sets"):
        orbits.fold(FreePoly.generator(GeneratorSet(("x", "y")), QQ, "x"))
    assert comp.membership(asymmetric + asymmetric.reverse())[0] == "outside"


def test_half_product_where_no_span_is_builds_no_basis():
    """A circle product queried at a multidegree with no span answers by its
    value alone and builds no basis there: False when it is nonzero, True for
    x o x = 2x^2, which is zero over GF(2) though its half x^2 is not."""
    table = jordan_closure_table(G3, (1, 1, 1), "quadratic", False, GF2)
    bases = dict(table._bases)
    x, y = (JordanElement.generator(G3, GF2, n) for n in "xy")
    xyx, xx = je_circ(je_circ(x, y), x), je_circ(x, x)
    assert not xx._half.is_zero() and xx.value.is_zero() and xx.multidegree is None
    assert not table.contains(xyx) and table.contains(je_circ(x, x))
    assert table._bases == bases and (2, 1, 0) not in table._bases and (2, 0, 0) not in table._bases


@pytest.mark.parametrize("field, mode", _ORBIT_CASES, ids=_ORBIT_IDS)
def test_tested_products_are_never_symmetrized(monkeypatch, field, mode):
    """After a closure, every representative has been read as a factor, so a
    fixed-point re-verification symmetrizes nothing: each product it tests
    is folded off its half."""
    table = jordan_closure_table(G3, (2, 2, 1), mode, mode == "quadratic", field)
    calls = []
    symmetrize = FreePoly.symmetrize
    monkeypatch.setattr(FreePoly, "symmetrize", lambda p: calls.append(1) or symmetrize(p))
    assert spanning_is_fixed_point(table, mode)
    assert not calls


@pytest.mark.parametrize("limit", [(2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)], ids=lambda d: "".join(map(str, d)))
@pytest.mark.parametrize("field, mode", _ORBIT_CASES, ids=_ORBIT_IDS)
def test_two_factor_fold_is_the_fold_of_the_product(field, mode, limit):
    """fold(left, right) reads the vector that fold(left*right) reads, on the
    factor pairs (v, w) of circle and (ba, c) of linearized-U products of
    seeded table representatives, each scaled by a seeded nonzero scalar.
    The samples reach a palindrome orbit, Q factors with denominators, and
    over GF(2) an orbit {w, rev w} whose two entries cancel."""
    rng = random.Random(f"fold2/{field!r}/{limit}")
    reps = [e for t in _closure_and_ideal_tables(field, mode, limit) for e in t.all_reps() if any(e.multidegree)]
    orbit_bases, seen = {}, set()

    def fitting(k):
        while True:
            picked = [rng.choice(reps) for _ in range(k)]
            d = tuple(map(sum, zip(*(e.multidegree for e in picked))))
            if dominated(d, limit):
                return picked, d

    for _ in range(60):
        picked, d = fitting(rng.choice((2, 3)))
        v = [e.value.scale(rand_nonzero_scalar(rng, field)) for e in picked]
        left, right = (v[0], v[1]) if len(v) == 2 else (v[0] * v[2], v[1])
        orbits = orbit_bases.setdefault(d, OrbitBasis(ComponentBasis(G3, d)))
        folded = orbits.fold(left, right)
        assert dense(folded) == dense(orbits.fold(left * right))
        hit = {orbits.column[w1 + w2] for w1 in left.num for w2 in right.num}
        if hit & set(orbits.palindromes):
            seen.add("palindrome")
        if folded.den != 1:
            seen.add("denominator")
        if hit - set(folded.cols) - set(orbits.palindromes):  # an orbit w, rev w whose terms cancel
            seen.add("cancelled")
    assert "palindrome" in seen
    assert "denominator" in seen or field.characteristic
    assert "cancelled" in seen or field.characteristic != 2


def test_two_factor_fold_refuses_off_degree_and_mismatched_factors():
    """fold(left, right) refuses a product outside the basis's multidegree,
    a factor over another generator set and factors over two fields."""
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    orbits = OrbitBasis(ComponentBasis(G3, (2, 2, 1)))
    assert dense(orbits.fold(x * y, z * y * x)) == dense(orbits.fold(x * y * z * y * x))
    with pytest.raises(ValueError, match="not homogeneous"):
        orbits.fold(x * y, z * x)
    other = FreePoly.generator(GeneratorSet(("x", "y")), QQ, "x")
    for left, right in ((x * y * z * y, other), (other, x * y * z * y), (other, other)):
        with pytest.raises(ValueError, match="mismatched generator sets"):
            orbits.fold(left, right)
    with pytest.raises(ValueError, match="mismatched fields"):
        orbits.fold(x * y * z * y, gen(G3, GF3, "x"))


@pytest.mark.parametrize("limit", [(2, 2, 1), (3, 2, 2)], ids=lambda d: "".join(map(str, d)))
@pytest.mark.parametrize("field", [QQ, GF3], ids=["q", "gf3"])
def test_linear_reverifiers_multiply_nothing_out(monkeypatch, field, limit):
    """In linear mode every product a re-verification tests is a circle
    product of representatives that the closure already read as factors,
    so ``spanning_is_fixed_point`` and ``outer_ideal_is_closed`` fold each
    one off its factors and make no FreePoly product."""
    closure = jordan_closure_table(G3, limit, "linear", False, field)
    f = je_circ(JordanElement.generator(G3, field, "x"), JordanElement.generator(G3, field, "y"))
    comp = outer_ideal_component(f, limit, "linear", field)
    calls = []
    mul = FreePoly.__mul__
    monkeypatch.setattr(FreePoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    assert spanning_is_fixed_point(closure, "linear") and outer_ideal_is_closed(comp)
    assert not calls


@pytest.mark.parametrize("field", [QQ, GF3], ids=["q", "gf3"])
def test_non_growing_circle_products_hold_only_their_factors(monkeypatch, field):
    """An inserted circle product that did not grow its span holds no
    product polynomial: its factors are the values of two representatives,
    the same objects.  Its first ``value`` read makes one product, keeps
    {vw} and drops the factors."""
    table = jordan_closure_table(G3, (2, 2, 1), "linear", False, field)
    reps = table.all_reps()
    rep_ids, rep_values = {id(e) for e in reps}, {id(e.value) for e in reps}
    spare = [e for d in table.multidegrees() for e in table.inserted(d) if id(e) not in rep_ids]
    assert len(spare) > 10
    for e in spare:
        assert e._value is None and len(e._factors) == 2 and {id(p) for p in e._factors} <= rep_values
    calls = []
    mul = FreePoly.__mul__
    monkeypatch.setattr(FreePoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    for e in spare:
        left, right = e._factors
        calls.clear()
        assert e.value == circ(left, right) and len(calls) == 3  # one read, two in circ
        assert e._factors is None and e.value is e.value
