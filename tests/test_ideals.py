"""Graded ideal components on both sides of the Cohn criterion."""

import hashlib
import time

import pytest

from conftest import dense, vec
from jvu import linalg
from jvu.expr import parse_expr
from jvu.fields import field_from_name
from jvu.freealg import FreePoly, GeneratorSet
from jvu.jordan import (
    COMMUTATOR_WITNESS,
    LINEAR,
    QUADRATIC,
    SYMMETRIZED_PRODUCT,
    GradedSpanTable,
    JordanElement,
    _spanning_candidates,
    circ,
    degree_residual,
    je_circ,
    jordan_closure_table,
    recipe_str,
    spanning_is_fixed_point,
    u_apply,
)
from jvu.ideals import (
    _outer_products,
    assoc_ideal_component,
    cohn_gap_witness,
    outer_ideal_component,
    outer_ideal_is_closed,
)
from jvu.linalg import coordinates

QQ = field_from_name("q")
GF2 = field_from_name("gf2")
GF5 = field_from_name("gf5")

G3 = GeneratorSet(("x", "y", "z"))
D = (2, 2, 1)


def setup_elems(field):
    x = FreePoly.generator(G3, field, "x")
    y = FreePoly.generator(G3, field, "y")
    z = FreePoly.generator(G3, field, "z")
    f = je_circ(JordanElement.generator(G3, field, "x"), JordanElement.generator(G3, field, "y"))
    return x, y, z, f


def mode_for(field):
    return "quadratic" if field.characteristic == 2 else "linear"


def test_outer_component_at_generator_degree_is_line():
    for field in (QQ, GF2):
        x, y, z, f = setup_elems(field)
        comp = outer_ideal_component(f, (1, 1, 0), mode_for(field), field)
        assert comp.dim == 1
        verdict, cert = comp.membership(circ(x, y))
        assert verdict == "inside"


def test_outer_component_contains_u_image():
    """(x o y) z (x o y) is reachable: a U-seed in quadratic mode, a circle
    consequence in linear mode."""
    for field in (QQ, GF2, GF5):
        x, y, z, f = setup_elems(field)
        comp = outer_ideal_component(f, D, mode_for(field), field)
        verdict, _ = comp.membership(u_apply(circ(x, y), z))
        assert verdict == "inside"


def test_outer_component_excludes_symmetrized_witness():
    for field in (QQ, GF2):
        x, y, z, f = setup_elems(field)
        comp = outer_ideal_component(f, D, mode_for(field), field)
        w = (circ(x, y) * z * x * y).symmetrize()
        verdict, residual = comp.membership(w)
        assert verdict == "outside"
        assert not residual.is_zero()


def test_outer_closure_is_fixed_point():
    for field in (QQ, GF2):
        *_, f = setup_elems(field)
        comp = outer_ideal_component(f, D, mode_for(field), field)
        assert outer_ideal_is_closed(comp)
        assert comp.rounds_to_fixpoint >= 1


@pytest.mark.parametrize("field", [GF2, QQ], ids=["gf2-quadratic", "q-linear"])
def test_outer_reverifier_rejects_unclosed_table(field):
    """A table holding only f is not closed under multiplication by the hull."""
    *_, f = setup_elems(field)
    comp = outer_ideal_component(f, D, mode_for(field), field)
    bare = GradedSpanTable(G3, field, D)
    bare.insert(f)
    assert not outer_ideal_is_closed(comp._replace(table=bare))


@pytest.mark.parametrize("field", [GF2, QQ], ids=["gf2-quadratic", "q-linear"])
def test_spanning_reverifier_rejects_generators_only(field):
    """The generators alone are not closed under the mode's operations."""
    bare = GradedSpanTable(G3, field, D)
    for name in G3.names:
        bare.insert(JordanElement.generator(G3, field, name))
    assert not spanning_is_fixed_point(bare, mode_for(field))


def test_closure_tables_are_not_shared():
    """Each closure call builds its own table, so writing into one a caller
    got back cannot change a later ideal."""
    x, y, _, f = setup_elems(GF2)
    table = jordan_closure_table(G3, D, "quadratic", True, GF2)
    assert jordan_closure_table(G3, D, "quadratic", True, GF2) is not table
    table.insert(JordanElement(x * y * x, "x"))  # a recipe that does not build the value
    assert outer_ideal_component(f, D, "quadratic", GF2).dim == 10


def test_outer_basis_vectors_symmetric():
    for field in (QQ, GF2):
        *_, f = setup_elems(field)
        comp = outer_ideal_component(f, D, mode_for(field), field)
        for row in comp.span.rows:
            p = FreePoly(G3, field, dict(zip(comp.component_basis.words, row)))
            assert p.reverse() == p


def test_outer_certificates_replay():
    """Each inserted element's recipe re-evaluates to the inserted value, and
    the echelon rows are recovered through the span's transformation record."""
    for field in (QQ, GF2):
        *_, f = setup_elems(field)
        comp = outer_ideal_component(f, D, mode_for(field), field)
        vecs = [dense(coordinates(e.value, comp.component_basis)) for e in comp.inserted]
        for e in comp.inserted:
            assert parse_expr(recipe_str(e.recipe), G3, field) == e.value
        for row in comp.span.rows:
            rep = comp.span.membership(vec(field, row))[1]
            recombined = [field.zero] * len(comp.component_basis)
            for idx, c in rep.items():
                recombined = [
                    field.add(t, field.mul(c, v)) for t, v in zip(recombined, vecs[idx])
                ]
            assert recombined == row


@pytest.mark.parametrize("field, mode", [(GF2, "quadratic"), (QQ, "linear")], ids=["gf2-quadratic", "q-linear"])
def test_certificate_expr_replays(field, mode):
    """Rendered certificates parse back to their members: the outer certificate
    of every echelon row, and the associative certificate of the symmetrized
    product."""
    *_, f = setup_elems(field)
    comp = outer_ideal_component(f, D, mode, field)
    for row in comp.span.rows:
        p = FreePoly(G3, field, dict(zip(comp.component_basis.words, row)))
        verdict, cert = comp.membership(p)
        assert verdict == "inside"
        assert parse_expr(comp.certificate_expr(cert), G3, field) == p
    assoc = assoc_ideal_component(f.value, D)
    w = parse_expr(SYMMETRIZED_PRODUCT, G3, field)
    verdict, cert = assoc.membership(w)
    assert verdict == "inside"
    assert parse_expr(assoc.certificate_expr(cert), G3, field) == w


def test_outer_inside_assoc_everywhere():
    """I is contained in the associative ideal it generates, basis by basis."""
    for field in (QQ, GF2):
        *_, f = setup_elems(field)
        comp = outer_ideal_component(f, D, mode_for(field), field)
        assoc = assoc_ideal_component(f.value, D)
        for row in comp.span.rows:
            p = FreePoly(G3, field, dict(zip(comp.component_basis.words, row)))
            verdict, _ = assoc.membership(p)
            assert verdict == "inside"


def test_linear_and_quadratic_ideal_agree_away_from_char2():
    for field in (QQ, GF5):
        *_, f = setup_elems(field)
        lin = outer_ideal_component(f, D, "linear", field)
        quad = outer_ideal_component(f, D, "quadratic", field)
        assert lin.dim == quad.dim
        assert lin.span.rows == quad.span.rows


def test_assoc_component_contains_symmetrized_witness():
    for field in (QQ, GF2):
        x, y, z, f = setup_elems(field)
        assoc = assoc_ideal_component(f.value, D)
        w = (circ(x, y) * z * x * y).symmetrize()
        verdict, cert = assoc.membership(w)
        assert verdict == "inside"
        # replay: the certificate recombines the inserted products to w
        recombined = FreePoly(G3, field)
        for idx, c in cert.items():
            w1, w2 = assoc.products[idx]
            p = FreePoly.from_word(G3, field, w1) * f.value * FreePoly.from_word(G3, field, w2)
            recombined = recombined + p.scale(c)
        assert recombined == w


def test_assoc_component_line_at_generator_degree():
    x, y, z, f = setup_elems(QQ)
    assoc = assoc_ideal_component(f.value, (1, 1, 0))
    assert assoc.dim == 1
    verdict, _ = assoc.membership(circ(x, y))
    assert verdict == "inside"


def test_assoc_component_contains_commutator():
    """By the bracketing identity z[Ux,Uy] = {(x o y)zxy} - zU_{x o y}; both
    summands visibly carry the generator, so membership must hold."""
    for field in (QQ, GF2):
        x, y, z, f = setup_elems(field)
        g = parse_expr(COMMUTATOR_WITNESS, G3, field)
        w = (circ(x, y) * z * x * y).symmetrize()
        s = u_apply(circ(x, y), z)
        assert g == w - s
        assoc = assoc_ideal_component(f.value, D)
        verdict, _ = assoc.membership(g)
        assert verdict == "inside"


def test_bracketing_consistency_of_membership_verdicts():
    """z[Ux,Uy] and {(x o y)zxy} differ by an ideal element, so their
    membership verdicts in the outer component agree."""
    for field in (QQ, GF2):
        x, y, z, f = setup_elems(field)
        comp = outer_ideal_component(f, D, mode_for(field), field)
        g = parse_expr(COMMUTATOR_WITNESS, G3, field)
        w = (circ(x, y) * z * x * y).symmetrize()
        gv, _ = comp.membership(g)
        wv, _ = comp.membership(w)
        assert gv == wv == "outside"


@pytest.mark.parametrize(
    "field,mode",
    [(GF2, "quadratic"), (QQ, "linear")],
)
def test_gap_witness_commutator(field, mode):
    x, y, z, f = setup_elems(field)
    g = parse_expr(COMMUTATOR_WITNESS, G3, field)
    report = cohn_gap_witness(f, g, D, mode, field)
    assert report.g_in_assoc and not report.g_in_outer
    assert report.gap


def test_gap_witness_seed_element_no_gap():
    x, y, z, f = setup_elems(QQ)
    s = u_apply(circ(x, y), z)
    report = cohn_gap_witness(f, s, D, "linear", QQ)
    assert report.g_in_assoc and report.g_in_outer
    assert not report.gap


def test_ideal_records_are_read_only():
    """No field of a gap report or of its components can be rebound after the
    check, and a component takes no new attribute: the table that
    ``outer_ideal_is_closed`` verified is the one the component keeps."""
    *_, f = setup_elems(QQ)
    report = cohn_gap_witness(f, parse_expr(COMMUTATOR_WITNESS, G3, QQ), D, "linear", QQ)
    for record, name in [(report, "g_in_outer"), (report.outer, "table"), (report.assoc, "span")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for comp in (report.outer, report.assoc):
        with pytest.raises(AttributeError):
            comp.note = None


def test_gap_witness_validates_input():
    x, y, z, f = setup_elems(QQ)
    with pytest.raises(ValueError):
        cohn_gap_witness(f, x * y * z, D, "linear", QQ)  # wrong multidegree
    with pytest.raises(ValueError):
        # right multidegree but not symmetric
        g = circ(x, y) * z * x * y
        cohn_gap_witness(f, g, D, "linear", QQ)


def test_outer_component_validates_input():
    x, y, z, f = setup_elems(QQ)
    with pytest.raises(ValueError):
        outer_ideal_component(f, (0, 1, 1), "linear", QQ)  # generator degree not below
    with pytest.raises(ValueError):
        outer_ideal_component(f, (4, 4, 2), "linear", QQ)  # total degree above the ceiling
    with pytest.raises(ValueError):
        outer_ideal_component(f, D, "cubic", QQ)
    with pytest.raises(ValueError, match="symmetric"):
        outer_ideal_component(JordanElement(x * y, "x"), D, "linear", QQ)


def test_gf3_sanity_bridge():
    """An odd prime behaves like the rationals on the whole pattern."""
    x, y, z, f = setup_elems(GF5)
    g = parse_expr(COMMUTATOR_WITNESS, G3, GF5)
    report = cohn_gap_witness(f, g, D, "linear", GF5)
    assert report.gap


#: sha256 of the newline-joined recipe strings of the outer ideal's inserted
#: list at (3,2,1), recorded before the candidate loops were bucketed by
#: degree: the insert order fixes every certificate's indices.  The middle
#: entry is ``rounds_to_fixpoint``, which pins the closure's round structure.
INSERTED_321 = {
    "quadratic": (73, 3, "05682fc6c3121529521146a47ef49252ac4315fbf2f67b854dc67a71b0b0312e"),
    "linear": (45, 4, "07dcf7fca2a66facc20c0882a9c72772e7197ff9ba7e86fa6e85360705eb184b"),
}


@pytest.mark.parametrize("field,mode", [(GF2, "quadratic"), (QQ, "linear")], ids=["gf2-quadratic", "q-linear"])
def test_outer_inserted_recipes_pinned(field, mode):
    *_, f = setup_elems(field)
    comp = outer_ideal_component(f, (3, 2, 1), mode, field)
    recipes = "\n".join(recipe_str(e.recipe) for e in comp.inserted)
    digest = hashlib.sha256(recipes.encode()).hexdigest()
    assert (len(comp.inserted), comp.rounds_to_fixpoint, digest) == INSERTED_321[mode]


#: (outer, assoc) dimensions of the ideals of x o y on the ladder, the same
#: over GF(2) in quadratic mode and over Q in linear mode.
LADDER_DIMS = {
    (2, 2, 1): (10, 21),
    (3, 2, 1): (24, 48),
    (2, 2, 2): (27, 54),
    (3, 2, 2): (75, 150),
}


@pytest.mark.parametrize("d", list(LADDER_DIMS), ids=lambda d: "".join(map(str, d)))
def test_cross_route_ladder(d):
    """GF(2) quadratic against Q linear: the GF(2) outer dimension is at most
    the Q one (reduction of the integer lattice), the associative dimensions
    agree, and both routes' closures re-verify as fixed points."""
    dims = {}
    for field, mode in ((GF2, "quadratic"), (QQ, "linear")):
        *_, f = setup_elems(field)
        outer = outer_ideal_component(f, d, mode, field)
        assert outer_ideal_is_closed(outer)
        assert spanning_is_fixed_point(outer.hull, mode)
        dims[mode] = (outer.dim, assoc_ideal_component(f.value, d).dim)
    assert dims["quadratic"][0] <= dims["linear"][0]
    assert dims["quadratic"][1] == dims["linear"][1]
    assert dims["quadratic"] == LADDER_DIMS[d]


@pytest.mark.parametrize("d", list(LADDER_DIMS), ids=lambda d: "".join(map(str, d)))
def test_product_multidegrees_are_summed_correctly(d):
    """Products take their multidegree from their factors' without counting a
    term.  On the ladder, over GF(2) quadratic and Q linear, that equals the
    value's own multidegree for every element inserted into the hull or the
    ideal table, and for every candidate of one more round, zero ones (None)
    included."""
    zeros = 0
    for field, mode in ((GF2, QUADRATIC), (QQ, LINEAR)):
        *_, f = setup_elems(field)
        outer = outer_ideal_component(f, d, mode, field)
        hull, table = outer.hull, outer.table
        elements = [v for t in (hull, table) for e in t.multidegrees() for v in t.inserted(e)]
        elements += _spanning_candidates(hull.all_reps(), set(), mode, hull.limit)
        elements += _outer_products(hull, d, mode)(table.all_reps())
        for v in elements:
            assert v.multidegree == v.value.multidegree()
        zeros += sum(v.multidegree is None for v in elements)
    assert zeros


def test_gap_witness_rejects_mixed_fields():
    """A witness over Q against a generator over GF(2) is an error naming
    both fields, not a verdict on mixed scalars."""
    f = setup_elems(GF2)[3]
    g = parse_expr(COMMUTATOR_WITNESS, G3, QQ)
    with pytest.raises(ValueError, match=r"Field\(Q\).*Field\(GF\(2\)\)"):
        cohn_gap_witness(f, g, D, "quadratic", GF2)


def test_outer_component_rejects_other_field():
    """A generator over Q with field GF(2) is refused before any closure runs."""
    f = setup_elems(QQ)[3]
    with pytest.raises(ValueError, match=r"Field\(Q\).*Field\(GF\(2\)\)"):
        outer_ideal_component(f, D, "linear", GF2)


@pytest.mark.parametrize("field", [GF2, QQ], ids=["gf2-quadratic", "q-linear"])
def test_outer_hull_stops_at_residual_degree(field):
    """Ideal elements have multidegree >= deg f, so the hull is closed only up
    to d - deg f, and that smaller closure is still a fixed point."""
    *_, f = setup_elems(field)
    mode = mode_for(field)
    comp = outer_ideal_component(f, D, mode, field)
    assert comp.hull.limit == degree_residual(D, f.multidegree) == (1, 1, 1)
    assert spanning_is_fixed_point(comp.hull, mode)


def test_degree_ceiling_refused_before_any_closure():
    """Every span table refuses a total degree above the ceiling, so the
    outer ideal fails before it builds its (3,3,2) hull."""
    with pytest.raises(ValueError, match="exceeds bound"):
        GradedSpanTable(GeneratorSet(("x", "y", "z", "t")), QQ, (3, 3, 2, 2))
    *_, f = setup_elems(QQ)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds bound"):
        outer_ideal_component(f, (4, 4, 2), "linear", QQ)
    assert time.perf_counter() - start < 1.0


def test_limit_of_wrong_length_refused_before_any_closure():
    """A span table needs one limit entry per generator: a short limit would
    leave the missing generator unbounded and the closure would not end."""
    for limit in [(1, 1), (1, 1, 1, 5)]:
        with pytest.raises(ValueError, match="generators"):
            GradedSpanTable(G3, QQ, limit)
    *_, f = setup_elems(QQ)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="generators"):
        jordan_closure_table(G3, (1, 1), "linear", False, QQ)
    with pytest.raises(ValueError, match="generators"):
        outer_ideal_component(f, (2, 2), "linear", QQ)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field,mode", [(GF2, "quadratic"), (QQ, "linear")], ids=["gf2-quadratic", "q-linear"])
def test_gap_checks_never_build_dense_vectors(monkeypatch, field, mode):
    """A gap check reads its certificate off the pivots, not off the ambient
    words: each "inside" certificate solve builds exactly one equation per
    pivot of the span it queries, and an "outside" query builds none.  The
    equations are the inserts made during a membership call.  The table
    builds, the fixed-point re-verification and the outer "outside"
    membership give the pinned dimensions."""
    insert, membership = linalg.Subspace.insert, linalg.Subspace.membership
    inserts, queries = [0], []

    def counted_insert(span, v):
        inserts[0] += 1
        return insert(span, v)

    def counted_membership(span, v):
        before = inserts[0]
        verdict, data = membership(span, v)
        queries.append((verdict, inserts[0] - before, span.dim))
        return verdict, data

    x, y, z, f = setup_elems(field)
    witnesses = {(2, 2, 1): parse_expr(COMMUTATOR_WITNESS, G3, field), (3, 2, 1): (x * x * y * z * y * x).symmetrize()}
    for d, g in witnesses.items():
        assoc, outer = assoc_ideal_component(f.value, d), outer_ideal_component(f, d, mode, field)
        assert outer_ideal_is_closed(outer)
        assert outer.membership(g)[0] == "outside"
        assert (outer.dim, assoc.dim) == LADDER_DIMS[d]
        queries.clear()
        with monkeypatch.context() as m:
            m.setattr(linalg.Subspace, "insert", counted_insert)
            m.setattr(linalg.Subspace, "membership", counted_membership)
            report = cohn_gap_witness(f, g, d, mode, field)
        inside = d == (2, 2, 1)
        assert (report.g_in_assoc, report.g_in_outer) == (inside, False)
        assoc_query = ("inside", assoc.dim, assoc.dim) if inside else ("outside", 0, assoc.dim)
        assert queries == [assoc_query, ("outside", 0, outer.dim)]
