"""Graded components of principal ideals on both sides of the Cohn criterion.

For a homogeneous Jordan element f this computes, per multidegree:

* the component of the Jordan outer ideal generated by f -- the span of
  F f + U_f(unital hull) closed under all circle and U multiplications by
  elements of the unital hull (``quadratic`` mode), or the plain linear-ideal
  circle closure (``linear`` mode, enough when 1/2 is in the field);
* the component of the two-sided associative ideal generated by f -- the
  span of the w1 f w2 whose w1 has no factor of f's highest word.

Both are finite linear-algebra problems because the ideals are multigraded.
The gap witness check asks whether an element lies in the associative
component but outside the Jordan one; a quotient with such a witness cannot
be special.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from typing import NamedTuple

from .expr import format_linear_combination, format_poly
from .fields import Field
from .freealg import FreePoly, MultiDegree
from .jordan import (
    GradedSpanTable,
    JordanElement,
    QUADRATIC,
    degree_residual,
    dominated,
    fitting_indices,
    je_circ,
    je_u,
    je_ulin,
    jordan_closure_table,
    recipe_str,
)
from .linalg import ComponentBasis, Coordinates, OrbitSpan, Subspace, coordinates, words_up_to


def _sub_multidegrees(limit: MultiDegree) -> list[MultiDegree]:
    """All multidegrees <= limit componentwise, ascending by total degree then
    lex; none when an entry of limit is negative."""
    return sorted(product(*(range(c + 1) for c in limit)), key=lambda d: (sum(d), d))


class _SpanComponent:
    """Dimension, membership and certificate text of an ideal component's
    ``span``; a subclass renders its i-th inserted element as ``_term_expr(i)``."""
    __slots__ = ()  # no instance __dict__: a component's fields are all it holds

    @property
    def dim(self) -> int:
        return self.span.dim

    def membership(self, p: FreePoly):
        """("inside", {insert index -> coeff}) or ("outside", residual FreePoly).
        The outer component's span refuses a p that reversal does not fix."""
        cb = self.component_basis
        verdict, data = self.span.membership(coordinates(p, cb))
        if verdict == "inside":
            return verdict, data
        return verdict, FreePoly(cb.gens, self.field, dict(zip(cb.words, data)))

    def certificate_expr(self, cert: dict) -> str:
        """Render an "inside" certificate {insert index -> coeff} in the
        expression grammar; ``parse_expr`` evaluates it back to the member."""
        return format_linear_combination([(c, self._term_expr(i)) for i, c in sorted(cert.items())], self.field)


class _OuterFields(NamedTuple):
    generator: JordanElement
    multidegree: MultiDegree
    mode: str
    rounds_to_fixpoint: int  # rounds that added at least one new span vector
    table: GradedSpanTable  # the ideal's spans at every multidegree <= d
    hull: GradedSpanTable  # the Jordan closure the ideal multiplies by, to d - deg f


class OuterIdealComponent(_OuterFields, _SpanComponent):
    """The multidegree-d slice of the Jordan outer ideal generated by f,
    with a generation certificate per inserted vector and a closure that has
    been run to a fixed point.  ``field``, ``component_basis``, ``span`` and
    ``inserted`` read ``table`` at ``multidegree``."""
    __slots__ = ()

    @property
    def field(self) -> Field:
        return self.table.field

    @property
    def component_basis(self) -> ComponentBasis:
        return self.table.component_basis(self.multidegree)

    @property
    def span(self) -> OrbitSpan:
        return self.table.subspace(self.multidegree)

    @property
    def inserted(self) -> list[JordanElement]:
        """Every element inserted at d, aligned with the span's insert indices."""
        return self.table.inserted(self.multidegree)

    def _term_expr(self, i: int) -> str:
        return recipe_str(self.inserted[i].recipe)


def _ideal_products(v: JordanElement, multipliers, fits, d: MultiDegree, mode: str):
    """Every circle, U and linearized-U product of v with multipliers whose
    multidegree stays <= d.  ``fits`` filters the multiplier buckets by the
    residual d - deg(v).  Order: circle and U by bucket then rep, linearized
    U by bucket pair (e1 <= e2 in bucket order) then rep pair."""
    rest = degree_residual(d, v._degree)  # v is a representative, not zero: read without multiplying it out
    for p in fits(rest):
        for a in multipliers[p][1]:
            yield je_circ(v, a)
    if mode != QUADRATIC:
        return
    for p in fits(tuple(c // 2 for c in rest)):  # 2e <= rest
        for a in multipliers[p][1]:
            yield je_u(a, v)
    for p1 in fits(rest):
        e1, reps1 = multipliers[p1]
        p2s = fits(degree_residual(rest, e1))
        for p2 in p2s[bisect_left(p2s, p1) :]:
            reps2 = multipliers[p2][1]
            for ai, a in enumerate(reps1):
                for b in reps2[ai + 1 :] if p1 == p2 else reps2:
                    yield je_ulin(a, b, v)


def _outer_products(hull: GradedSpanTable, d: MultiDegree, mode: str):
    """The ideal's products: every ``_ideal_products`` of each new
    representative with the hull's representatives, grouped by nonzero
    multidegree and filtered by one ``fitting_indices`` over those groups."""
    multipliers = [(e, reps) for e in _sub_multidegrees(hull.limit) if any(e) and (reps := hull.reps(e))]
    fits = fitting_indices([e for e, _ in multipliers])
    return lambda new: (c for v in new for c in _ideal_products(v, multipliers, fits, d, mode))


def _require_field(role: str, got: Field, field: Field):
    if got != field:
        raise ValueError(f"{role} is over {got!r}, but the field is {field!r}")


def outer_ideal_component(f: JordanElement, d: MultiDegree, mode: str, field: Field) -> OuterIdealComponent:
    """Compute the multidegree-d component of the outer ideal generated by f.

    Quadratic mode seeds with f and U_f applied to spanning elements of the
    unital hull, then closes under circle, U, and linearized-U multiplication
    by spanning Jordan elements of every admissible complementary multidegree;
    linear mode seeds with f and closes under circle multiplication only.
    ``GradedSpanTable.close`` runs breadth-first rounds until a round adds
    nothing.  Every ideal element has multidegree >= deg f, so every
    multiplier and every U_f seed has multidegree <= d - deg f, and the hull
    is closed only that far.  f must be homogeneous and fixed by reversal.
    """
    _require_field("generator", f.value.field, field)
    d = tuple(d)
    if f.multidegree is None:
        raise ValueError("ideal generator must be homogeneous")
    if not dominated(f.multidegree, d):
        raise ValueError(f"generator multidegree {f.multidegree} not below target {d}")
    gens = f.value.gens
    table = GradedSpanTable(gens, field, d)  # refuses a d above the ceiling before the hull is built
    hull = jordan_closure_table(gens, degree_residual(d, f.multidegree), mode, mode == QUADRATIC, field)

    seeds = [f]
    if mode == QUADRATIC:
        # every e with 2 deg(f) + e <= d (none when 2 deg(f) exceeds d); e = 0 is the hull's unit
        for e in _sub_multidegrees(degree_residual(d, tuple(2 * c for c in f.multidegree))):
            seeds.extend(je_u(f, u) for u in hull.reps(e))

    rounds = table.close(seeds, _outer_products(hull, d, mode))
    return OuterIdealComponent(f, d, mode, rounds, table, hull)


def outer_ideal_is_closed(comp: OuterIdealComponent) -> bool:
    """Re-verify the fixed point: every admissible multiplication applied to
    every basis representative lands inside the recorded spans."""
    return comp.table.is_closed(_outer_products(comp.hull, comp.multidegree, comp.mode))


class _AssocFields(NamedTuple):
    generator: FreePoly
    multidegree: MultiDegree
    field: Field
    component_basis: ComponentBasis
    span: Subspace
    products: list[tuple]  # (w1, w2) per span insert; each grew it if f's highest word does not overlap itself


class AssocIdealComponent(_AssocFields, _SpanComponent):
    """The multidegree-d slice of the two-sided associative ideal generated by f."""
    __slots__ = ()

    def _term_expr(self, i: int) -> str:
        """w1*(f)*w2, omitting an empty word."""
        f, (w1, w2) = self.generator, self.products[i]
        factors = (w1 and f.word_str(w1), f"({format_poly(f)})", w2 and f.word_str(w2))
        return "*".join(t for t in factors if t)


def assoc_ideal_component(f: FreePoly, d: MultiDegree) -> AssocIdealComponent:
    """Span of {w1 * f * w2} over word pairs of complementary multidegree whose
    w1 has no factor L = max(f.num), each f's store re-keyed to words w1 u w2.
    The rest add nothing: if w1 = a L b, L leftmost, and f = c L + sum c_m m, then
    c w1 f w2 = a f (b f w2) - sum c_m (a m b) f w2: pairs with a shorter or lower w1."""
    d = tuple(d)
    df = f.multidegree()
    if df is None:
        raise ValueError("ideal generator must be homogeneous and nonzero")
    rest = degree_residual(d, df)
    if any(c < 0 for c in rest):
        raise ValueError(f"generator multidegree {df} not below target {d}")
    words = words_up_to(f.gens, d)  # every e1, e2 <= rest <= d
    cb = ComponentBasis(f.gens, d, words[d])
    span = Subspace(f.field, len(cb))
    top, n = max(f.num), sum(df)
    products: list[tuple] = []
    for e1 in _sub_multidegrees(rest):
        lefts = [w for w in words[e1] if all(w[i : i + n] != top for i in range(len(w) - n + 1))]
        for w1, w2 in product(lefts, words[degree_residual(rest, e1)]):
            products.append((w1, w2))
            cols = tuple(bisect_left(cb.words, w1 + u + w2) for u in f.num)  # cb.words is sorted
            span.insert(Coordinates(cols, f.num.values(), f.den, len(cb), f.field))
    return AssocIdealComponent(f, d, f.field, cb, span, products)


class GapWitnessReport(NamedTuple):
    """Membership of one homogeneous symmetric element on both sides of the
    Cohn criterion at a single multidegree."""

    g_in_assoc: bool
    g_in_outer: bool
    assoc_certificate: dict | None
    outer_certificate: dict | None
    assoc_residual: FreePoly | None
    outer_residual: FreePoly | None
    outer: OuterIdealComponent
    assoc: AssocIdealComponent

    @property
    def gap(self) -> bool:
        return self.g_in_assoc and not self.g_in_outer


def cohn_gap_witness(
    f: JordanElement,
    g: FreePoly,
    d: MultiDegree,
    mode: str,
    field: Field,
) -> GapWitnessReport:
    """Check g against both ideal components generated by f at multidegree d.

    A gap (g inside the associative component, outside the Jordan one) shows
    the quotient by the Jordan ideal is not special.
    """
    _require_field("generator", f.value.field, field)
    _require_field("witness", g.field, field)
    d = tuple(d)
    if not g.is_homogeneous(d) or g.is_zero():
        raise ValueError(f"witness must be nonzero homogeneous of multidegree {d}")
    if g.reverse() != g:
        raise ValueError("witness must be symmetric under reversal")
    assoc = assoc_ideal_component(f.value, d)
    outer = outer_ideal_component(f, d, mode, field)
    a_verdict, a_data = assoc.membership(g)
    o_verdict, o_data = outer.membership(g)
    return GapWitnessReport(
        g_in_assoc=a_verdict == "inside",
        g_in_outer=o_verdict == "inside",
        assoc_certificate=a_data if a_verdict == "inside" else None,
        outer_certificate=o_data if o_verdict == "inside" else None,
        assoc_residual=a_data if a_verdict == "outside" else None,
        outer_residual=o_data if o_verdict == "outside" else None,
        outer=outer,
        assoc=assoc,
    )
