"""Jordan operations inside the free associative algebra, and spanning sets
for multidegree components of the free special Jordan algebra SJ[X].

The special representation realizes the linear operation a o b = ab + ba and
the quadratic operation a U_b = bab on symmetric elements of F<X>.  Spanning
sets are built by closing the generators under the operation alphabet of the
chosen mode:

* ``linear``    -- circle products only (enough when 1/2 is in the field);
* ``quadratic`` -- squares, circle, U and its linearization, the alphabet
  that defines SJ[X] as a quadratic Jordan algebra and is required in
  characteristic 2.

Every element carries a *recipe*, an expression tree over these operations,
so membership certificates elsewhere stay human-readable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache

from .expr import CALLS, circ, format_call, parse_expr, square, u_apply, u_lin  # circ, u_lin: re-exported
from .fields import Field
from .freealg import FreePoly, GeneratorSet, MultiDegree
from .linalg import ComponentBasis, Subspace, coordinates

LINEAR = "linear"
QUADRATIC = "quadratic"

#: Largest total degree a span table accepts.  `jvu dims` at (3,3,3)
#: over GF(2) in quadratic mode takes 2.28-2.34 s in-process (three runs;
#: Python 3.11.7, one core of a 2-core x86-64 VM) against 0.50-0.55 s at
#: (3,3,2); each further degree costs several times more.
MAX_DEGREE_BOUND = 9

#: Lemma 1, z[U_x,U_y] = {(x o y) z x y} - z U_{x o y}, in the expression
#: grammar: the witness z[U_x,U_y], the symmetrized product and the U image.
#: The gap claim puts the witness inside the associative ideal of x o y at
#: (2,2,1) and outside its Jordan ideal.
COMMUTATOR_WITNESS = "U(y; U(x; z)) - U(x; U(y; z))"
SYMMETRIZED_PRODUCT = "sym(circ(x, y)*z*x*y)"
U_IMAGE = "U(circ(x, y); z)"


def commutator_identity_residual(field: Field) -> FreePoly:
    """Residual of Lemma 1 over the given field:
    ``COMMUTATOR_WITNESS - (SYMMETRIZED_PRODUCT - U_IMAGE)``, each term parsed.

    The contract is that this is the zero polynomial over every field.
    """
    gens = GeneratorSet(("x", "y", "z"))
    w, s, u = (parse_expr(text, gens, field) for text in (COMMUTATOR_WITNESS, SYMMETRIZED_PRODUCT, U_IMAGE))
    return w - (s - u)


# ---------------------------------------------------------------------------
# Jordan elements with recipes


class JordanElement:
    """A symmetric polynomial together with the Jordan expression producing it.

    The value is reversal-fixed, p* = p: generators and the unit are, and
    each Jordan product of reversal-fixed factors is again.  ``je_circ`` and
    ``je_ulin`` rely on it, so ``JordanElement(value, recipe)`` refuses any
    other value; the products skip that check, as their factors hold it.

    Recipe nodes: ("gen", name), ("unit",), ("square", r), ("circ", r, r),
    ("U", b, a) for a U_b, ("Ulin", b, c, a); an operation node is a call of
    ``expr.CALLS`` (node "square" is call "sq").  ``expr.parse_expr``
    evaluates the rendered recipe, ``recipe_str``, which is how certificates
    replay.
    """

    __slots__ = ("value", "recipe", "multidegree")

    def __init__(self, value: FreePoly, recipe):
        if value.reverse() != value:
            raise ValueError("a Jordan element's value must be symmetric under reversal")
        self.value = value
        self.recipe = recipe
        self.multidegree = value.multidegree()

    def __repr__(self):
        return f"JordanElement({recipe_str(self.recipe)})"

    @classmethod
    def generator(cls, gens: GeneratorSet, field: Field, name: str) -> "JordanElement":
        return cls(FreePoly.generator(gens, field, name), ("gen", name))

    @classmethod
    def unit(cls, gens: GeneratorSet, field: Field) -> "JordanElement":
        return cls(FreePoly.one(gens, field), ("unit",))


def _product(value: FreePoly, recipe, *factors: JordanElement) -> JordanElement:
    """The element ``value`` that ``recipe`` builds from ``factors``, one per
    occurrence (b twice in a U_b).  A nonzero product of homogeneous factors
    has the sum of their multidegrees, so no term of it is counted."""
    out = JordanElement.__new__(JordanElement)
    out.value, out.recipe = value, recipe
    degrees = [v.multidegree for v in factors]
    if value.is_zero() or None in degrees:
        out.multidegree = value.multidegree()
    else:
        out.multidegree = tuple(map(sum, zip(*degrees)))
    return out


def je_circ(v: JordanElement, w: JordanElement) -> JordanElement:
    """v o w = vw + wv = {vw}: on reversal-fixed factors wv = (vw)*, so one
    associative product is symmetrized."""
    return _product((v.value * w.value).symmetrize(), ("circ", v.recipe, w.recipe), v, w)


def je_square(v: JordanElement) -> JordanElement:
    return _product(square(v.value), ("square", v.recipe), v, v)


def je_u(b: JordanElement, a: JordanElement) -> JordanElement:
    return _product(u_apply(b.value, a.value), ("U", b.recipe, a.recipe), b, b, a)


def je_ulin(b: JordanElement, c: JordanElement, a: JordanElement) -> JordanElement:
    """b a c + c a b = {bac}: on reversal-fixed factors cab = (bac)*, so one
    product chain is symmetrized."""
    return _product((b.value * a.value * c.value).symmetrize(), ("Ulin", b.recipe, c.recipe, a.recipe), b, c, a)


def recipe_str(recipe) -> str:
    """Render a recipe in the expression grammar of the command line."""
    kind, *args = recipe
    if kind == "gen":
        return args[0]
    if kind == "unit":
        return "one"
    call = "sq" if kind == "square" else kind
    if call not in CALLS:
        raise ValueError(f"unknown recipe node {kind!r}")
    return format_call(call, [recipe_str(r) for r in args])


# ---------------------------------------------------------------------------
# Graded span tables and the spanning-set closure


def dominated(d: MultiDegree, limit: MultiDegree) -> bool:
    return all(a <= b for a, b in zip(d, limit))


class GradedSpanTable:
    """Echelonized spans of homogeneous elements, one per multidegree <= limit.

    Any intermediate whose multidegree exceeds the limit componentwise can
    never return below it under further multiplications, so such elements are
    pruned before they are ever computed.

    ``close`` runs a closure to its fixed point and ``is_closed`` re-verifies
    one; a caller supplies only ``products``, which maps a list of
    representatives to the candidates they generate.  A limit without one
    entry per generator, or of total degree above ``MAX_DEGREE_BOUND``, is
    refused before any work.
    """

    def __init__(self, gens: GeneratorSet, field: Field, limit: MultiDegree):
        if len(limit) != len(gens):
            raise ValueError(f"limit {tuple(limit)} has {len(limit)} entries for {len(gens)} generators")
        if sum(limit) > MAX_DEGREE_BOUND:
            raise ValueError(f"total degree {sum(limit)} exceeds bound {MAX_DEGREE_BOUND}")
        self.gens = gens
        self.field = field
        self.limit = tuple(limit)
        self._bases: dict[MultiDegree, ComponentBasis] = {}
        self._spans: dict[MultiDegree, Subspace] = {}
        self._reps: dict[MultiDegree, list[JordanElement]] = {}
        self._inserted: dict[MultiDegree, list[JordanElement]] = {}

    def component_basis(self, d: MultiDegree) -> ComponentBasis:
        if d not in self._bases:
            self._bases[d] = ComponentBasis(self.gens, d)
        return self._bases[d]

    def subspace(self, d: MultiDegree) -> Subspace:
        if d not in self._spans:
            self._spans[d] = Subspace(self.field, len(self.component_basis(d)))
        return self._spans[d]

    def insert(self, elem: JordanElement) -> bool:
        """Insert an element into its component; True iff the span grew."""
        if elem.value.is_zero():
            return False
        d = elem.multidegree
        if d is None:
            raise ValueError("span table takes homogeneous elements only")
        if not dominated(d, self.limit):
            return False
        vec = coordinates(elem.value, self.component_basis(d))
        self._inserted.setdefault(d, []).append(elem)
        if self.subspace(d).insert(vec):
            self._reps.setdefault(d, []).append(elem)
            return True
        return False

    def reps(self, d: MultiDegree) -> list[JordanElement]:
        return list(self._reps.get(tuple(d), ()))

    def inserted(self, d: MultiDegree) -> list[JordanElement]:
        """Every element ever inserted at d, aligned with the span's insert indices."""
        return list(self._inserted.get(tuple(d), ()))

    def all_reps(self) -> list[JordanElement]:
        out = []
        for reps in self._reps.values():
            out.extend(reps)
        return out

    def multidegrees(self) -> list[MultiDegree]:
        """Multidegrees whose spans have been touched, ascending."""
        return sorted(self._inserted, key=lambda d: (sum(d), d))

    def dim(self, d: MultiDegree) -> int:
        d = tuple(d)
        if d not in self._spans:
            return 0
        return self._spans[d].dim

    def contains(self, elem: JordanElement) -> bool:
        """True iff elem is zero or lies in the span of its multidegree; a
        component with no span answers False and is left without one."""
        if elem.value.is_zero():
            return True
        d = elem.multidegree
        if d is None:
            raise ValueError("span table takes homogeneous elements only")
        vec = coordinates(elem.value, self.component_basis(d))
        return d in self._spans and self._spans[d].contains(vec)

    def close(self, seeds, products) -> int:
        """Insert the seeds, then ``products(new)`` round after round, where
        ``new`` lists the representatives the previous round added, until a
        round adds none.  Returns the number of rounds that added something."""
        new = [s for s in seeds if self.insert(s)]
        rounds = 0
        while new:
            new = [c for c in products(new) if self.insert(c)]
            rounds += bool(new)
        return rounds

    def is_closed(self, products) -> bool:
        """Re-verify a fixed point: one more round over every representative
        lands inside the recorded spans."""
        return all(self.contains(c) for c in products(self.all_reps()))


def degree_residual(limit: MultiDegree, d: MultiDegree) -> MultiDegree:
    """limit - d componentwise; negative entries mean nothing fits."""
    return tuple(a - b for a, b in zip(limit, d))


def fitting_indices(degrees: list[MultiDegree]):
    """A function r -> the ascending indices i with degrees[i] <= r.

    Equal degrees share one ``dominated`` test per residual r, and each
    residual's list is kept for the life of the returned function, so an
    enumeration of products visits only the factors that fit instead of
    testing every tuple of factors against the limit.
    """
    groups: dict[MultiDegree, list[int]] = {}
    for i, d in enumerate(degrees):
        groups.setdefault(d, []).append(i)

    @cache
    def fits(r: MultiDegree) -> list[int]:
        return sorted(i for d, idx in groups.items() if dominated(d, r) for i in idx)

    return fits


def _spanning_candidates(reps, old_ids, mode, limit):
    """Candidate products over the current representatives with multidegree
    <= limit, skipping those whose slots are all old (their products are
    already in the span).  Order: squares and circles by (i, j), U by (b, a),
    linearized U by (b, c, a), each slot ascending in reps."""
    degs = [v.multidegree for v in reps]
    old = [id(v) in old_ids for v in reps]
    rest = [degree_residual(limit, d) for d in degs]
    fits = fitting_indices(degs)
    for i, v in enumerate(reps):
        ws = fits(rest[i])
        k = bisect_left(ws, i)
        if mode == QUADRATIC and not old[i] and k < len(ws) and ws[k] == i:
            yield je_square(v)
        for j in ws[k:]:
            if not (old[i] and old[j]):
                yield je_circ(v, reps[j])
    if mode != QUADRATIC:
        return
    for i, b in enumerate(reps):
        for j in fits(degree_residual(rest[i], degs[i])):
            if not (old[i] and old[j]):
                yield je_u(b, reps[j])
    for i, b in enumerate(reps):
        cs = fits(rest[i])
        for k in cs[bisect_right(cs, i) :]:
            bc_old = old[i] and old[k]
            for j in fits(degree_residual(rest[i], degs[k])):
                if not (bc_old and old[j]):
                    yield je_ulin(b, reps[k], reps[j])


def _closure_products(table: GradedSpanTable, mode: str):
    """The closure's products: every candidate over the table's current
    representatives that has a slot in ``new``."""

    def products(new):
        new_ids = {id(v) for v in new}
        reps = table.all_reps()
        old_ids = {id(v) for v in reps if id(v) not in new_ids}
        return _spanning_candidates(reps, old_ids, mode, table.limit)

    return products


def jordan_closure_table(
    gens: GeneratorSet,
    limit: MultiDegree,
    mode: str,
    unital: bool,
    field: Field,
) -> GradedSpanTable:
    """Close the generators (plus the formal unit, if requested) under the
    mode's operation alphabet, keeping every multidegree <= limit.

    ``GradedSpanTable.close`` runs breadth-first rounds until a round adds
    no new span vector.
    """
    if mode not in (LINEAR, QUADRATIC):
        raise ValueError(f"unknown mode {mode!r}")
    table = GradedSpanTable(gens, field, limit)
    seeds = [JordanElement.generator(gens, field, n) for n in gens.names]
    if unital:
        seeds.append(JordanElement.unit(gens, field))
    table.close(seeds, _closure_products(table, mode))
    return table


def spanning_is_fixed_point(table: GradedSpanTable, mode: str) -> bool:
    """Re-verify closure: one more full round over the final representatives
    must land entirely inside the recorded spans."""
    return table.is_closed(_closure_products(table, mode))


def symmetric_component_dim(gens: GeneratorSet, d: MultiDegree, field: Field) -> int:
    """Dimension of span{ {w} : w a word of multidegree d } over the field."""
    cb = ComponentBasis(gens, d)
    span = Subspace(field, len(cb))
    for w in cb.words:
        sym = FreePoly.from_word(gens, field, w).symmetrize()
        if not sym.is_zero():
            span.insert(coordinates(sym, cb))
    return span.dim
