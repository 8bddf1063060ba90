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

Every element is reversal-fixed, so a span table eliminates on one column
per reversal orbit of words.  A circle or linearized-U product {H} holds
the two factors of its unsymmetrized half H until its value is read; the
table folds the orbit coordinates of {H} off the factors, so a product that
is only tested against a span is never multiplied out or symmetrized.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache

from .expr import CALLS, circ, format_call, parse_expr, square, u_apply  # circ: re-exported
from .fields import Field
from .freealg import FreePoly, GeneratorSet, MultiDegree
from .linalg import ComponentBasis, Coordinates, OrbitBasis, OrbitSpan, words_up_to

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

    ``je_circ`` and ``je_ulin`` keep only two factors whose product is the
    unsymmetrized half H of their value {H} = H + H*: (v, w) for v o w, and
    (ba, c) for {bac}.  An element holds either its value or that pair:
    ``value`` multiplies the pair out and symmetrizes H when first read,
    keeps the result and drops the factors.  A span table folds {H}'s orbit
    coordinates off the factors, so a product that is only tested is never
    multiplied out.

    A recipe is grammar text: a leaf is its own text, a generator name or
    ``"one"``, and an operation node is a tuple headed by its ``expr.CALLS``
    name: ("sq", r), ("circ", r, r), ("U", b, a) for a U_b, ("Ulin", b, c, a).
    ``expr.parse_expr`` evaluates the rendered recipe, ``recipe_str``, which
    is how certificates replay.
    """

    __slots__ = ("_value", "_factors", "_degree", "recipe")

    def __init__(self, value: FreePoly, recipe):
        if value.reverse() != value:
            raise ValueError("a Jordan element's value must be symmetric under reversal")
        self._value, self._factors, self._degree = value, None, value.multidegree()
        self.recipe = recipe

    @property
    def value(self) -> FreePoly:
        if self._value is None:
            left, right = self._factors
            self._value, self._factors = (left * right).symmetrize(), None
        return self._value

    @property
    def multidegree(self) -> MultiDegree | None:
        """The common multidegree of the value's terms; None if it is zero or mixed."""
        return self._degree if self.value.num else None

    def __repr__(self):
        return f"JordanElement({recipe_str(self.recipe)})"

    @classmethod
    def generator(cls, gens: GeneratorSet, field: Field, name: str) -> "JordanElement":
        return cls(FreePoly.generator(gens, field, name), name)

    @classmethod
    def unit(cls, gens: GeneratorSet, field: Field) -> "JordanElement":
        return cls(FreePoly.one(gens, field), "one")


def _product(recipe, factors, value: FreePoly | None, pair: tuple | None = None) -> JordanElement:
    """The element that ``recipe`` builds from ``factors``, one per
    occurrence (b twice in a U_b): ``value``, or {left*right} for the
    ``pair`` (left, right) when value is None.  A product of homogeneous
    factors that is not zero has the sum of their multidegrees, so no term
    of it is counted."""
    out = JordanElement.__new__(JordanElement)
    out._value, out._factors, out.recipe = value, pair, recipe
    degrees = [v._degree for v in factors]  # a zero factor makes a zero product, whatever its degree
    out._degree = out.value.multidegree() if None in degrees else tuple(map(sum, zip(*degrees)))
    return out


def je_circ(v: JordanElement, w: JordanElement) -> JordanElement:
    """v o w = vw + wv = {vw}: on reversal-fixed factors wv = (vw)*, so the
    factors of vw are kept, and multiplied out only when read."""
    return _product(("circ", v.recipe, w.recipe), (v, w), None, (v.value, w.value))


def je_square(v: JordanElement) -> JordanElement:
    return _product(("sq", v.recipe), (v, v), square(v.value))


def je_u(b: JordanElement, a: JordanElement) -> JordanElement:
    return _product(("U", b.recipe, a.recipe), (b, b, a), u_apply(b.value, a.value))


def je_ulin(b: JordanElement, c: JordanElement, a: JordanElement) -> JordanElement:
    """b a c + c a b = {bac}: on reversal-fixed factors cab = (bac)*, so the
    factors ba and c of bac are kept, and multiplied out only when read."""
    return _product(("Ulin", b.recipe, c.recipe, a.recipe), (b, c, a), None, (b.value * a.value, c.value))


def recipe_str(recipe) -> str:
    """Render a recipe in the expression grammar of the command line: a leaf
    is already text, and a node renders as the call its head names."""
    if isinstance(recipe, str):
        return recipe
    call, *args = recipe
    if call not in CALLS:
        raise ValueError(f"unknown recipe node {call!r}")
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

    Every element is reversal-fixed, so each span is eliminated on one
    column per reversal orbit (``linalg.OrbitBasis``): an element's orbit
    coordinates are folded off the factors of a circle or linearized-U
    product, and read off the value of any other element.
    ``component_basis(d)`` is the word basis, its words taken from one
    ``words_up_to`` pass at the limit, and ``subspace(d)`` is the span read
    in word columns (``linalg.OrbitSpan``).
    """

    def __init__(self, gens: GeneratorSet, field: Field, limit: MultiDegree):
        if len(limit) != len(gens):
            raise ValueError(f"limit {tuple(limit)} has {len(limit)} entries for {len(gens)} generators")
        if sum(limit) > MAX_DEGREE_BOUND:
            raise ValueError(f"total degree {sum(limit)} exceeds bound {MAX_DEGREE_BOUND}")
        self.gens = gens
        self.field = field
        self.limit = tuple(limit)
        self._words: dict[MultiDegree, list] | None = None  # words_up_to(gens, limit), on first use
        self._bases: dict[MultiDegree, ComponentBasis] = {}
        self._spans: dict[MultiDegree, OrbitSpan] = {}
        self._reps: dict[MultiDegree, list[JordanElement]] = {}
        self._inserted: dict[MultiDegree, list[JordanElement]] = {}

    def component_basis(self, d: MultiDegree) -> ComponentBasis:
        if d not in self._bases:
            if self._words is None:
                self._words = words_up_to(self.gens, self.limit)
            self._bases[d] = ComponentBasis(self.gens, d, self._words.get(d))
        return self._bases[d]

    def subspace(self, d: MultiDegree) -> OrbitSpan:
        if d not in self._spans:
            self._spans[d] = OrbitSpan(self.field, OrbitBasis(self.component_basis(d)))
        return self._spans[d]

    @staticmethod
    def _degree_of(elem: JordanElement) -> MultiDegree | None:
        """elem's multidegree, read without symmetrizing; None only for an element that is zero."""
        if elem._degree is None and not elem.value.is_zero():
            raise ValueError("span table takes homogeneous elements only")
        return elem._degree

    @staticmethod
    def _orbit_vector(elem: JordanElement, span: OrbitSpan) -> Coordinates:
        """elem's orbit coordinates in span: folded off its factors, or read off its value."""
        factors = elem._factors
        return span.orbits.fold(*factors) if factors is not None else span.orbits.pick(elem._value)

    def insert(self, elem: JordanElement) -> bool:
        """Insert an element into its component; True iff the span grew."""
        d = self._degree_of(elem)
        if d is None or not dominated(d, self.limit):
            return False
        span = self.subspace(d)
        vec = self._orbit_vector(elem, span)
        if not vec.cols:
            return False
        self._inserted.setdefault(d, []).append(elem)
        if span.orbit_span.insert(vec):
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
        component with no span answers False unless elem is zero, and no
        basis is built for it."""
        d = self._degree_of(elem)
        if d is None:
            return True
        gens = (elem._value if elem._factors is None else elem._factors[0]).gens
        if gens is not self.gens and gens != self.gens:
            raise ValueError("mismatched generator sets")
        if d not in self._spans:
            return elem.value.is_zero()
        span = self._spans[d]
        vec = self._orbit_vector(elem, span)
        return not vec.cols or span.orbit_span.contains(vec)

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
    degs = [v._degree for v in reps]  # a representative is not zero: read without multiplying it out
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
    """Dimension of span{ {w} : w a word of multidegree d }: one per reversal
    orbit, as the sums {w} = w + rev(w) of distinct orbits have disjoint
    supports, less the palindromes, whose {w} = 2w, in characteristic 2.
    The orbits are the span tables' columns."""
    orbits = OrbitBasis(ComponentBasis(gens, d))
    return len(orbits) - len(orbits.palindromes) if field.characteristic == 2 else len(orbits)
