"""Exact linear algebra over a Field.

Homogeneous polynomials are vectorized against the complete deglex-ordered
word list of one multidegree (``words_up_to`` builds the lists of every
multidegree up to a limit in one pass): ``coordinates`` re-keys a
polynomial's sparse int store to columns.  ``Coordinates`` is the one vector
form that spans and ``affine_solve`` take.  Subspaces are kept in reduced
row-echelon form, and a membership test that finds a vector inside solves an
explicit coefficient certificate over the vectors that were inserted, not
just a verdict.  Row operations touch only the nonzero columns of the row
they eliminate with.

A span of reversal-fixed vectors, such as every Jordan span, needs only one
column per reversal orbit {w, rev w} (``OrbitBasis``): ``fold`` reads the
orbit coordinates of {H} = H + rev(H) straight off the two factors of
H = left*right, which is never multiplied out, and ``OrbitSpan`` runs the
same ``Subspace`` on orbit columns while it is read and queried in word
columns, with the pivots, rows and certificates of a word-column span.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .fields import Field, FieldError
from .freealg import FreePoly, GeneratorSet, MultiDegree, Word


def words_up_to(gens: GeneratorSet, limit: MultiDegree) -> dict[MultiDegree, list[Word]]:
    """The words of every multidegree c <= limit, each list in deglex order,
    built in one pass.

    The words of a count vector c are, for each generator i in turn, i
    followed by the words of c - e_i.  Each c is built in the order of its
    mixed-radix index, so c - e_i, whose index is smaller by the place value
    of entry i, is always built before c."""
    limit = tuple(limit)
    if len(limit) != len(gens):
        raise ValueError("multidegree length does not match generator count")
    if any(c < 0 for c in limit):
        raise ValueError("multidegree entries must be nonnegative")
    places, place = [], 1
    for k in reversed(limit):
        places.append(place)
        place *= k + 1
    places.reverse()
    ranges = [range(k + 1) for k in limit]
    built: list[list[Word]] = [[()]]
    for c in islice(product(*ranges), 1, None):  # the zero vector is built
        out: list[Word] = []
        n = len(built)
        for i, k in enumerate(c):
            if k:
                head = (i,)
                out += [head + w for w in built[n - places[i]]]
        built.append(out)  # lexicographic order; equal length makes it deglex
    return dict(zip(product(*ranges), built))


def words_of_multidegree(gens: GeneratorSet, d: MultiDegree) -> list[Word]:
    """All words with exactly d_i occurrences of generator i, in deglex order."""
    return words_up_to(gens, d)[tuple(d)]


class ComponentBasis:
    """The ordered word basis of one multidegree component of F<X>."""

    __slots__ = ("gens", "multidegree", "words", "_index")

    def __init__(self, gens: GeneratorSet, d: MultiDegree, words: list[Word] | None = None):
        """``words`` is d's list from ``words_up_to``, when the caller holds
        one; otherwise it is built."""
        self.gens = gens
        self.multidegree = tuple(d)
        self.words = tuple(words_of_multidegree(gens, d) if words is None else words)
        self._index = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    def __repr__(self):
        return f"ComponentBasis({self.multidegree}, {len(self.words)} words)"


class Coordinates(NamedTuple):
    """A read-only vector in a FreePoly's store form: nonzero ints ``vals`` at ``cols``, over den."""

    cols: tuple
    vals: Iterable
    den: int
    dim: int
    field: Field


def _require_gens(p: FreePoly, cb: ComponentBasis):
    if p.gens is not cb.gens and p.gens != cb.gens:
        raise ValueError("mismatched generator sets")


def _off_degree(cb: ComponentBasis) -> ValueError:
    return ValueError(f"polynomial is not homogeneous of multidegree {cb.multidegree}")


def coordinates(p: FreePoly, cb: ComponentBasis) -> Coordinates:
    """p's store re-keyed to the columns of cb's word list; refuses another
    generator set or a word outside cb's multidegree."""
    _require_gens(p, cb)
    try:  # cb holds exactly the words of its multidegree
        cols = tuple(map(cb._index.__getitem__, p.num))
    except KeyError:
        raise _off_degree(cb) from None
    return tuple.__new__(Coordinates, (cols, p.num.values(), p.den, len(cb.words), p.field))  # no Python-level __new__


class OrbitBasis:
    """The reversal orbits {w, rev w} of one component's words, one column
    per orbit, in the order of its lex-smaller word, the representative.

    A reversal-fixed vector has one entry per orbit, and the representatives
    lie in the same order among the word columns, so a span of such vectors
    has the same pivots, RREF rows and certificates on orbit columns as on
    word columns.  ``rep_cols`` holds the word column of each orbit's
    representative, ``column`` maps every word to its orbit, and
    ``palindromes`` holds the orbits of one word, whose {w} = 2w.
    """

    __slots__ = ("basis", "rep_cols", "column", "palindromes")

    def __init__(self, cb: ComponentBasis):
        column, rep_cols, palindromes = {}, [], []
        for j, w in enumerate(cb.words):
            r = w[::-1]
            if w <= r:
                column[w] = column[r] = len(rep_cols)
                if w == r:
                    palindromes.append(len(rep_cols))
                rep_cols.append(j)
        self.basis, self.column = cb, column
        self.rep_cols, self.palindromes = tuple(rep_cols), tuple(palindromes)

    def __len__(self):
        return len(self.rep_cols)

    def _vector(self, num: dict, den: int, field: Field) -> Coordinates:
        return tuple.__new__(Coordinates, (tuple(num), num.values(), den, len(self.rep_cols), field))

    def fold(self, left: FreePoly, right: FreePoly) -> Coordinates:
        """The orbit coordinates of {H} = H + rev(H), H = left*right, read off
        the two factors in one pass over their term pairs: H[w] + H[rev w] at
        the orbit of w, and 2 H[w] at a palindrome, reduced mod p, over the
        product of the dens.  Nothing is multiplied out or symmetrized."""
        left._compat(right)
        _require_gens(left, self.basis)
        column, acc = self.column, {}
        get = acc.get
        terms = right.num.items()
        try:
            for w1, n1 in left.num.items():
                for w2, n2 in terms:
                    o = column[w1 + w2]
                    acc[o] = get(o, 0) + n1 * n2
        except KeyError:
            raise _off_degree(self.basis) from None
        for o in self.palindromes:
            if o in acc:
                acc[o] *= 2
        if p := left.field.characteristic:
            acc = {o: r for o, n in acc.items() if (r := n % p)}
        elif 0 in acc.values():  # over Q only the two words of an orbit can cancel
            acc = {o: n for o, n in acc.items() if n}
        return self._vector(acc, left.den * right.den, left.field)

    def pick(self, sym: FreePoly) -> Coordinates:
        """The orbit coordinates of a reversal-fixed sym: the entry of each
        word is its orbit's.  The symmetry is trusted, not checked."""
        _require_gens(sym, self.basis)
        try:  # the two words of an orbit write the same entry
            num = dict(zip(map(self.column.__getitem__, sym.num), sym.num.values()))
        except KeyError:
            raise _off_degree(self.basis) from None
        return self._vector(num, sym.den, sym.field)

    def restrict(self, v: Coordinates) -> Coordinates:
        """Word coordinates v as orbit coordinates; refuses a v of another
        length, or one that reversal does not fix."""
        words, index = self.basis.words, self.basis._index
        if v.dim != len(words):
            raise ValueError("ambient dimension mismatch")
        entries = dict(zip(v.cols, v.vals))
        if any(entries.get(index[words[j][::-1]]) != c for j, c in entries.items()):
            raise ValueError("coordinates are not symmetric under reversal")
        num = {self.column[words[j]]: c for j, c in entries.items()}
        return self._vector(num, v.den, v.field)

    def expand(self, row: list) -> list:
        """An orbit vector as its word vector: each word takes its orbit's entry."""
        return [row[self.column[w]] for w in self.basis.words]


class Subspace:
    """An echelonized subspace with pivot bookkeeping and certificates on demand.

    ``insert``, ``contains`` and ``membership`` take ``Coordinates`` of length
    ``ambient_dim`` over the field, whose ints the row store takes as they
    are.  Over GF(2) a row is an int bitset, bit j for column j; otherwise it
    is a dict from each nonzero column to its int, so its keys are its
    support.  Over Q a row is primitive with a positive pivot entry, and a
    row operation is ``a*x - c*y`` with ``gcd(a, c)`` cancelled
    (fraction-free elimination, Bareiss 1968); over GF(p), p odd, a row holds
    residues, pivot entry 1.  One dict maps each pivot column to its row, and
    a row operation updates the row in place on the eliminating row's keys.

    Rows are in reduced row-echelon form.  ``rows`` and ``pivots`` are views
    built when read, in pivot order: ``rows`` is the unique RREF basis in
    field scalars, so it does not depend on insertion order.  Beside the rows
    the span keeps only the inserts that grew it, with their insert indices;
    :meth:`membership` solves a certificate over them when a vector is inside.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.n_inserted = 0
        self._p = field.characteristic
        self._rows: dict = {}  # pivot -> bitset (GF(2)), or dict from column to nonzero int
        self._mask = 0  # GF(2): the pivot columns as a bitset
        self._grew: list[tuple] = []  # (insert index, Coordinates) per independent insert

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    @property
    def rows(self) -> list[list]:
        return [[self._scalar(q, j) for j in range(self.ambient_dim)] for q in self.pivots]

    def _scalar(self, q: int, j: int):
        """Entry j of the RREF row with pivot q, as a field scalar."""
        row = self._rows[q]
        if self._p == 2:
            return row >> j & 1
        return row.get(j, 0) if self._p else Fraction(row.get(j, 0), row[q])

    def _encode(self, v: Coordinates):
        """Convert v to the store, (x, s) with v = x / s, x a bitset over
        GF(2) and otherwise a dict from column to nonzero int."""
        cols, vals, s, dim, field = v
        if dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if field.characteristic != self._p:
            raise FieldError(f"coordinates over {field!r} for a span over {self.field!r}")
        if self._p == 2:
            x = 0
            for j in cols:
                x |= 1 << j
            return x, 1
        return dict(zip(cols, vals)), s

    def _eliminate(self, x: dict, row: dict, q: int) -> int:
        """Clear the entry q of the dict x in place with ``row``, whose pivot
        is q, deleting every entry that becomes zero.  Over Q, x is first
        scaled when the gcd-reduced pivot entry is not 1 (no gcd is taken
        when the pivot entry is 1).  Returns that positive factor."""
        p, c, a = self._p, x[q], 1
        if not p and row[q] != 1:
            g = gcd(row[q], c)
            a, c = row[q] // g, c // g
            if a != 1:
                for j in x:
                    x[j] *= a
        for j, r in row.items():
            e = (x.get(j, 0) - c * r) % p if p else x.get(j, 0) - c * r
            if e:
                x[j] = e
            else:
                del x[j]
        return a

    def _reduce(self, x, s: int):
        """The RREF residual of x / s against the rows, as (x', s'); a dict x
        is reduced in place.  A row is zero on every other pivot column, so
        only the pivots among x's keys need elimination, and none is added."""
        if self._p == 2:
            m = x & self._mask  # a row changes no other row's pivot bit
            while m:
                x ^= self._rows[(m & -m).bit_length() - 1]
                m &= m - 1
            return x, s
        rows = self._rows
        for q in [q for q in x if q in rows]:
            s *= self._eliminate(x, rows[q], q)
        return x, s

    def insert(self, v: Coordinates) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        x, _ = self._encode(v)
        self.n_inserted += 1
        x, _ = self._reduce(x, 1)
        if not x:
            return False
        p = self._p
        if p == 2:
            pivot = (x & -x).bit_length() - 1
            self._mask |= x & -x
            self._rows = {q: row ^ x if row >> pivot & 1 else row for q, row in self._rows.items()}
        else:
            pivot = min(x)
            if p:
                inv = pow(x[pivot], -1, p)
                for j in x:
                    x[j] = x[j] * inv % p
            else:  # divide by the content, signed to make the pivot entry positive
                g = gcd(*x.values()) if x[pivot] > 0 else -gcd(*x.values())
                if g != 1:
                    for j in x:
                        x[j] //= g
            for row in self._rows.values():  # clear the new pivot column in place
                if pivot in row:
                    self._eliminate(row, x, pivot)
                    if not p and (g := gcd(*row.values())) != 1:
                        for j in row:
                            row[j] //= g
        self._rows[pivot] = x
        self._grew.append((self.n_inserted - 1, v))
        return True

    def contains(self, v: Coordinates) -> bool:
        return not self._reduce(*self._encode(v))[0]

    def membership(self, v: Coordinates):
        """Return ("inside", certificate) or ("outside", exact RREF residual).

        The certificate maps insert indices to nonzero coefficients such that
        the corresponding combination of inserted vectors equals v exactly.
        It is solved per query, and nothing is cached for a later insert to
        invalidate.  An element of the span is fixed by its entries on the
        pivot columns, so the certificate is the unique solution over the
        independent inserts B_k of sum(x_k * B_k[p]) = v[p], one row per pivot p.
        """
        x, s = self._reduce(*self._encode(v))
        if x:
            every = range(self.ambient_dim)
            if self._p == 2:
                return "outside", [x >> j & 1 for j in every]
            return "outside", [x.get(j, 0) if self._p else Fraction(x.get(j, 0), s) for j in every]
        coeffs, _ = _solve([b for _, b in self._grew], v, self.pivots)
        return "inside", {idx: c for (idx, _), c in zip(self._grew, coeffs) if c}


class OrbitSpan:
    """A span of reversal-fixed vectors of one component, eliminated on the
    orbit columns of ``orbits`` by ``orbit_span``, a ``Subspace`` that takes
    orbit ``Coordinates``; this view reads it in word columns.

    ``contains`` and ``membership`` take word ``Coordinates`` and refuse one
    of another length or not fixed by reversal; ``rows``, ``pivots`` and an
    "outside" residual are word vectors, and a certificate maps the orbit
    span's insert indices to coefficients, as ``Subspace.membership`` does.
    """

    __slots__ = ("orbits", "orbit_span")

    def __init__(self, field: Field, orbits: OrbitBasis):
        self.orbits = orbits
        self.orbit_span = Subspace(field, len(orbits))

    @property
    def dim(self) -> int:
        return self.orbit_span.dim

    @property
    def pivots(self) -> list[int]:
        return [self.orbits.rep_cols[q] for q in self.orbit_span.pivots]

    @property
    def rows(self) -> list[list]:
        return [self.orbits.expand(row) for row in self.orbit_span.rows]

    def contains(self, v: Coordinates) -> bool:
        return self.orbit_span.contains(self.orbits.restrict(v))

    def membership(self, v: Coordinates):
        verdict, data = self.orbit_span.membership(self.orbits.restrict(v))
        return verdict, self.orbits.expand(data) if verdict == "outside" else data


class AffineSolution(NamedTuple):
    """The full solution set {x : A x = b}: one particular solution (or None
    when infeasible) plus a basis of the homogeneous solution space."""

    particular: list | None
    homogeneous: list[list]

    @property
    def feasible(self) -> bool:
        return self.particular is not None


def _solve(columns: list[Coordinates], rhs: Coordinates, rows: Iterable[int]):
    """Solve sum(x_j * columns[j]) = rhs on the equations ``rows``, on the
    RREF of the augmented rows [A | b].

    Each equation is scaled by the lcm of the dens to ints, and one that is
    zero is not built.  Returns (None, []) when a pivot lands on the b
    column, and otherwise (particular, homogeneous): the particular solution
    reads the b column on the pivot columns, and each free column j gives
    e_j - sum_i row_i[j] * e_{p_i}.  The pivot columns are exactly the
    columns that are not combinations of earlier ones, so this is the reduced
    normal form: zero on every free column, and one homogeneous vector per
    free column.
    """
    n, f = len(columns), rhs.field
    scale = lcm(rhs.den, *[c.den for c in columns])
    equations = {i: {} for i in rows}
    for j, (cols, vals, den, _, _) in enumerate([*columns, rhs]):
        m = scale // den
        for i, c in zip(cols, vals):
            if i in equations:
                equations[i][j] = c * m
    system = Subspace(f, n + 1)
    for eq in equations.values():
        if eq:
            system.insert(Coordinates(tuple(eq), tuple(eq.values()), 1, n + 1, f))
    pivots = system.pivots
    if n in pivots:
        return None, []
    particular = [f.zero] * n
    for p in pivots:
        particular[p] = system._scalar(p, n)
    homogeneous = []
    for j in [k for k in range(n) if k not in pivots]:
        vec = [f.zero] * n
        vec[j] = f.one
        for p in pivots:
            vec[p] = f.neg(system._scalar(p, j))
        homogeneous.append(vec)
    return particular, homogeneous


def affine_solve(columns: list[Coordinates], rhs: Coordinates) -> AffineSolution:
    """Solve sum(x_j * columns[j]) = rhs exactly, in reduced normal form,
    over the field of rhs."""
    for c in columns:
        if c.field != rhs.field:
            raise FieldError(f"a column over {c.field!r} for a right-hand side over {rhs.field!r}")
        if c.dim != rhs.dim:
            raise ValueError("column length mismatch")
    return AffineSolution(*_solve(columns, rhs, range(rhs.dim)))
