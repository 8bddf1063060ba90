"""Exact linear algebra over a Field.

Homogeneous polynomials are vectorized against the complete deglex-ordered
word list of one multidegree; subspaces are kept in reduced row-echelon form,
and a membership test that finds a vector inside solves an explicit
coefficient certificate over the vectors that were inserted, not just a
verdict.  Ambient dimensions in this workbench stay small (a few hundred at
most), so vectors are dense lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .freealg import FreePoly, GeneratorSet, MultiDegree, Word


def words_of_multidegree(gens: GeneratorSet, d: MultiDegree) -> list[Word]:
    """All words with exactly d_i occurrences of generator i, in deglex order."""
    d = tuple(d)
    if len(d) != len(gens):
        raise ValueError("multidegree length does not match generator count")
    if any(c < 0 for c in d):
        raise ValueError("multidegree entries must be nonnegative")
    out: list[Word] = []
    counts = list(d)
    prefix: list[int] = []

    def rec():
        if not any(counts):
            out.append(tuple(prefix))
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                prefix.append(i)
                rec()
                prefix.pop()
                counts[i] += 1

    rec()
    return out  # generated in lexicographic order; equal length makes it deglex


class ComponentBasis:
    """The ordered word basis of one multidegree component of F<X>."""

    __slots__ = ("gens", "multidegree", "words", "_index")

    def __init__(self, gens: GeneratorSet, d: MultiDegree):
        self.gens = gens
        self.multidegree = tuple(d)
        self.words = tuple(words_of_multidegree(gens, d))
        self._index = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    def index(self, word: Word) -> int:
        return self._index[tuple(word)]

    def __repr__(self):
        return f"ComponentBasis({self.multidegree}, {len(self.words)} words)"


def to_vector(p: FreePoly, cb: ComponentBasis) -> list:
    """Exact coordinates of a homogeneous polynomial against cb's word list."""
    if p.gens != cb.gens:
        raise ValueError("mismatched generator sets")
    if not p.is_homogeneous(cb.multidegree):
        raise ValueError(f"polynomial is not homogeneous of multidegree {cb.multidegree}")
    vec = [p.field.zero] * len(cb.words)
    for w, c in p.terms.items():
        vec[cb.index(w)] = c
    return vec


def from_vector(vec, cb: ComponentBasis, field: Field) -> FreePoly:
    return FreePoly(cb.gens, field, dict(zip(cb.words, vec)))


class Subspace:
    """An echelonized subspace with pivot bookkeeping and certificates on demand.

    Every vector given to ``insert``, ``contains`` or ``membership`` must hold
    exact scalars of the field (``Field.require_exact``); a float is refused.

    Rows are in reduced row-echelon form: pivots strictly increasing, pivot
    entries 1, pivot columns otherwise zero.  The RREF basis of a span is
    unique, so the final rows do not depend on insertion order.  Beside the
    rows the span keeps only the inserts that grew it, with their insert
    indices; :meth:`membership` solves a certificate over them when a vector
    is inside, and inserts do no certificate work.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self.n_inserted = 0
        self._grew: list[tuple[int, list]] = []  # (insert index, vector) per independent insert

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def row_reps(self) -> list[dict[int, object]]:
        """Each row's expansion over the inserted vectors, solved when read."""
        return [self.membership(row)[1] for row in self.rows]

    def _reduce(self, v: list) -> list:
        """One RREF reduction pass: the residual of v against the rows."""
        f = self.field
        v = list(v)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if f.is_zero(c):
                continue
            for j in range(p, self.ambient_dim):
                if not f.is_zero(row[j]):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def insert(self, v: list) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        f = self.field
        f.require_exact(v)
        idx = self.n_inserted
        self.n_inserted += 1
        r = self._reduce(v)
        pivot = next((j for j, c in enumerate(r) if not f.is_zero(c)), None)
        if pivot is None:
            return False
        inv = f.inv(r[pivot])
        r = [f.mul(inv, c) for c in r]
        # back-eliminate the new pivot column from existing rows
        for row in self.rows:
            c = row[pivot]
            if f.is_zero(c):
                continue
            for j in range(pivot, self.ambient_dim):
                if not f.is_zero(r[j]):
                    row[j] = f.sub(row[j], f.mul(c, r[j]))
        pos = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(pos, r)
        self.pivots.insert(pos, pivot)
        self._grew.append((idx, list(v)))
        return True

    def contains(self, v: list) -> bool:
        self.field.require_exact(v)
        return all(self.field.is_zero(c) for c in self._reduce(v))

    def membership(self, v: list):
        """Return ("inside", certificate) or ("outside", residual).

        The certificate maps insert indices to nonzero coefficients such that
        the corresponding combination of inserted vectors equals v exactly.
        It is solved per query, and nothing is cached for a later insert to
        invalidate.  An element of the span is fixed by its entries on the
        pivot columns, so the certificate is the unique solution over the
        independent inserts B_k of sum(x_k * B_k[p]) = v[p], one row per pivot p.
        """
        f = self.field
        f.require_exact(v)
        r = self._reduce(v)
        if any(not f.is_zero(c) for c in r):
            return "outside", r
        x, _ = _solve([[b[p] for p in self.pivots] for _, b in self._grew], [v[p] for p in self.pivots], f)
        return "inside", {idx: c for (idx, _), c in zip(self._grew, x) if not f.is_zero(c)}


@dataclass
class AffineSolution:
    """The full solution set {x : A x = b}: one particular solution (or None
    when infeasible) plus a basis of the homogeneous solution space."""

    particular: list | None
    homogeneous: list[list]

    @property
    def feasible(self) -> bool:
        return self.particular is not None


def _solve(columns: list[list], rhs: list, f: Field):
    """Solve sum(x_j * columns[j]) = rhs on the RREF of the augmented rows [A | b].

    Returns (None, []) when a pivot lands on the b column, and otherwise
    (particular, homogeneous): the particular solution reads the b column on
    the pivot columns, and each free column j gives e_j - sum_i row_i[j] * e_{p_i}.
    The pivot columns are exactly the columns that are not combinations of
    earlier ones, so this is the reduced normal form: zero on every free
    column, and one homogeneous vector per free column.
    """
    n = len(columns)
    system = Subspace(f, n + 1)
    for i, b in enumerate(rhs):
        system.insert([col[i] for col in columns] + [b])
    if n in system.pivots:
        return None, []
    pivot_rows = list(zip(system.pivots, system.rows))
    particular = [f.zero] * n
    for p, row in pivot_rows:
        particular[p] = row[n]
    homogeneous = []
    for j in [k for k in range(n) if k not in system.pivots]:
        vec = [f.zero] * n
        vec[j] = f.one
        for p, row in pivot_rows:
            vec[p] = f.neg(row[j])
        homogeneous.append(vec)
    return particular, homogeneous


def affine_solve(columns: list[list], rhs: list, field: Field) -> AffineSolution:
    """Solve sum(x_j * columns[j]) = rhs exactly, in reduced normal form."""
    if any(len(c) != len(rhs) for c in columns):
        raise ValueError("column length mismatch")
    return AffineSolution(*_solve(columns, rhs, field))


def solve_combination(
    targets: list[FreePoly], rhs: FreePoly, cb: ComponentBasis
) -> AffineSolution:
    """All coefficient vectors c with sum(c_i * targets[i]) = rhs in cb's component."""
    field = rhs.field
    cols = [to_vector(t, cb) for t in targets]
    return affine_solve(cols, to_vector(rhs, cb), field)
