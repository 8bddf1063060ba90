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
        It is solved per query on the same kernel, and nothing is cached, so
        there is nothing for a later insert to invalidate.  An element of the
        span is fixed by its entries on the pivot columns, so with
        B_0..B_{r-1} the inserts that grew the span, the system with one row
        (B_0[p], ..., B_{r-1}[p], v[p]) per pivot p is square and invertible:
        its RREF is [I | x], and x is the certificate.  It is unique because
        the B_k are independent.
        """
        f = self.field
        f.require_exact(v)
        r = self._reduce(v)
        if any(not f.is_zero(c) for c in r):
            return "outside", r
        n = len(self._grew)
        system = Subspace(f, n + 1)
        for p in self.pivots:
            system.insert([b[p] for _, b in self._grew] + [v[p]])
        x = [row[n] for row in system.rows]
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


def affine_solve(columns: list[list], rhs: list, field: Field) -> AffineSolution:
    """Solve sum(x_j * columns[j]) = rhs exactly on one RREF Subspace.

    Every column is inserted in order, so insert index j is column j.  Each
    column that did not grow the span has a membership certificate c over the
    earlier independent columns, and e_j - sum(c[k] * e_k) is its homogeneous
    solution.  The certificate of rhs is the particular solution.
    Certificates over an independent set are unique, so this is the reduced
    normal form: zero on every free column, and one homogeneous vector per
    free column.
    """
    m = len(rhs)
    if any(len(c) != m for c in columns):
        raise ValueError("column length mismatch")
    f = field
    n_cols = len(columns)
    span = Subspace(f, m)
    free = [j for j, col in enumerate(columns) if not span.insert(col)]
    homogeneous = []
    for j in free:
        vec = [f.zero] * n_cols
        vec[j] = f.one
        for k, c in span.membership(columns[j])[1].items():
            vec[k] = f.neg(c)
        homogeneous.append(vec)
    verdict, cert = span.membership(rhs)
    if verdict == "outside":
        return AffineSolution(None, [])
    particular = [f.zero] * n_cols
    for k, c in cert.items():
        particular[k] = c
    return AffineSolution(particular, homogeneous)


def solve_combination(
    targets: list[FreePoly], rhs: FreePoly, cb: ComponentBasis
) -> AffineSolution:
    """All coefficient vectors c with sum(c_i * targets[i]) = rhs in cb's component."""
    field = rhs.field
    cols = [to_vector(t, cb) for t in targets]
    return affine_solve(cols, to_vector(rhs, cb), field)
