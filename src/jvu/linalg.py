"""Exact linear algebra over a Field.

Homogeneous polynomials are vectorized against the complete deglex-ordered
word list of one multidegree; subspaces are kept in reduced row-echelon form
with a transformation record, so membership tests return an explicit
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
    """An echelonized subspace with pivot bookkeeping and insert certificates.

    Rows are in reduced row-echelon form: pivots strictly increasing, pivot
    entries 1, pivot columns otherwise zero.  The RREF basis of a span is
    unique, so the final rows do not depend on insertion order.  Each row also
    carries its expansion over the vectors passed to :meth:`insert`, which is
    what membership certificates are assembled from.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self.row_reps: list[dict[int, object]] = []  # insert index -> coefficient
        self.n_inserted = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: list):
        """One RREF reduction pass: v = sum(coeffs[i] * rows[i]) + residual."""
        f = self.field
        v = list(v)
        coeffs: dict[int, object] = {}
        for i, p in enumerate(self.pivots):
            c = v[p]
            if f.is_zero(c):
                continue
            coeffs[i] = c
            row = self.rows[i]
            for j in range(p, self.ambient_dim):
                if not f.is_zero(row[j]):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return coeffs, v

    def insert(self, v: list) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        f = self.field
        idx = self.n_inserted
        self.n_inserted += 1
        coeffs, r = self._reduce(v)
        pivot = next((j for j, c in enumerate(r) if not f.is_zero(c)), None)
        if pivot is None:
            return False
        # normalize the new row and its representation over inserted vectors
        inv = f.inv(r[pivot])
        r = [f.mul(inv, c) for c in r]
        rep: dict[int, object] = {idx: inv}
        for i, c in coeffs.items():
            scaled = f.neg(f.mul(inv, c))
            for k, old in self.row_reps[i].items():
                s = f.add(rep.get(k, f.zero), f.mul(scaled, old))
                if f.is_zero(s):
                    rep.pop(k, None)
                else:
                    rep[k] = s
        # back-eliminate the new pivot column from existing rows
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if f.is_zero(c):
                continue
            for j in range(pivot, self.ambient_dim):
                if not f.is_zero(r[j]):
                    row[j] = f.sub(row[j], f.mul(c, r[j]))
            old_rep = self.row_reps[i]
            for k, v2 in rep.items():
                s = f.sub(old_rep.get(k, f.zero), f.mul(c, v2))
                if f.is_zero(s):
                    old_rep.pop(k, None)
                else:
                    old_rep[k] = s
        pos = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(pos, r)
        self.pivots.insert(pos, pivot)
        self.row_reps.insert(pos, rep)
        return True

    def contains(self, v: list) -> bool:
        _, r = self._reduce(v)
        return all(self.field.is_zero(c) for c in r)

    def membership(self, v: list):
        """Return ("inside", certificate) or ("outside", residual).

        The certificate maps insert indices to coefficients such that the
        corresponding combination of inserted vectors equals v exactly.
        """
        f = self.field
        coeffs, r = self._reduce(v)
        if any(not f.is_zero(c) for c in r):
            return "outside", r
        cert: dict[int, object] = {}
        for i, c in coeffs.items():
            for k, old in self.row_reps[i].items():
                s = f.add(cert.get(k, f.zero), f.mul(c, old))
                if f.is_zero(s):
                    cert.pop(k, None)
                else:
                    cert[k] = s
        return "inside", cert

    def basis_vectors(self) -> list[list]:
        return [list(r) for r in self.rows]


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
    """Solve sum(x_j * columns[j]) = rhs exactly on a certified RREF Subspace.

    Columns are fed in order: an independent column is inserted, a dependent
    one's membership certificate c gives the homogeneous solution
    e_j - sum(c[k] * e_placed[k]).  The certificate of rhs is the particular
    solution.  RREF is unique, so this is the reduced normal form: zero on
    every free column, and one homogeneous vector per free column.
    """
    m = len(rhs)
    if any(len(c) != m for c in columns):
        raise ValueError("column length mismatch")
    f = field
    n_cols = len(columns)
    span = Subspace(f, m)
    placed: list[int] = []  # insert index -> column index
    homogeneous = []
    for j, col in enumerate(columns):
        verdict, cert = span.membership(col)
        if verdict == "outside":
            span.insert(col)
            placed.append(j)
            continue
        vec = [f.zero] * n_cols
        vec[j] = f.one
        for k, c in cert.items():
            vec[placed[k]] = f.neg(c)
        homogeneous.append(vec)
    verdict, cert = span.membership(rhs)
    if verdict == "outside":
        return AffineSolution(None, [])
    particular = [f.zero] * n_cols
    for k, c in cert.items():
        particular[placed[k]] = c
    return AffineSolution(particular, homogeneous)


def solve_combination(
    targets: list[FreePoly], rhs: FreePoly, cb: ComponentBasis
) -> AffineSolution:
    """All coefficient vectors c with sum(c_i * targets[i]) = rhs in cb's component."""
    field = rhs.field
    cols = [to_vector(t, cb) for t in targets]
    return affine_solve(cols, to_vector(rhs, cb), field)
