"""Vectorization, echelonized subspaces with certificates, affine solving."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import dense, rand_nonzero_scalar, rand_scalar, vec
from jvu.fields import FieldError, field_from_name
from jvu.freealg import FreePoly, GeneratorSet
from jvu.ideals import outer_ideal_component
from jvu.jordan import JordanElement, circ, je_circ, jordan_closure_table, u_apply
from jvu.linalg import (
    ComponentBasis,
    Coordinates,
    Subspace,
    affine_solve,
    coordinates,
    words_of_multidegree,
)

QQ = field_from_name("q")
GF2 = field_from_name("gf2")
GF5 = field_from_name("gf5")

G2 = GeneratorSet(("x", "y"))
G3 = GeneratorSet(("x", "y", "z"))
G4 = GeneratorSet(("x", "y", "z", "t"))


def gen(gens, field, name):
    return FreePoly.generator(gens, field, name)


def test_words_of_multidegree_complete_and_ordered():
    """Every word of multidegree d once, each of multidegree d, in deglex
    order: the distinct permutations of one such word, sorted."""
    for gens, d, count in ((G3, (2, 2, 1), 30), (G4, (1, 1, 1, 1), 24)):  # 5!/(2!2!1!) and 4!
        words = words_of_multidegree(gens, d)
        assert len(words) == count
        assert all(gens.word_multidegree(w) == d for w in words)
        first = tuple(i for i, c in enumerate(d) for _ in range(c))
        assert words == sorted(set(itertools.permutations(first)))
        assert words_of_multidegree(gens, (0,) * len(gens)) == [()]


@pytest.mark.parametrize(
    "gens, d",
    [
        (G2, (4, 3)),
        *((G3, d) for d in [(1, 0, 0), (2, 1, 0), (0, 2, 1), (3, 2, 1), (3, 2, 2), (3, 3, 2)]),
        (G4, (2, 1, 1, 1)),
    ],
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else f"{len(v)}gens",
)
def test_words_of_multidegree_order_pinned_on_a_ladder(gens, d):
    """The memoized build lists the sorted distinct permutations of one word
    of multidegree d, zero entries included, on a ladder up to total degree 8."""
    first = tuple(i for i, c in enumerate(d) for _ in range(c))
    assert words_of_multidegree(gens, d) == sorted(set(itertools.permutations(first)))


def test_to_vector_read_off():
    x, y = gen(G2, QQ, "x"), gen(G2, QQ, "y")
    p = x * y + (y * x).scale(QQ.from_int(2))
    cb = ComponentBasis(G2, (1, 1))
    assert dense(coordinates(p, cb)) == [Fraction(1), Fraction(2)]
    assert dense(coordinates(FreePoly(G2, QQ), cb)) == [Fraction(0), Fraction(0)]


def test_to_vector_rejects_inhomogeneous():
    x, y = gen(G2, QQ, "x"), gen(G2, QQ, "y")
    cb = ComponentBasis(G2, (1, 1))
    with pytest.raises(ValueError):
        coordinates(x * y + x, cb)


def test_commutator_vector_over_gf2():
    """y x z x y - x y z y x reduces mod 2 to exactly two unit coordinates."""
    x, y, z = (gen(G3, GF2, n) for n in "xyz")
    cb = ComponentBasis(G3, (2, 2, 1))
    v = dense(coordinates(y * x * z * x * y - x * y * z * y * x, cb))
    support = [i for i, c in enumerate(v) if c]
    assert [cb.words[i] for i in support] == sorted([(1, 0, 2, 0, 1), (0, 1, 2, 1, 0)])
    assert all(v[i] == 1 for i in support)


def test_span_insert_basics():
    s = Subspace(QQ, 3)
    v = [Fraction(1), Fraction(2), Fraction(0)]
    assert s.insert(vec(QQ, v)) is True
    assert s.dim == 1
    assert s.insert(vec(QQ, v)) is False  # idempotent
    assert s.dim == 1


def test_insert_twelve_symmetrized_words_gf2():
    cb = ComponentBasis(G4, (1, 1, 1, 1))
    s = Subspace(GF2, len(cb))
    for w in cb.words:
        s.insert(coordinates(FreePoly.from_word(G4, GF2, w).symmetrize(), cb))
    assert s.dim == 12


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=["q", "gf2", "gf5"])
def test_membership_certificate_reconstructs(field):
    """Certificates recombine to the target, name only inserts that grew the
    span, survive later growth unchanged, and leave the span untouched."""
    rng = random.Random(8)

    def combine(coeffs, vecs):
        out = [field.zero] * 6
        for c, v in zip(coeffs, vecs):
            out = [field.add(t, field.mul(c, x)) for t, x in zip(out, v)]
        return out

    s = Subspace(field, 6)
    inserted, grew = [], []
    while s.dim < 4:
        # an independent candidate, then a combination of what is already in
        for v in ([rand_scalar(rng, field) for _ in range(6)],
                  combine([rand_scalar(rng, field) for _ in inserted], inserted)):
            if s.insert(vec(field, v)):
                grew.append(len(inserted))
            inserted.append(v)
    assert len(inserted) > len(grew)
    target = combine([rand_scalar(rng, field) for _ in inserted], inserted)
    state = ([list(r) for r in s.rows], list(s.pivots), s.dim, s.n_inserted)
    verdict, cert = s.membership(vec(field, target))
    assert verdict == "inside"
    assert set(cert) <= set(grew)
    assert combine(cert.values(), [inserted[idx] for idx in cert]) == target
    assert ([list(r) for r in s.rows], list(s.pivots), s.dim, s.n_inserted) == state
    while not s.insert(vec(field, [rand_scalar(rng, field) for _ in range(6)])):
        pass
    assert s.membership(vec(field, target)) == ("inside", cert)


def test_membership_trivial_cases():
    s = Subspace(QQ, 3)
    v = [Fraction(1), Fraction(0), Fraction(1)]
    s.insert(vec(QQ, v))
    verdict, cert = s.membership(vec(QQ, v))
    assert verdict == "inside" and cert == {0: Fraction(1)}
    verdict, cert = s.membership(vec(QQ, [Fraction(0)] * 3))
    assert verdict == "inside" and cert == {}


def test_membership_outside_residual():
    s = Subspace(QQ, 3)
    s.insert(vec(QQ, [Fraction(1), Fraction(1), Fraction(0)]))
    verdict, residual = s.membership(vec(QQ, [Fraction(0), Fraction(0), Fraction(5)]))
    assert verdict == "outside"
    assert any(residual)
    # the residual is fully reduced: zero in every pivot column
    assert all(residual[p] == 0 for p in s.pivots)


def test_echelon_determinism_under_insertion_order():
    """The reduced basis is unique: shuffled insertion orders agree."""
    rng = random.Random(9)
    for field in (QQ, GF2):
        for _ in range(50):
            vecs = [[rand_scalar(rng, field) for _ in range(5)] for _ in range(4)]
            reference = None
            for _ in range(3):
                order = list(range(len(vecs)))
                rng.shuffle(order)
                s = Subspace(field, 5)
                for i in order:
                    s.insert(vec(field, vecs[i]))
                if reference is None:
                    reference = (s.rows, s.pivots)
                else:
                    assert (s.rows, s.pivots) == reference


def test_rref_shape_invariants():
    rng = random.Random(10)
    s = Subspace(QQ, 8)
    for _ in range(6):
        s.insert(vec(QQ, [rand_scalar(rng, QQ) for _ in range(8)]))
    assert s.pivots == sorted(s.pivots)
    for i, p in enumerate(s.pivots):
        assert s.rows[i][p] == 1
        for j in range(s.dim):
            if j != i:
                assert s.rows[j][p] == 0


def test_symmetric_plus_skew_dimension_count():
    """Over Q: dim(sym span) + dim(skew span) = word count of the component."""
    for d in ((1, 1, 1), (2, 2, 1), (2, 1, 0)):
        cb = ComponentBasis(G3, d)
        sym = Subspace(QQ, len(cb))
        skew = Subspace(QQ, len(cb))
        for w in cb.words:
            p = FreePoly.from_word(G3, QQ, w)
            sp = p.symmetrize()
            kp = p - p.reverse()
            if not sp.is_zero():
                sym.insert(coordinates(sp, cb))
            if not kp.is_zero():
                skew.insert(coordinates(kp, cb))
        assert sym.dim + skew.dim == len(cb)


def test_affine_solve_trivial_scaling():
    x = gen(G2, QQ, "x")
    p = x * gen(G2, QQ, "y")
    cb = ComponentBasis(G2, (1, 1))
    sol = affine_solve([coordinates(p, cb)], coordinates(p.scale(QQ.from_int(2)), cb))
    assert sol.particular == [Fraction(2)]
    assert sol.homogeneous == []


def test_affine_solve_infeasible():
    cb = ComponentBasis(G2, (1, 1))
    x, y = gen(G2, QQ, "x"), gen(G2, QQ, "y")
    sol = affine_solve([coordinates(x * y, cb)], coordinates(y * x, cb))
    assert not sol.feasible


def test_affine_solution_is_read_only():
    sol = affine_solve([vec(QQ, [QQ.one])], vec(QQ, [QQ.one]))
    with pytest.raises(AttributeError):
        sol.particular = None
    assert sol.particular == [QQ.one]


def _ansatz(field):
    """The seven ansatz targets and the right-hand side at (2,2,1), and the
    solution of the system on their coordinates."""
    x, y, z = (gen(G3, field, n) for n in "xyz")
    t = circ(x, y)
    targets = [
        (x * z * y * t).symmetrize(),
        (x * z * t * y).symmetrize(),
        (t * z * x * y).symmetrize(),
        (t * z * y * x).symmetrize(),
        (y * z * t * x).symmetrize(),
        (y * z * x * t).symmetrize(),
        u_apply(t, z),
    ]
    rhs = (t * z * x * y).symmetrize()
    cb = ComponentBasis(G3, (2, 2, 1))
    return targets, rhs, affine_solve([coordinates(p, cb) for p in targets], coordinates(rhs, cb))


def test_seven_term_system_over_q():
    """One free parameter; normalized to the slot-4 coordinate it reads
    (0, 0, 1+L, L, 0, 0, -2L)."""
    _, _, sol = _ansatz(QQ)
    assert sol.feasible and len(sol.homogeneous) == 1
    h = sol.homogeneous[0]
    scale = 1 / h[3]
    h = [scale * c for c in h]
    p = [a - sol.particular[3] * b for a, b in zip(sol.particular, h)]
    assert p == [0, 0, 1, 0, 0, 0, 0]
    assert h == [0, 0, 1, 1, 0, 0, -2]


def test_seven_term_system_over_gf2_kills_alpha7():
    """In characteristic 2 the -2L slot collapses: alpha7 = 0 for the family."""
    _, _, sol = _ansatz(GF2)
    assert sol.feasible
    assert sol.particular[6] == 0
    assert all(h[6] == 0 for h in sol.homogeneous)
    assert len(sol.homogeneous) == 1
    assert sol.homogeneous[0] == [0, 0, 1, 1, 0, 0, 0]


def test_solution_substitutes_back():
    """Particular reproduces the rhs; homogeneous vectors map to zero."""
    for field in (QQ, GF2):
        targets, rhs, sol = _ansatz(field)
        combo = FreePoly(G3, field)
        for c, t in zip(sol.particular, targets):
            combo = combo + t.scale(c)
        assert combo == rhs
        for h in sol.homogeneous:
            combo = FreePoly(G3, field)
            for c, t in zip(h, targets):
                combo = combo + t.scale(c)
            assert combo.is_zero()


def _apply(columns, x, m, field):
    out = [field.zero] * m
    for c, col in zip(x, columns):
        out = [field.add(o, field.mul(c, v)) for o, v in zip(out, col)]
    return out


def _random_system(rng, field, m, n, rank, feasible):
    """n columns of length m spanning at most `rank` dimensions, some of them
    zero, and a right-hand side that is in their span when `feasible`."""

    def combination(vecs):
        return _apply(vecs, [rand_scalar(rng, field) for _ in vecs], m, field)

    basis = [[rand_scalar(rng, field) for _ in range(m)] for _ in range(rank)]
    columns = [[field.zero] * m if rng.random() < 0.2 else combination(basis) for _ in range(n)]
    rhs = combination(columns) if feasible else [rand_scalar(rng, field) for _ in range(m)]
    return columns, rhs


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_affine_solve_normal_form(field):
    """The solution is the unique reduced normal form, checked against a
    separately built Subspace: the particular solution and each homogeneous
    vector vanish on the other free columns, and a free column is one that
    did not grow the span when the columns were inserted in order."""
    rng = random.Random(12)
    shapes = [(m, n) for m in range(6) for n in range(6)] + [(8, 3), (3, 8), (6, 6)]
    for m, n in shapes:
        for rank in sorted({0, min(m, n) // 2, min(m, n)}):
            for feasible in (True, False):
                columns, rhs = _random_system(rng, field, m, n, rank, feasible)
                span = Subspace(field, m)
                free = [j for j, col in enumerate(columns) if not span.insert(vec(field, col))]
                sol = affine_solve([vec(field, col) for col in columns], vec(field, rhs))
                assert sol.feasible == span.contains(vec(field, rhs))
                if feasible:
                    assert sol.feasible
                if not sol.feasible:
                    assert sol.particular is None and sol.homogeneous == []
                    continue
                assert _apply(columns, sol.particular, m, field) == rhs
                assert all(sol.particular[j] == 0 for j in free)
                assert len(sol.homogeneous) == n - span.dim
                for j, h in zip(free, sol.homogeneous):
                    assert _apply(columns, h, m, field) == [field.zero] * m
                    assert [h[k] for k in free] == [int(k == j) for k in free]


def test_affine_solve_shapes_validated():
    """A column of another length is a ValueError, and a column over
    another field than the right-hand side's is a FieldError."""
    with pytest.raises(ValueError):
        affine_solve([vec(QQ, [Fraction(1)])], vec(QQ, [Fraction(1), Fraction(0)]))
    with pytest.raises(FieldError):
        affine_solve([vec(GF5, [1, 0])], vec(QQ, [Fraction(1), Fraction(0)]))
    with pytest.raises(FieldError):
        affine_solve([vec(QQ, [1, 0]), vec(GF2, [1, 1])], vec(GF5, [1, 0]))


def test_int_scalars_over_q_stay_exact():
    """Int entries over Q give Fraction results at every entry point: the
    stored rows, the particular solution and a membership certificate."""

    def exact(values):
        return all(type(c) in (int, Fraction) for c in values)

    span = Subspace(QQ, 2)
    span.insert(vec(QQ, [2, 1]))
    assert span.rows == [[1, Fraction(1, 2)]] and exact(span.rows[0])
    particular = affine_solve([vec(QQ, [2, 0]), vec(QQ, [0, 4])], vec(QQ, [1, 1])).particular
    assert particular == [Fraction(1, 2), Fraction(1, 4)] and exact(particular)
    p = FreePoly(G2, QQ, {(0, 1): 3, (1, 0): 1})
    cb = ComponentBasis(G2, (1, 1))
    span = Subspace(QQ, len(cb))
    span.insert(coordinates(p, cb))
    verdict, cert = span.membership(coordinates(p + p, cb))
    assert (verdict, cert) == ("inside", {0: 2}) and exact(cert.values())


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=["q", "gf2", "gf5"])
def test_every_entry_point_checks_the_length(field):
    """contains and membership refuse a vector of the wrong length, as insert does."""
    s = Subspace(field, 3)
    s.insert(vec(field, [1, 1, 0]))
    for bad in (vec(field, [1, 1]), vec(field, [1, 1, 0, 0])):
        for entry in (s.insert, s.contains, s.membership):
            with pytest.raises(ValueError):
                entry(bad)
    assert s.dim == 1 and s.n_inserted == 1


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=["q", "gf2", "gf5"])
def test_views_cannot_corrupt_the_span(field):
    """Writes to rows and pivots land in fresh lists, not in the span."""
    s = Subspace(field, 3)
    s.insert(vec(field, [1, 1, 0]))
    s.rows[0][0] = field.zero
    s.rows[0][1] = field.from_int(7)
    s.rows.append([0, 0, 1])
    s.pivots[0] = 2
    s.pivots.append(1)
    assert s.contains(vec(field, [1, 1, 0])) and not s.contains(vec(field, [0, 0, 1]))
    assert (s.rows, s.pivots, s.dim) == ([[1, 1, 0]], [0], 1)


class _ReferenceSpan:
    """Plain Gauss-Jordan over Field methods: RREF rows, and each row's
    expansion over the inserts that grew the span."""

    def __init__(self, field):
        self.f, self.n_inserted = field, 0
        self.rows, self.pivots, self.reps = [], [], []

    def reduce(self, v):
        """(residual, rep) with v = residual + sum(rep[k] * insert k)."""
        f, r, rep = self.f, list(v), {}
        for p, row, row_rep in zip(self.pivots, self.rows, self.reps):
            c = r[p]
            if not f.is_zero(c):
                r = [f.sub(a, f.mul(c, b)) for a, b in zip(r, row)]
                for k, e in row_rep.items():
                    rep[k] = f.add(rep.get(k, f.zero), f.mul(c, e))
        return r, rep

    def insert(self, v):
        f = self.f
        self.n_inserted += 1
        r, rep = self.reduce(v)
        pivot = next((j for j, c in enumerate(r) if not f.is_zero(c)), None)
        if pivot is None:
            return False
        inv = f.inv(r[pivot])
        r = [f.mul(inv, c) for c in r]
        new_rep = {k: f.neg(f.mul(inv, e)) for k, e in rep.items()}
        new_rep[self.n_inserted - 1] = inv
        for i, (row, row_rep) in enumerate(zip(self.rows, self.reps)):
            c = row[pivot]
            if not f.is_zero(c):
                self.rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, r)]
                for k, e in new_rep.items():
                    row_rep[k] = f.sub(row_rep.get(k, f.zero), f.mul(c, e))
        pos = sum(p < pivot for p in self.pivots)
        self.rows.insert(pos, r)
        self.pivots.insert(pos, pivot)
        self.reps.insert(pos, new_rep)
        return True

    def membership(self, v):
        r, rep = self.reduce(v)
        if any(not self.f.is_zero(c) for c in r):
            return "outside", r
        return "inside", {k: c for k, c in rep.items() if not self.f.is_zero(c)}


def _reference_affine_solve(columns, rhs, f):
    """The reduced normal form of {x : sum(x_j * columns[j]) = rhs} on the reference RREF."""
    n = len(columns)
    ref = _ReferenceSpan(f)
    for i, b in enumerate(rhs):
        ref.insert([col[i] for col in columns] + [b])
    if n in ref.pivots:
        return None, []
    particular = [f.zero] * n
    for p, row in zip(ref.pivots, ref.rows):
        particular[p] = row[n]
    homogeneous = []
    for j in [k for k in range(n) if k not in ref.pivots]:
        vec = [f.zero] * n
        vec[j] = f.one
        for p, row in zip(ref.pivots, ref.rows):
            vec[p] = f.neg(row[j])
        homogeneous.append(vec)
    return particular, homogeneous


# Q with int entries, Q with large coprime denominators, and the prime fields
# from GF(2) up to the largest modulus field_from_name accepts.
_LARGE_DENOMINATORS = (10**9 + 7, 10**9 + 9, 998244353, 2**31 - 1, 1000003 * 1000033)
_KERNEL_CASES = {
    "q-int": (QQ, lambda rng: rng.choice((0, 0, 1, -1, rng.randint(-40, 40)))),
    "q-fraction": (QQ, lambda rng: rng.choice((0, Fraction(rng.randint(-10**6, 10**6), rng.choice(_LARGE_DENOMINATORS))))),
    "gf2": (GF2, lambda rng: rng.randrange(2)),
    "gf3": (field_from_name("gf3"), lambda rng: rng.randrange(3)),
    "gf2147483647": (field_from_name("gf2147483647"), lambda rng: rng.choice((0, rng.randrange(2**31 - 1)))),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_span_kernel_matches_plain_gauss_jordan(case):
    """Seeded random insert sequences give the same rows, pivots, dim,
    n_inserted, residuals, certificates and affine solutions as a plain
    Gauss-Jordan over Field methods; over Q every entry stays exact, and the
    fraction case feeds Coordinates with dens above 1."""
    field, entry = _KERNEL_CASES[case]
    rng = random.Random(case)
    dens = set()

    def fed(values):
        c = vec(field, values)
        dens.add(c.den)
        return c

    def exact(values):
        return all(type(c) in ((int, Fraction) if field == QQ else (int,)) for c in values)

    for _ in range(40):
        n = rng.randint(1, 9)
        s, ref, inserted = Subspace(field, n), _ReferenceSpan(field), []
        for _ in range(rng.randint(1, n + 3)):
            if inserted and rng.random() < 0.3:
                v = _apply(inserted, [entry(rng) for _ in inserted], n, field)
            else:
                v = [entry(rng) for _ in range(n)]
            inserted.append(v)
            assert s.insert(fed(v)) == ref.insert(v)
        assert (s.rows, s.pivots, s.dim, s.n_inserted) == (ref.rows, ref.pivots, len(ref.rows), ref.n_inserted)
        assert all(exact(row) for row in s.rows)
        if field == QQ:  # the integer store keeps each row primitive, pivot entry positive
            assert all(gcd(*row.values()) == 1 and row[p] > 0 for p, row in s._rows.items())
        for _ in range(4):
            for v in ([entry(rng) for _ in range(n)], _apply(inserted, [entry(rng) for _ in inserted], n, field)):
                verdict, data = s.membership(fed(v))
                assert (verdict, data) == ref.membership(v)
                assert s.contains(fed(v)) == (verdict == "inside")
                assert exact(data.values() if verdict == "inside" else data)
        m = rng.randint(1, 6)
        columns = [[entry(rng) for _ in range(m)] for _ in range(rng.randint(1, 6))]
        rhs = [entry(rng) for _ in range(m)]
        sol = affine_solve([fed(col) for col in columns], fed(rhs))
        assert (sol.particular, sol.homogeneous) == _reference_affine_solve(columns, rhs, field)
    assert (max(dens) > 1) == (case == "q-fraction")


_SUPPORT_CASES = {
    "q": (QQ, lambda rng: rng.choice((0, 0, 0, 1, -1, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))),
    "gf2": (GF2, lambda rng: rng.choice((0, 0, 1))),
    "gf3": (field_from_name("gf3"), lambda rng: rng.choice((0, 0, rng.randrange(3)))),
    "gf5": (GF5, lambda rng: rng.choice((0, 0, rng.randrange(5)))),
}


@pytest.mark.parametrize("case", sorted(_SUPPORT_CASES))
def test_support_index_is_each_rows_nonzero_columns(case):
    """After every insert of a seeded sequence, the store is keyed by the
    pivots; each dict row holds only nonzero values, its smallest key is its
    pivot, and it holds no other pivot key; over GF(2) the mask is the bitset
    of the pivots and each row holds its own pivot bit and no other.  So the
    rows stay in reduced row-echelon form."""
    field, entry = _SUPPORT_CASES[case]
    rng = random.Random(case)
    for _ in range(60):
        n = rng.randint(1, 12)
        s = Subspace(field, n)
        for _ in range(rng.randint(1, n + 3)):
            s.insert(vec(field, [entry(rng) for _ in range(n)]))
            assert sorted(s._rows) == s.pivots and len(s._rows) == s.dim
            if field == GF2:
                assert s._mask == sum(1 << q for q in s._rows)
                assert all(row & -row == row & s._mask == 1 << q for q, row in s._rows.items())
                continue
            for q, row in s._rows.items():
                assert all(row.values()) and min(row) == q
                assert row.keys() & s._rows.keys() == {q}


@pytest.mark.parametrize("field", [QQ, GF2, field_from_name("gf3"), GF5], ids=["q", "gf2", "gf3", "gf5"])
def test_callers_lists_do_not_alias_the_span(field):
    """Rows are updated in place, so no list a caller holds may be one the
    span keeps: no entry point writes into the lists of the caller's
    Coordinates, and mutating an "outside" residual that membership returned
    leaves the span and its certificates unchanged."""
    one, zero = field.one, field.zero

    def listed(values):  # Coordinates whose cols and vals are lists a write could reach
        c = vec(field, values)
        return Coordinates(list(c.cols), list(c.vals), c.den, c.dim, field)

    first, second, query = listed([one, one, zero, zero]), listed([one, zero, one, zero]), listed([one, zero, zero, one])
    both = listed([field.add(a, b) for a, b in zip(dense(first), dense(second))])
    held = [(list(c.cols), list(c.vals)) for c in (first, second, query, both)]
    s = Subspace(field, 4)
    assert s.insert(first) and s.insert(second)  # second is reduced by first's row
    rows, certificate = s.rows, s.membership(both)
    assert certificate == ("inside", {0: one, 1: one})
    verdict, residual = s.membership(query)
    expected = list(residual)
    assert verdict == "outside" and not s.contains(query)
    assert [(c.cols, c.vals) for c in (first, second, query, both)] == held
    residual[:] = [one] * 4
    assert (s.rows, s.membership(both), s.membership(query)) == (rows, certificate, ("outside", expected))
    assert s.insert(vec(field, [zero, zero, zero, one])) and s.dim == 3
    assert s.membership(both) == certificate


_GF3 = field_from_name("gf3")
def _random_component_poly(rng, field, cb, done):
    """A random element of cb's component: a few words with nonzero random
    scalars, or (a third of the time, once there is something to combine) a
    random combination of earlier ones, which lands inside their span."""
    if done and rng.random() < 1 / 3:
        out = FreePoly(cb.gens, field)
        for p in rng.sample(done, min(len(done), 3)):
            out = out + p.scale(rand_scalar(rng, field))
        return out
    words = rng.sample(cb.words, rng.randint(1, 4))
    return FreePoly(cb.gens, field, {w: rand_nonzero_scalar(rng, field) for w in words})


def _refusal(call):
    try:
        call()
    except ValueError as e:  # FieldError is a ValueError
        return type(e), str(e)
    return None


@pytest.mark.parametrize("field", [QQ, GF2, _GF3, GF5], ids=["q", "gf2", "gf3", "gf5"])
def test_coordinates_refuse_what_to_vector_refuses(field):
    """An inhomogeneous polynomial and one over another generator set are
    refused by ``coordinates``; a component of the wrong size is refused by
    every entry point, and the span is left as it was; coordinates over
    another field are a FieldError."""
    cb = ComponentBasis(G3, (1, 1, 0))
    x, y = gen(G3, field, "x"), gen(G3, field, "y")
    assert _refusal(lambda: coordinates(x * y + x, cb)) == (
        ValueError, "polynomial is not homogeneous of multidegree (1, 1, 0)"
    )
    assert _refusal(lambda: coordinates(gen(G2, field, "x") * gen(G2, field, "y"), cb)) == (
        ValueError, "mismatched generator sets"
    )
    wrong = coordinates(x * y * gen(G3, field, "z"), ComponentBasis(G3, (1, 1, 1)))
    for entry in ("insert", "contains", "membership"):
        span = Subspace(field, len(cb))
        span.insert(coordinates(x * y, cb))
        assert _refusal(lambda: getattr(span, entry)(wrong)) == (ValueError, "ambient dimension mismatch")
        other = QQ if field.characteristic else GF5
        xy = gen(G3, other, "x") * gen(G3, other, "y")
        with pytest.raises(FieldError):
            getattr(span, entry)(coordinates(xy, cb))
        assert (span.dim, span.n_inserted, span.rows) == (1, 1, [[1, 0]])


class _FullScanSpan(Subspace):
    """A span whose reduction tests the incoming vector at every pivot."""

    def _reduce(self, x, s):
        for q in self.pivots:
            if q in x:
                s *= self._eliminate(x, self._rows[q], q)
        return x, s


@pytest.mark.parametrize("field", [QQ, _GF3, GF5], ids=["q", "gf3", "gf5"])
@pytest.mark.parametrize("seed", range(4))
def test_support_reduction_matches_full_scan(field, seed):
    """A span that eliminates only at the pivots in a vector's support, and a
    twin that tests every pivot, fed the same seeded ``coordinates`` (over Q
    with denominators up to 9), agree on rows, pivots, stored rows,
    residuals and certificates after every step."""
    rng = random.Random(f"full-scan/{field!r}/{seed}")
    cb = ComponentBasis(G3, (2, 2, 1))
    fast, full = Subspace(field, len(cb)), _FullScanSpan(field, len(cb))
    done = []
    for _ in range(24):
        p = _random_component_poly(rng, field, cb, done)
        assert fast.insert(coordinates(p, cb)) == full.insert(coordinates(p, cb))
        done.append(p)
        assert (fast.rows, fast.pivots, fast._rows) == (full.rows, full.pivots, full._rows)
        for q in (_random_component_poly(rng, field, cb, done), p):
            c = coordinates(q, cb)
            assert fast.membership(c) == full.membership(c)
            assert fast.contains(c) == full.contains(c)


def _stream_tables(field, mode):
    """The outer ideal of x o y at (2,2,2), and the closure at (3,2,1)."""
    x, y = (JordanElement.generator(G3, field, name) for name in "xy")
    yield outer_ideal_component(je_circ(x, y), (2, 2, 2), mode, field).table
    yield jordan_closure_table(G3, (3, 2, 1), mode, mode == "quadratic", field)


@pytest.mark.parametrize(
    "field, mode", [(QQ, "linear"), (_GF3, "linear"), (GF2, "quadratic")], ids=["q-linear", "gf3-linear", "gf2-quadratic"]
)
def test_spans_match_plain_gauss_jordan_on_jordan_insert_streams(field, mode):
    """Every component's insert stream of two real tables, fed to a fresh
    span as ``coordinates`` and to the plain Gauss-Jordan as their dense
    lists, gets the same verdict at each insert and the same pivots after
    it, and ends in the same RREF rows as the reference and the table."""
    inserts = 0
    for table in _stream_tables(field, mode):
        for d in table.multidegrees():
            cb = table.component_basis(d)
            span, ref = Subspace(field, len(cb)), _ReferenceSpan(field)
            for e in table.inserted(d):
                assert span.insert(coordinates(e.value, cb)) == ref.insert(dense(coordinates(e.value, cb)))
                assert span.pivots == ref.pivots
                inserts += 1
            assert span.rows == ref.rows == table.subspace(d).rows
            assert span.pivots == table.subspace(d).pivots
    assert inserts > 100
