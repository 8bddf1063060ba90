"""Words, sparse polynomials, the reversal involution, and the symmetrizer."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import rand_poly
from jvu.fields import FieldError, field_from_name
from jvu.freealg import FreePoly, GeneratorSet
from jvu.jordan import circ

QQ = field_from_name("q")
GF2 = field_from_name("gf2")
GF5 = field_from_name("gf5")

G3 = GeneratorSet(("x", "y", "z"))
G4 = GeneratorSet(("x", "y", "z", "t"))


def gen(gens, field, name):
    return FreePoly.generator(gens, field, name)


def test_generator_set_validates():
    with pytest.raises(ValueError):
        GeneratorSet(("x", "x"))
    with pytest.raises(ValueError):
        GeneratorSet(())
    assert G3.index("z") == 2
    with pytest.raises(KeyError):
        G3.index("w")


def test_monomial_concatenation():
    x, y = gen(G3, QQ, "x"), gen(G3, QQ, "y")
    assert (x * y).terms == {(0, 1): QQ.one}


def test_cancellation_gives_empty_polynomial():
    x, y = gen(G3, QQ, "x"), gen(G3, QQ, "y")
    assert (x * y - x * y).is_zero()
    assert (x * y + (-(x * y))).terms == {}


def test_mul_distributes():
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    assert (x * y + y * x) * z == x * y * z + y * x * z


def test_mismatched_gens_or_fields_rejected():
    x3 = gen(G3, QQ, "x")
    x4 = gen(G4, QQ, "x")
    x2 = gen(G3, GF2, "x")
    with pytest.raises(ValueError):
        x3 + x4
    with pytest.raises(ValueError):
        x3 * x2


def test_reverse_single_word():
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    assert (x * y * z).reverse() == z * y * x


def test_reverse_involution_random():
    rng = random.Random(3)
    for _ in range(50):
        p = rand_poly(rng, G3, QQ)
        assert p.reverse().reverse() == p


def test_reverse_antihomomorphism_random():
    rng = random.Random(4)
    for field in (QQ, GF2):
        for _ in range(50):
            p, q = rand_poly(rng, G3, field), rand_poly(rng, G3, field)
            assert (p * q).reverse() == q.reverse() * p.reverse()


def test_symmetrize_definition():
    x, y, z, t = (gen(G4, QQ, n) for n in "xyzt")
    assert (x * y * z * t).symmetrize() == x * y * z * t + t * z * y * x


def test_symmetrize_xy_equals_circ():
    x, y = gen(G3, QQ, "x"), gen(G3, QQ, "y")
    assert (x * y).symmetrize() == circ(x, y)


def test_symmetrize_palindrome_vanishes_in_char2():
    x, z = gen(G3, GF2, "x"), gen(G3, GF2, "z")
    assert (x * z * x).symmetrize().is_zero()


def test_symmetrize_fixed_by_reverse_random():
    rng = random.Random(5)
    for field in (QQ, GF2):
        for _ in range(50):
            s = rand_poly(rng, G3, field).symmetrize()
            assert s.reverse() == s


def test_component_filters():
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    p = x * y + x * z * y
    assert p.component((1, 1, 0)) == x * y
    assert p.component((5, 0, 0)).is_zero()
    assert FreePoly(G3, QQ).component((1, 1, 0)).is_zero()


def test_symmetrized_product_is_homogeneous_221():
    """Expand {(x o y) z x y}: every word must use x twice, y twice, z once."""
    x, y, z = (gen(G3, QQ, n) for n in "xyz")
    p = (circ(x, y) * z * x * y).symmetrize()
    for w in p.terms:
        counts = Counter(w)
        assert (counts[0], counts[1], counts[2]) == (2, 2, 1)
    assert p.is_homogeneous((2, 2, 1))
    assert not p.is_homogeneous((1, 2, 2))


def test_multidegree_additive_random():
    rng = random.Random(6)
    for _ in range(50):
        w1 = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        p = FreePoly.from_word(G3, QQ, w1)
        q = FreePoly.from_word(G3, QQ, w2)
        dp, dq = p.multidegree(), q.multidegree()
        assert (p * q).multidegree() == tuple(a + b for a, b in zip(dp, dq))


def test_canonical_equality_random():
    rng = random.Random(7)
    for field in (QQ, GF2):
        for _ in range(50):
            p = rand_poly(rng, G4, field)
            assert (p - p).is_zero()
            assert p + FreePoly(G4, field) == p


def test_scale_and_constant():
    x = gen(G3, QQ, "x")
    assert x.scale(QQ.zero).is_zero()
    two = FreePoly.constant(G3, QQ, QQ.from_int(2))
    assert two * x == x.scale(QQ.from_int(2))


def test_sorted_terms_deglex():
    x, y = gen(G3, QQ, "x"), gen(G3, QQ, "y")
    p = y * x + x * y + x
    words = [w for w, _ in p.sorted_terms()]
    assert words == [(0,), (0, 1), (1, 0)]


def test_terms_are_read_only():
    """The canonical store that equality and hashing read cannot be written."""
    x = p = gen(G3, QQ, "x")
    with pytest.raises(TypeError):
        p.terms[(G3.index("y"),)] = 0
    assert p == x and p in {p}
    assert dict(p.terms) == {(0,): QQ.one} and p.terms == {(0,): QQ.one}
    assert hash(p) == hash(x)


def test_float_coefficients_rejected():
    """Only exact scalars enter a polynomial: ints and Fractions over Q, ints over GF(p)."""
    with pytest.raises(FieldError):
        FreePoly(G3, QQ, {(0, 1): 0.5})
    with pytest.raises(FieldError):
        FreePoly(G3, GF2, {(0, 1): Fraction(1, 2)})
    assert FreePoly(G3, QQ, {(0, 1): 2}) == gen(G3, QQ, "x") * gen(G3, QQ, "y").scale(Fraction(2))


@pytest.mark.parametrize("coefficient", [5, -1])
def test_noncanonical_residue_rejected(coefficient):
    """Over GF(5) a coefficient must be a residue in [0, 5): 5 is not a
    nonzero way to write 0, and -1 is not a way to write 4."""
    with pytest.raises(FieldError):
        FreePoly(G3, GF5, {(0,): coefficient})


@pytest.mark.parametrize(
    "field, c",
    [(QQ, 0.5), (QQ, float("nan")), (GF5, Fraction(1, 2)), (GF5, 2.0)],
    ids=["q-float", "q-nan", "gf5-fraction", "gf5-float"],
)
def test_scale_refuses_inexact_or_foreign_scalars(field, c):
    """scale takes the same exact scalars as the constructor, so no float or
    Fraction reaches a GF(p) store, and no float a Q store."""
    x = gen(G3, field, "x")
    with pytest.raises(FieldError):
        x.scale(c)
    assert x.scale(field.from_int(3)).terms == {(0,): field.from_int(3)}


def _schoolbook_product(p, q):
    """p * q as a double loop over Field.add and Field.mul, zero sums dropped at the end."""
    f = p.field
    terms = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            terms[w1 + w2] = f.add(terms.get(w1 + w2, f.zero), f.mul(c1, c2))
    return {w: c for w, c in terms.items() if not f.is_zero(c)}


_LARGE_PRIMES = (10**9 + 7, 10**9 + 9, 998244353, 2**31 - 1, 1000003)
_PRODUCT_CASES = {
    "q-int": (QQ, lambda rng: rng.choice((1, -1, rng.randint(-40, 40)))),
    "q-large-denominators": (QQ, lambda rng: Fraction(rng.randint(-10**6, 10**6), rng.choice(_LARGE_PRIMES))),
    "gf2": (GF2, lambda rng: rng.randrange(2)),
    "gf3": (field_from_name("gf3"), lambda rng: rng.randrange(3)),
    "gf2147483647": (field_from_name("gf2147483647"), lambda rng: rng.randrange(2**31 - 1)),
}


@pytest.mark.parametrize("case", sorted(_PRODUCT_CASES))
def test_product_kernel_matches_schoolbook(case):
    """Seeded products over two generators and short words, where product
    words collide, equal the schoolbook product; so do products built so that
    the word xyx cancels.  The store holds no zero and exact scalars of the
    field only."""
    field, entry = _PRODUCT_CASES[case]
    rng = random.Random(case)
    g2 = GeneratorSet(("x", "y"))
    x, y = gen(g2, field, "x"), gen(g2, field, "y")

    def poly():
        words = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))) for _ in range(rng.randint(0, 6))]
        return FreePoly(g2, field, {w: entry(rng) for w in words})

    def nonzero():
        while field.is_zero(c := entry(rng)):
            pass
        return c

    for _ in range(200):
        a, b, c = nonzero(), nonzero(), nonzero()
        d = field.neg(field.div(field.mul(a, c), b))  # a*c + b*d = 0 on x * yx and xy * x
        cancelling = (x.scale(a) + (x * y).scale(b), (y * x).scale(c) + x.scale(d))
        for p, q in ((poly(), poly()), cancelling):
            product = p * q
            assert product.terms == _schoolbook_product(p, q)
            for coefficient in product.terms.values():
                assert not field.is_zero(coefficient)
                if field == QQ:
                    assert type(coefficient) is Fraction
                else:
                    assert type(coefficient) is int and 0 <= coefficient < field.characteristic
        assert (0, 1, 0) not in product.terms and len(product.terms) == 2
    assert (x * FreePoly(g2, field)).is_zero() and FreePoly.one(g2, field) * x == x


def _assert_canonical_store(p):
    """num / den in lowest terms with no zero numerator; ``terms`` in field scalars."""
    f = p.field
    assert p.den > 0 and all(p.num.values())
    if f == QQ:
        assert gcd(p.den, *p.num.values()) == 1
        assert all(type(c) is Fraction for c in p.terms.values())
    else:
        assert p.den == 1 and all(type(n) is int and 0 < n < f.characteristic for n in p.num.values())


def _schoolbook_sum(p, q, combine):
    f = p.field
    terms = dict(p.terms)
    for w, c in q.terms.items():
        terms[w] = combine(terms.get(w, f.zero), c)
    return {w: c for w, c in terms.items() if not f.is_zero(c)}


def _schoolbook_multidegree(gens, w):
    return tuple(w.count(i) for i in range(len(gens)))


@pytest.mark.parametrize("case", sorted(_PRODUCT_CASES))
def test_store_matches_schoolbook(case):
    """Every operation on the integer store equals a test-local loop over
    Field methods on the terms, and leaves a canonical store: a positive
    denominator, lowest terms, no zero numerator, Fractions over Q and
    residues in [0, p) over den 1 over GF(p)."""
    field, entry = _PRODUCT_CASES[case]
    f = field
    rng = random.Random(f"store-{case}")
    g3 = GeneratorSet(("x", "y", "z"))

    def poly():
        words = [tuple(rng.randrange(3) for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(0, 8))]
        given = {w: entry(rng) for w in words}
        p = FreePoly(g3, field, given)
        assert dict(p.terms) == {w: c for w, c in given.items() if not f.is_zero(c)}
        return p

    for _ in range(150):
        p, q = poly(), poly()
        c = entry(rng)
        d = _schoolbook_multidegree(g3, next(iter(p.terms), ()))
        expected = [
            (p + q, _schoolbook_sum(p, q, f.add)),
            (p - q, _schoolbook_sum(p, q, f.sub)),
            (p + (-p), {}),
            (-p, {w: f.neg(v) for w, v in p.terms.items()}),
            (p * q, _schoolbook_product(p, q)),
            (p.scale(c), {} if f.is_zero(c) else {w: f.mul(c, v) for w, v in p.terms.items()}),
            (p.reverse(), {w[::-1]: v for w, v in p.terms.items()}),
            (p.symmetrize(), _schoolbook_sum(p, FreePoly(g3, field, {w[::-1]: v for w, v in p.terms.items()}), f.add)),
            (p.component(d), {w: v for w, v in p.terms.items() if _schoolbook_multidegree(g3, w) == d}),
        ]
        for result, reference in expected:
            assert dict(result.terms) == reference
            _assert_canonical_store(result)
            assert result == FreePoly(g3, field, reference) and hash(result) == hash(FreePoly(g3, field, reference))
        _assert_canonical_store(p)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["q", "gf5"])
def test_ring_operations_call_no_field_method(field, monkeypatch):
    """+, *, unary minus and scale on 50-term polynomials read the integer
    store only: no Field.add, sub, mul, neg or is_zero call per term."""
    rng = random.Random(50)
    g3 = GeneratorSet(("x", "y", "z"))

    def poly():
        terms = {}
        while len(terms) < 50:
            terms[tuple(rng.randrange(3) for _ in range(4))] = field.from_rational(rng.randint(1, 4), rng.randint(1, 4))
        return FreePoly(g3, field, terms)

    p, q = poly(), poly()
    c = field.from_rational(3, 7)
    calls = Counter()
    for name in ("add", "sub", "mul", "neg", "is_zero"):
        method = getattr(type(field), name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(type(field), name, counted)
    results = [p + q, p * q, -p, p.scale(c), p - q]
    assert not calls
    monkeypatch.undo()
    assert all(len(r.num) for r in results) and len(p.num) == 50
