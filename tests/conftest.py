"""Shared helpers: seeded random scalars and sparse polynomials, and the
two-way conversion between lists of field scalars and ``Coordinates``."""

import random
from fractions import Fraction
from math import lcm

from jvu.fields import Field
from jvu.freealg import FreePoly, GeneratorSet
from jvu.linalg import Coordinates


def rand_scalar(rng: random.Random, field: Field):
    if field.characteristic == 0:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(field.characteristic)


def rand_nonzero_scalar(rng: random.Random, field: Field):
    while True:
        c = rand_scalar(rng, field)
        if not field.is_zero(c):
            return c


def rand_word(rng: random.Random, gens: GeneratorSet, max_len: int = 4):
    return tuple(rng.randrange(len(gens)) for _ in range(rng.randint(0, max_len)))


def rand_poly(
    rng: random.Random,
    gens: GeneratorSet,
    field: Field,
    max_terms: int = 4,
    max_len: int = 4,
) -> FreePoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rand_word(rng, gens, max_len)] = rand_scalar(rng, field)
    return FreePoly(gens, field, terms)


def vec(field: Field, values) -> Coordinates:
    """A list of exact field scalars as ``Coordinates``: its nonzero entries
    as ints over the lcm of their denominators."""
    cols = tuple(j for j, c in enumerate(values) if c)
    den = lcm(*(Fraction(values[j]).denominator for j in cols))
    return Coordinates(cols, tuple(int(values[j] * den) for j in cols), den, len(values), field)


def dense(v: Coordinates) -> list:
    """The field scalars of v as a list of v.dim entries, ints when den is 1."""
    out = [v.field.zero] * v.dim
    for j, c in zip(v.cols, v.vals):
        out[j] = c if v.den == 1 else Fraction(c, v.den)
    return out
