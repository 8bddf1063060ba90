"""Symmetric multilinear elements vs Jordan elements in four generators.

The 24 multilinear words in x, y, z, t pair up under reversal into 12
symmetrized classes, so the symmetric multilinear space has dimension 12
over any field.  Closing the generators under the quadratic Jordan
operations (squares, circle, U, linearized U) only ever reaches an
11-dimensional subspace: single tetrads like {t z x y} stay out.  That gap
is what makes the characteristic-2 ideal argument work, where Grassmann
tricks are unavailable.
"""

from jvu.expr import format_poly
from jvu.fields import field_from_name
from jvu.freealg import FreePoly, GeneratorSet
from jvu.jordan import jordan_closure_table, recipe_str, symmetric_component_dim
from jvu.linalg import coordinates

gens = GeneratorSet(("x", "y", "z", "t"))
d = (1, 1, 1, 1)

tables = {}
for name, field in (("GF(2)", field_from_name("gf2")), ("rationals", field_from_name("q"))):
    sym_dim = symmetric_component_dim(gens, d, field)
    table = tables[name] = jordan_closure_table(gens, d, "quadratic", False, field)

    print(f"over {name}:")
    print(f"  symmetric multilinear dimension: {sym_dim}")
    print(f"  Jordan multilinear dimension:    {table.dim(d)}")

    tetrad = FreePoly.from_word(gens, field, (3, 2, 0, 1)).symmetrize()
    verdict, _ = table.subspace(d).membership(coordinates(tetrad, table.component_basis(d)))
    print(f"  tetrad {format_poly(tetrad)}: {verdict} the Jordan span")
    print()

print("A few of the Jordan spanning elements and the recipes that build them:")
for elem in tables["GF(2)"].reps(d)[:4]:
    print(f"  {recipe_str(elem.recipe):24s} = {format_poly(elem.value)}")
