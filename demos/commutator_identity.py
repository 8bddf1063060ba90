"""The U-operator commutator as a symmetrized word minus a U-image.

Inside the free associative algebra, with a U_b = bab acting on the right,
the image of z under [U_x, U_y] collapses to two words:

    z U_x U_y - z U_y U_x = yxzxy - xyzyx.

The same element can be rewritten as {(x o y) z x y} - z U_{x o y}, which is
exactly what places it in the associative ideal generated by x o y.  This
script parses the three terms from their library texts, expands them over
several fields and confirms the residual is the zero polynomial each time.
"""

from jvu.expr import format_poly, parse_expr
from jvu.fields import field_from_name
from jvu.freealg import GeneratorSet
from jvu.jordan import COMMUTATOR_WITNESS, SYMMETRIZED_PRODUCT, U_IMAGE, commutator_identity_residual

for name, field in (
    ("rationals", field_from_name("q")),
    ("GF(2)", field_from_name("gf2")),
    ("GF(5)", field_from_name("gf5")),
):
    gens = GeneratorSet(("x", "y", "z"))
    lhs, sym_part, u_part = (parse_expr(text, gens, field) for text in (COMMUTATOR_WITNESS, SYMMETRIZED_PRODUCT, U_IMAGE))
    residual = commutator_identity_residual(field)

    print(f"over {name}:")
    print("  z[U_x, U_y]        =", format_poly(lhs))
    print("  {(x o y) z x y}    =", format_poly(sym_part))
    print("  z U_(x o y)        =", format_poly(u_part))
    print("  difference residual:", format_poly(residual))
    assert residual.is_zero()
    print()

print("The identity holds identically over every coefficient field.")
