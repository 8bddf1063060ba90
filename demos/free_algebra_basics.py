"""Tour of the exact free-algebra layer.

Noncommutative polynomials live over an exact field (the rationals or a
prime field), words are plain generator sequences, and the reversal
involution * fixes the generators.  Symmetric elements {u} = u + u* are the
raw material of the special Jordan algebra.
"""

from jvu.expr import format_poly, parse_expr
from jvu.fields import field_from_name
from jvu.freealg import FreePoly, GeneratorSet

field = field_from_name("q")
gens = GeneratorSet(("x", "y", "z"))

x = FreePoly.generator(gens, field, "x")
y = FreePoly.generator(gens, field, "y")
z = FreePoly.generator(gens, field, "z")

print("Generators:", gens.names)
print()

p = x * y - y * x
print("A commutator in the free algebra:   x*y - y*x  =", format_poly(p))
print("Its reversal (words reversed):      ", format_poly(p.reverse()))
print("Symmetrizing kills it:              ", format_poly(p.symmetrize()))
print()

q = (x * y + y * x) * z
print("A product:        (x*y + y*x)*z =", format_poly(q))
print("Its symmetrizer:  ", format_poly(q.symmetrize()))
print("Multidegree of every term:", q.multidegree(), "(x-count, y-count, z-count)")
print()

print("Components pick out one multidegree exactly:")
mixed = x * y + x * z * y + z
print("  p =", format_poly(mixed))
print("  component (1,1,0):", format_poly(mixed.component((1, 1, 0))))
print("  component (1,1,1):", format_poly(mixed.component((1, 1, 1))))
print()

print("The same texts parse back through the expression grammar:")
for text in ("x*y + y*x", "sym(x*y*z)", "U(x; z)", "Ulin(x, y; z)", "1/2*circ(x, y)"):
    value = parse_expr(text, gens, field)
    print(f"  {text:22s} -> {format_poly(value)}")
print()

gf2 = field_from_name("gf2")
x2 = FreePoly.generator(gens, gf2, "x")
z2 = FreePoly.generator(gens, gf2, "z")
print("Characteristic 2 degenerations are handled by the same generic code:")
print("  over GF(2), sym(x*z*x) =", format_poly((x2 * z2 * x2).symmetrize()), "(palindrome doubles to zero)")
