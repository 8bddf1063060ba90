"""A quotient of the free special Jordan algebra where x o y = 0 does not
force the U-operators of x and y to commute.

Work at multidegree (2,2,1) in x, y, z.  Let I be the Jordan ideal generated
by f = x o y (the outer hull of F f + U_f applied to the unital hull, in the
quadratic setting) and let I-hat be the associative ideal generated by f.
The element

    k = z[U_x, U_y] = yxzxy - xyzyx

lies in I-hat but not in I.  By the Cohn criterion, the quotient SJ/I is
therefore not special, and in it the images of x and y circle to zero while
their U-operators fail to commute.  The script runs the whole computation
over GF(2) (quadratic mode, the delicate case) and over the rationals
(linear mode), prints membership certificates, and solves the 7-term
coefficient system behind the multilinear part of the argument.
"""

from jvu.cli import run_command
from jvu.expr import format_poly, parse_expr
from jvu.fields import field_from_name
from jvu.freealg import GeneratorSet
from jvu.ideals import cohn_gap_witness
from jvu.jordan import COMMUTATOR_WITNESS, SYMMETRIZED_PRODUCT, U_IMAGE, JordanElement, je_circ

D = (2, 2, 1)

for name, field, mode in (
    ("GF(2)", field_from_name("gf2"), "quadratic"),
    ("rationals", field_from_name("q"), "linear"),
):
    gens = GeneratorSet(("x", "y", "z"))
    f = je_circ(JordanElement.generator(gens, field, "x"), JordanElement.generator(gens, field, "y"))
    k, w, s = (parse_expr(text, gens, field) for text in (COMMUTATOR_WITNESS, SYMMETRIZED_PRODUCT, U_IMAGE))

    report = cohn_gap_witness(f, k, D, mode, field)
    print(f"over {name} ({mode} mode):")
    print("  witness k = z[U_x,U_y] =", format_poly(k))
    print(f"  k in associative ideal: {report.g_in_assoc}")
    print(f"  k in Jordan ideal:      {report.g_in_outer}")
    print(f"  gap established:        {report.gap}")

    outer = report.outer
    wv, _ = outer.membership(w)
    sv, s_cert = outer.membership(s)
    print(f"  {{(x o y) z x y}} in Jordan ideal: {wv}")
    print(f"  z U_(x o y) in Jordan ideal:    {sv}, e.g. via:")
    print(f"      {outer.certificate_expr(s_cert)}")
    print(f"  Jordan component dim {outer.dim}, associative dim {report.assoc.dim},"
          f" closure rounds {outer.rounds_to_fixpoint}")
    print()

print("The multilinear obstruction: writing {(x o y) z x y} as f(x,y,z, x o y)")
print("for a 7-term ansatz forces the one-parameter family below (over Q):")
for label, desc in run_command(["coefficients"])[1]["data"]["family"].items():
    print(f"  {label} = {desc}")
print("so alpha3 - alpha4 = 1 always: the single tetrad term never cancels away.")
