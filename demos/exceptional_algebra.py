"""Zero products force commuting U-operators in the exceptional algebra.

In a nondegenerate Jordan algebra the relation a.b = 0 implies
[U_a, U_b] = 0, and the crux case is the 27-dimensional exceptional algebra
of Hermitian 3x3 matrices over split octonions.  Everything here is exact
rational arithmetic: the cubic characteristic identity pins the trace,
quadratic and cubic forms, an operator identity reduces [U_a, U_b] to
[R_{a^2}, R_{b^2}], and Peirce-decomposition sampling produces genuinely
random zero-product pairs to feed the commutation check.
"""

import random

from jvu.albert import (
    AlbertElement,
    check_cubic,
    check_zero_pair,
    find_noncommuting_pair,
    jordan_mul,
    norm_form,
    random_element,
    s_bilinear,
    s_form,
    sample_zero_pair,
    trace_form,
    u_op,
    zorn_mul,
    zorn_norm,
)

rng = random.Random(42)

print("Split octonions: the norm is multiplicative yet isotropic.")
# an octonion is an 8-tuple (alpha, beta, a1, a2, a3, b1, b2, b3) of Zorn coordinates
print("  n(E1) =", zorn_norm((1, 0, 0, 0, 0, 0, 0, 0)), " (a nonzero basis vector of norm 0)")
u = tuple(rng.randint(-9, 9) for _ in range(8))
v = tuple(rng.randint(-9, 9) for _ in range(8))
print("  n(u v) == n(u) n(v):", zorn_norm(zorn_mul(u, v)) == zorn_norm(u) * zorn_norm(v))
print()

print("The cubic identity a^3 = t(a) a^2 - s(a) a + n(a) 1 holds exactly:")
a = random_element(rng)
t, s, n = trace_form(a), s_form(a), norm_form(a)
print("  a has integer coordinates in [-9, 9];  t(a), s(a), n(a) =", (t, s, n))
print("  residual of the identity:", "0" if check_cubic(a).is_zero() else "NONZERO")
unit = AlbertElement.unit()
print("  unit element forms:", (trace_form(unit), s_form(unit), norm_form(unit)))
print()

print("Zero-product pairs via the Peirce decomposition of a random idempotent:")
for i in range(3):
    a, b = sample_zero_pair(rng)
    checks = check_zero_pair(a, b)
    print(f"  pair {i}: a.b = 0 exactly;"
          f" [R_a2,R_b]=0: {checks.r_a2_b_commute},"
          f" [U_a,U_b]=[R_a2,R_b2]: {checks.commutators_match},"
          f" [U_a,U_b]=0: {checks.u_commutator_zero}")
    branch = "s(a,b)=0" if checks.s_ab_zero else "a^2 b = 0"
    print(f"          dichotomy branch: {branch};  s(a,b) = {s_bilinear(a, b)}")
print()

print("The hypothesis matters: a random pair with a.b != 0 has noncommuting U-operators.")
a, b = find_noncommuting_pair(random.Random(1))
print("  jordan_mul(a, b) is zero:", jordan_mul(a, b).is_zero())
print("  [U_a, U_b] is zero:      ", u_op(a) @ u_op(b) == u_op(b) @ u_op(a))
print()

e11 = AlbertElement.basis(0)
e22 = AlbertElement.basis(1)
print("Peirce spaces of an idempotent e are U-images: J_0(e) = U_{1-e}(J), J_1(e) = U_e(J).")
print("They multiply to zero, which is where the sampler draws from.")
print("  U_{1-e11}(e22) = e22:", u_op(unit - e11).apply(e22) == e22)
print("  e11 . e22 = 0:      ", jordan_mul(e11, e22).is_zero())
