"""Acceptance suite: every headline claim at its stated exactness and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  All arithmetic is exact; every tolerance is exact equality.
"""

import random
import time

from jvu.albert import (
    check_cubic,
    check_eq1,
    check_operator_identity,
    check_zero_pair,
    find_noncommuting_pair,
    jordan_mul,
    random_element,
    sample_zero_pair,
    u_op,
)
from jvu.cli import EXIT_CONFIRMED, run_command
from jvu.expr import parse_expr
from jvu.fields import field_from_name
from jvu.freealg import FreePoly, GeneratorSet
from jvu.ideals import outer_ideal_component, outer_ideal_is_closed
from jvu.jordan import jordan_closure_table, recipe_str
from jvu.linalg import Subspace, coordinates

from conftest import dense, rand_poly, rand_scalar, vec

QQ = field_from_name("q")
GF2 = field_from_name("gf2")

G3 = GeneratorSet(("x", "y", "z"))
G4 = GeneratorSet(("x", "y", "z", "t"))


def _report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} [{name}]: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


def test_criterion_1_lemma1_all_fields():
    ok = True
    detail = []
    for field in ("q", "gf2", "gf5"):
        t0 = time.perf_counter()
        code, report = run_command(["lemma1", "--field", field])
        elapsed = time.perf_counter() - t0
        ok = ok and code == EXIT_CONFIRMED and report["data"]["residual"] == "0"
        ok = ok and elapsed < 1.0
        detail.append(f"{field}: {elapsed:.3f}s")
    _report(1, "lemma1 residual zero over q, gf2, gf5", ok, ", ".join(detail))


def test_criterion_2_dimension_claim():
    t0 = time.perf_counter()
    code, report = run_command(["dims", "--field", "gf2"])
    elapsed = time.perf_counter() - t0
    data = report["data"]
    ok = (
        code == EXIT_CONFIRMED
        and data["symmetric_dim"] == 12
        and data["jordan_dim"] == 11
        and elapsed < 10.0
    )
    # the rational values are computed and recorded as well
    code_q, report_q = run_command(["dims", "--field", "q"])
    ok = ok and code_q == EXIT_CONFIRMED
    ok = ok and "symmetric_dim" in report_q["data"] and "jordan_dim" in report_q["data"]
    detail = (
        f"gf2: sym=12, jordan=11 in {elapsed:.2f}s; "
        f"q: sym={report_q['data']['symmetric_dim']}, jordan={report_q['data']['jordan_dim']}"
    )
    _report(2, "symmetric 12 vs Jordan 11 multilinear dims", ok, detail)


def test_criterion_3_tetrad_outside_jordan_span():
    t0 = time.perf_counter()
    d = (1, 1, 1, 1)
    table = jordan_closure_table(G4, d, "quadratic", False, GF2)
    tetrad = FreePoly.from_word(
        G4, GF2, (G4.index("t"), G4.index("z"), G4.index("x"), G4.index("y"))
    ).symmetrize()
    verdict, residual = table.subspace(d).membership(coordinates(tetrad, table.component_basis(d)))
    elapsed = time.perf_counter() - t0
    ok = verdict == "outside" and any(residual) and elapsed < 10.0
    _report(3, "tetrad sym(t*z*x*y) outside the Jordan span over gf2", ok, f"{elapsed:.2f}s")


def test_criterion_4_counterexample_both_fields():
    ok = True
    details = []
    for field, mode in (("gf2", "quadratic"), ("q", "linear")):
        t0 = time.perf_counter()
        code, report = run_command(["counterexample", "--field", field, "--mode", mode])
        elapsed = time.perf_counter() - t0
        data = report["data"]
        ok = (
            ok
            and code == EXIT_CONFIRMED
            and data["witness_in_assoc"] is True
            and data["witness_in_outer"] is False
            and data["symmetrized_product_in_outer"] is False
            and data["u_image_in_outer"] is True
            and data["gap"] is True
            and elapsed < 60.0
        )
        details.append(f"{field}/{mode}: {elapsed:.2f}s")
    _report(4, "Cohn gap at multidegree (2,2,1)", ok, ", ".join(details))


def test_criterion_5_coefficient_family():
    t0 = time.perf_counter()
    code, report = run_command(["coefficients", "--field", "q"])
    elapsed = time.perf_counter() - t0
    fam = report["data"]["family"]
    ok = (
        code == EXIT_CONFIRMED
        and report["data"]["matches_reference"] is True
        and fam["alpha1"] == "0"
        and fam["alpha2"] == "0"
        and fam["alpha3"] == "1 + L"
        and fam["alpha4"] == "L"
        and fam["alpha5"] == "0"
        and fam["alpha6"] == "0"
        and fam["alpha7"] == "-2*L"
        and elapsed < 5.0
    )
    _report(5, "seven-term ansatz family", ok, f"{elapsed:.2f}s")


def test_criterion_6_albert_identities():
    t0 = time.perf_counter()
    rng = random.Random(42)
    cubic = all(check_cubic(random_element(rng)).is_zero() for _ in range(100))
    eq1 = all(
        check_eq1(random_element(rng), random_element(rng)).is_zero() for _ in range(100)
    )
    op_id = all(
        check_operator_identity(random_element(rng), random_element(rng))
        for _ in range(100)
    )
    elapsed = time.perf_counter() - t0
    ok = cubic and eq1 and op_id and elapsed < 30.0
    _report(6, "cubic identity, its linearization, operator identity x100", ok, f"{elapsed:.2f}s")


def test_criterion_7_zero_pairs_seed_42():
    t0 = time.perf_counter()
    rng = random.Random(42)
    n = 100
    s_ab_zero = a2b_zero = 0
    ok = True
    for _ in range(n):
        a, b = sample_zero_pair(rng)
        checks = check_zero_pair(a, b)
        ok = ok and checks.r_a2_b_commute and checks.r_a_b2_commute
        ok = ok and checks.commutators_match and checks.u_commutator_zero
        ok = ok and checks.operator_collapse
        ok = ok and (checks.s_ab_zero or checks.a2b_zero)
        s_ab_zero += checks.s_ab_zero
        a2b_zero += checks.a2b_zero
    a, b = find_noncommuting_pair(random.Random(42))
    nonvacuous = not jordan_mul(a, b).is_zero() and u_op(a) @ u_op(b) != u_op(b) @ u_op(a)
    elapsed = time.perf_counter() - t0
    ok = ok and nonvacuous and elapsed < 60.0
    detail = f"dichotomy: s(a,b)=0 in {s_ab_zero}/{n}, a^2b=0 in {a2b_zero}/{n}; {elapsed:.1f}s"
    _report(7, "zero-product pairs: commuting U-operators x100", ok, detail)


def test_criterion_8_property_suites():
    rng = random.Random(42)
    # involution anti-automorphism, 50 random pairs over both fields
    anti = True
    for field in (QQ, GF2):
        for _ in range(50):
            p, q = rand_poly(rng, G3, field), rand_poly(rng, G3, field)
            anti = anti and (p * q).reverse() == q.reverse() * p.reverse()

    # Jordan-span symmetry: every closure representative is reverse-fixed
    sym_count = 0
    sym_ok = True
    for gens, d, mode, field in (
        (G4, (1, 1, 1, 1), "quadratic", GF2),
        (G3, (2, 2, 1), "quadratic", GF2),
        (G3, (2, 2, 1), "linear", QQ),
    ):
        table = jordan_closure_table(gens, d, mode, False, field)
        for elem in table.all_reps():
            sym_ok = sym_ok and elem.value.reverse() == elem.value
            sym_count += 1
    sym_ok = sym_ok and sym_count >= 50

    # echelon determinism under insertion-order permutation, 50 batches
    det = True
    for i in range(50):
        field = (QQ, GF2)[i % 2]
        vecs = [[rand_scalar(rng, field) for _ in range(6)] for _ in range(5)]
        baseline = None
        for _ in range(3):
            order = list(range(len(vecs)))
            rng.shuffle(order)
            s = Subspace(field, 6)
            for k in order:
                s.insert(vec(field, vecs[k]))
            if baseline is None:
                baseline = (s.rows, s.pivots)
            det = det and (s.rows, s.pivots) == baseline

    # outer-ideal fixed-point re-verification and certificate replay
    from jvu.jordan import JordanElement, je_circ

    closure_ok = True
    replay_count = 0
    replay_ok = True
    for field, mode in ((GF2, "quadratic"), (QQ, "linear")):
        f = je_circ(
            JordanElement.generator(G3, field, "x"), JordanElement.generator(G3, field, "y")
        )
        comp = outer_ideal_component(f, (2, 2, 1), mode, field)
        closure_ok = closure_ok and outer_ideal_is_closed(comp)
        for d in comp.table.multidegrees():
            cb = comp.table.component_basis(d)
            span = comp.table.subspace(d)
            vecs = [dense(coordinates(e.value, cb)) for e in comp.table.inserted(d)]
            for e in comp.table.inserted(d):
                replay_ok = replay_ok and parse_expr(recipe_str(e.recipe), G3, field) == e.value
                replay_count += 1
            for row in span.rows:
                rep = span.membership(vec(field, row))[1]
                combo = [field.zero] * len(cb)
                for idx, c in rep.items():
                    combo = [field.add(t, field.mul(c, v)) for t, v in zip(combo, vecs[idx])]
                replay_ok = replay_ok and combo == row
    replay_ok = replay_ok and replay_count >= 50

    ok = anti and sym_ok and det and closure_ok and replay_ok
    detail = f"symmetry batch {sym_count}, replay batch {replay_count}"
    _report(8, "randomized property suites, all exact", ok, detail)
