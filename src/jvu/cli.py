"""Command-line front end: one verb per verified claim, JSON reports.

Verbs: ``lemma1`` (the commutator bracketing identity), ``dims`` (symmetric
vs Jordan multilinear dimensions and the tetrad), ``counterexample`` (the
two-sided ideal gap at multidegree (2,2,1)), ``coefficients`` (the 7-term
multilinear ansatz family), ``albert`` (cubic-form and commuting-U checks in
the 27-dimensional exceptional algebra), ``parse`` (expression utility).

Exit codes: 0 when the claim under test is confirmed (or for pure
computations), 2 when it is refuted, 1 on usage or internal errors and
when ``--out`` cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import re
import sys
import time

from . import __version__
from . import albert
from .expr import KEYWORDS, ParseError, format_poly, format_scalar, parse_expr
from .fields import Field, FieldError, field_from_name
from .freealg import FreePoly, GeneratorSet
from .ideals import cohn_gap_witness
from .jordan import (
    COMMUTATOR_WITNESS,
    LINEAR,
    MAX_DEGREE_BOUND,
    QUADRATIC,
    SYMMETRIZED_PRODUCT,
    U_IMAGE,
    JordanElement,
    je_circ,
    jordan_closure_table,
    recipe_str,
    symmetric_component_dim,
    commutator_identity_residual,
)
from .linalg import ComponentBasis, affine_solve, coordinates

SCHEMA_VERSION = 1
#: Default of ``--degree-bound``, a guard of the command line only: the
#: library refuses a total degree above ``MAX_DEGREE_BOUND`` itself.
DEFAULT_DEGREE_BOUND = 8

#: the seven ansatz expressions; t stands for the substituted generator
ANSATZ_EXPRS = (
    "sym(x*z*y*t)",
    "sym(x*z*t*y)",
    "sym(t*z*x*y)",
    "sym(t*z*y*x)",
    "sym(y*z*t*x)",
    "sym(y*z*x*t)",
    "U(t; z)",
)
#: the tetrad {t z x y}; with t := x o y it is the symmetrized product of Lemma 1
GOAL_EXPR = "sym(t*z*x*y)"
#: x o y, the value substituted for t in the ansatz and the goal
CIRC_XY = "circ(x, y)"

EXIT_CONFIRMED = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        d = getattr(ns, "multidegree", None)
        if d is None:
            return ns
        if hasattr(ns, "vars") and len(d) != len(ns.vars):
            self.error("multidegree length must match the number of generators")
        if sum(d) > ns.degree_bound:
            self.error(f"--degree-bound {ns.degree_bound} is below the total degree {sum(d)}")
        return ns


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _degree_bound(text: str) -> int:
    n = int(text)
    if n > MAX_DEGREE_BOUND:
        raise argparse.ArgumentTypeError(f"--degree-bound is at most {MAX_DEGREE_BOUND}, got {text!r}")
    return n


def _multidegree(text: str) -> tuple[int, ...]:
    try:
        d = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if any(c < 0 for c in d):
        raise argparse.ArgumentTypeError(f"multidegree entries must be nonnegative, got {text!r}")
    return d


def _generator_names(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    if not all(n.isidentifier() for n in names):
        raise argparse.ArgumentTypeError(f"generator names must be identifiers, got {text!r}")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"generator names must be distinct, got {text!r}")
    reserved = [n for n in names if n in KEYWORDS]
    if reserved:
        raise argparse.ArgumentTypeError(f"generator names collide with keywords: {reserved}")
    return names


def _field(args) -> Field:
    try:
        return field_from_name(args.field)
    except FieldError as e:
        raise UsageError(str(e)) from None


def _mode(args, field: Field) -> str:
    if getattr(args, "mode", None):
        if args.mode == LINEAR and field.characteristic == 2:
            raise UsageError("--mode linear needs 1/2 in the field; use quadratic over gf2")
        return args.mode
    return QUADRATIC if field.characteristic == 2 else LINEAR


# ---------------------------------------------------------------------------
# Verbs


def _run_lemma1(args):
    field = _field(args)
    residual = commutator_identity_residual(field)
    verdict = "confirmed" if residual.is_zero() else "refuted"
    inputs = {"field": args.field}
    data = {"residual": format_poly(residual)}
    return verdict, inputs, data, {}


def _run_dims(args):
    field = _field(args)
    mode = _mode(args, field)
    names = args.vars
    gens = GeneratorSet(names)
    d = args.multidegree
    sym_dim = symmetric_component_dim(gens, d, field)
    table = jordan_closure_table(gens, d, mode, unital=False, field=field)
    jordan_dim = table.dim(d)
    inputs = {
        "vars": list(names),
        "multidegree": list(d),
        "field": args.field,
        "mode": mode,
        "degree_bound": args.degree_bound,
    }
    data = {"symmetric_dim": sym_dim, "jordan_dim": jordan_dim}
    canonical = names == ("x", "y", "z", "t") and d == (1, 1, 1, 1)
    if canonical:
        tetrad = parse_expr(GOAL_EXPR, gens, field)
        inside = table.subspace(d).contains(coordinates(tetrad, table.component_basis(d)))
        data["tetrad"] = {"expr": GOAL_EXPR, "in_jordan_span": inside}
    if canonical and field.characteristic == 2:
        ok = sym_dim == 12 and jordan_dim == 11 and not data["tetrad"]["in_jordan_span"]
        verdict = "confirmed" if ok else "refuted"
    else:
        verdict = "computed"
    return verdict, inputs, data, {}


def _run_counterexample(args):
    field = _field(args)
    mode = _mode(args, field)
    gens = GeneratorSet(("x", "y", "z"))
    d = args.multidegree
    witness_expr = COMMUTATOR_WITNESS if args.witness is None else args.witness
    try:
        g = parse_expr(witness_expr, gens, field)
    except ParseError as e:
        raise UsageError(f"bad witness: {e}") from None
    if g.is_zero() or not g.is_homogeneous(d):
        raise UsageError(f"witness must be nonzero homogeneous of multidegree {d}")
    if g.reverse() != g:
        raise UsageError("witness must be symmetric under reversal")
    f = je_circ(JordanElement.generator(gens, field, "x"), JordanElement.generator(gens, field, "y"))
    report = cohn_gap_witness(f, g, d, mode, field)
    outer, assoc = report.outer, report.assoc

    w = parse_expr(SYMMETRIZED_PRODUCT, gens, field)
    s = parse_expr(U_IMAGE, gens, field)
    w_verdict, w_data = outer.membership(w)
    s_verdict, s_data = outer.membership(s)

    def replay(comp, cert, target, what):
        text = comp.certificate_expr(cert)
        if parse_expr(text, gens, field) != target:
            raise RuntimeError(f"{what} certificate failed to replay")
        return text

    certificates = {}
    if report.g_in_assoc:
        certificates["witness_in_assoc"] = replay(assoc, report.assoc_certificate, g, "associative")
    else:
        certificates["witness_assoc_residual"] = format_poly(report.assoc_residual)
    if report.g_in_outer:
        certificates["witness_in_outer"] = replay(outer, report.outer_certificate, g, "outer")
    else:
        certificates["witness_outer_residual"] = format_poly(report.outer_residual)
    if s_verdict == "inside":
        certificates["u_image_in_outer"] = replay(outer, s_data, s, "seed")
    if w_verdict == "outside":
        certificates["symmetrized_product_outer_residual"] = format_poly(w_data)

    inputs = {
        "field": args.field,
        "mode": mode,
        "multidegree": list(d),
        "generator": recipe_str(f.recipe),
        "witness": witness_expr,
        "degree_bound": args.degree_bound,
    }
    data = {
        "witness_in_assoc": report.g_in_assoc,
        "witness_in_outer": report.g_in_outer,
        "gap": report.gap,
        "symmetrized_product_in_outer": w_verdict == "inside",
        "u_image_in_outer": s_verdict == "inside",
        "outer_dim": outer.dim,
        "assoc_dim": assoc.dim,
        "rounds_to_fixpoint": outer.rounds_to_fixpoint,
    }
    if args.witness is None:
        ok = (
            report.gap
            and not data["symmetrized_product_in_outer"]
            and data["u_image_in_outer"]
        )
    else:
        ok = report.gap
    return ("confirmed" if ok else "refuted"), inputs, data, certificates


def coefficient_targets(field: Field):
    """The seven ansatz elements with t := x o y substituted, plus the goal."""
    gens = GeneratorSet(("x", "y", "z"))
    *targets, rhs = (parse_expr(re.sub(r"\bt\b", CIRC_XY, e), gens, field) for e in (*ANSATZ_EXPRS, GOAL_EXPR))
    return gens, targets, rhs


def reference_family(field: Field):
    """The expected normalized family: particular with the 4th slot zero and
    the one homogeneous direction scaled to 1 there."""
    particular = [field.zero] * 7
    particular[2] = field.one
    h = [field.zero] * 7
    h[2] = field.one
    h[3] = field.one
    h[6] = field.sub(field.zero, field.from_int(2))
    return particular, [h]


def _run_coefficients(args):
    field = _field(args)
    gens, targets, rhs = coefficient_targets(field)
    cb = ComponentBasis(gens, (2, 2, 1))
    sol = affine_solve([coordinates(t, cb) for t in targets], coordinates(rhs, cb))
    inputs = {"field": args.field, "ansatz": list(ANSATZ_EXPRS), "goal": f"{GOAL_EXPR} with t = {CIRC_XY}"}
    if not sol.feasible:
        return "refuted", inputs, {"feasible": False}, {}
    particular, homogeneous = sol.particular, sol.homogeneous
    normalized = False
    if len(homogeneous) == 1 and not field.is_zero(homogeneous[0][3]):
        h = homogeneous[0]
        inv = field.inv(h[3])
        h = [field.mul(inv, c) for c in h]
        p4 = particular[3]
        particular = [field.sub(p, field.mul(p4, c)) for p, c in zip(particular, h)]
        homogeneous = [h]
        normalized = True
    ref_p, ref_h = reference_family(field)
    matches = normalized and particular == ref_p and homogeneous == ref_h
    param = GeneratorSet(("L",))  # alpha_i = p_i + h_i*L, a polynomial in the parameter L
    h = homogeneous[0] if homogeneous else [field.zero] * 7
    family = {f"alpha{i+1}": format_poly(FreePoly(param, field, {(): particular[i], (0,): h[i]})) for i in range(7)}
    data = {
        "feasible": True,
        "homogeneous_dim": len(sol.homogeneous),
        "particular": [format_scalar(c, field) for c in particular],
        "homogeneous_basis": [[format_scalar(c, field) for c in h] for h in homogeneous],
        "family": family,
        "matches_reference": matches,
    }
    return ("confirmed" if matches else "refuted"), inputs, data, {}


def _run_albert(args):
    if _field(args).characteristic != 0:
        raise UsageError("the 27-dimensional checks run over the rationals only")
    rng = random.Random(args.seed)
    n = args.samples
    cubic_pass = sum(1 for _ in range(n) if albert.check_cubic(albert.random_element(rng)).is_zero())
    eq1_pass = sum(
        1
        for _ in range(n)
        if albert.check_eq1(albert.random_element(rng), albert.random_element(rng)).is_zero()
    )
    op_pass = sum(
        1
        for _ in range(n)
        if albert.check_operator_identity(albert.random_element(rng), albert.random_element(rng))
    )
    pair_rng = random.Random(args.seed)
    stats = {"count": n}
    stats.update((f"{k}_pass", 0) for k in albert.OPERATOR_CHECKS)
    stats.update(dichotomy_pass=0, s_ab_zero_count=0, a2b_zero_count=0)
    for _ in range(n):
        a, b = albert.sample_zero_pair(pair_rng)
        checks = albert.check_zero_pair(a, b)
        for k in albert.OPERATOR_CHECKS:
            stats[f"{k}_pass"] += getattr(checks, k)
        stats["dichotomy_pass"] += checks.s_ab_zero or checks.a2b_zero
        stats["s_ab_zero_count"] += checks.s_ab_zero
        stats["a2b_zero_count"] += checks.a2b_zero
    try:
        albert.find_noncommuting_pair(random.Random(args.seed))
        nonvacuous = True
    except RuntimeError:
        nonvacuous = False
    inputs = {"samples": n, "seed": args.seed}
    data = {
        "cubic_pass": cubic_pass,
        "eq1_pass": eq1_pass,
        "operator_identity_pass": op_pass,
        "zero_pair": stats,
        "nonvacuous_found": nonvacuous,
    }
    ok = (
        cubic_pass == n
        and eq1_pass == n
        and op_pass == n
        and all(stats[f"{k}_pass"] == n for k in (*albert.OPERATOR_CHECKS, "dichotomy"))
        and nonvacuous
    )
    return ("confirmed" if ok else "refuted"), inputs, data, {}


def _run_parse(args):
    field = _field(args)
    gens = GeneratorSet(args.vars)
    try:
        p = parse_expr(args.expr, gens, field)
    except ParseError as e:
        raise UsageError(str(e)) from None
    canonical = format_poly(p)
    if parse_expr(canonical, gens, field) != p:
        raise RuntimeError("canonical form failed to round-trip")
    inputs = {"expr": args.expr, "vars": list(gens.names), "field": args.field}
    data = {"canonical": canonical, "terms": len(p.terms), "round_trip": True}
    return "computed", inputs, data, {}


_VERBS = {
    "lemma1": _run_lemma1,
    "dims": _run_dims,
    "counterexample": _run_counterexample,
    "coefficients": _run_coefficients,
    "albert": _run_albert,
    "parse": _run_parse,
}


# ---------------------------------------------------------------------------
# Argument parsing and report plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jvu", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"jvu {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, field_default="q"):
        p.add_argument("--field", default=field_default, help="q or gf<p> (default %(default)s)")
        p.add_argument("--out", default=None, help="write the JSON report to this file")
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("lemma1", help="verify the U-commutator bracketing identity")
    common(p)

    p = sub.add_parser("dims", help="symmetric vs Jordan multilinear dimensions")
    common(p, field_default="gf2")
    p.add_argument("--degree-bound", type=_degree_bound, default=DEFAULT_DEGREE_BOUND, dest="degree_bound")
    p.add_argument("--vars", type=_generator_names, default="x,y,z,t")
    p.add_argument("--multidegree", type=_multidegree, default="1,1,1,1")
    p.add_argument("--mode", choices=[LINEAR, QUADRATIC], default=None)

    p = sub.add_parser("counterexample", help="the two-sided ideal gap at multidegree (2,2,1)")
    common(p)
    p.add_argument("--degree-bound", type=_degree_bound, default=DEFAULT_DEGREE_BOUND, dest="degree_bound")
    p.add_argument("--mode", choices=[LINEAR, QUADRATIC], default=None)
    p.add_argument("--witness", default=None, help="alternative witness expression over x,y,z")
    p.set_defaults(multidegree=(2, 2, 1))

    p = sub.add_parser("coefficients", help="solve the 7-term multilinear ansatz")
    common(p)

    p = sub.add_parser("albert", help="cubic-form and commuting-U checks in H3(O)")
    common(p)
    p.add_argument("--samples", type=_positive_int, default=100)

    p = sub.add_parser("parse", help="parse an expression and print its canonical form")
    common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--vars", type=_generator_names, default="x,y,z")

    return parser


def _write_report(report: dict, out: str | None):
    text = json.dumps(report, indent=2)
    if out is None:
        print(text)
        return
    tmp = f"{out}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, out)
    except OSError:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _execute(args) -> tuple[int, dict]:
    t0 = time.perf_counter()
    report = {
        "schema_version": SCHEMA_VERSION,
        "task": args.verb,
        "tool_version": __version__,
        "field": getattr(args, "field", None),
        "mode": None,
        "seed": getattr(args, "seed", None),
    }
    try:
        verdict, inputs, data, certificates = _VERBS[args.verb](args)
    except Exception as e:  # usage or internal error: still emit a structured report
        error = str(e) if isinstance(e, UsageError) else f"{type(e).__name__}: {e}"
        report.update(verdict="error", error=error)
        report["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
        return EXIT_ERROR, report
    report["mode"] = inputs.get("mode")
    report.update(inputs=inputs, verdict=verdict, data=data, certificates=certificates)
    report["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    code = EXIT_REFUTED if verdict == "refuted" else EXIT_CONFIRMED
    return code, report


def run_command(argv) -> tuple[int, dict]:
    """Run one CLI invocation in-process; returns (exit code, report)."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        return EXIT_ERROR, {"schema_version": SCHEMA_VERSION, "verdict": "error", "error": str(e)}
    return _execute(args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"jvu: error: {e}", file=sys.stderr)
        return EXIT_ERROR
    code, report = _execute(args)
    try:
        _write_report(report, args.out)
    except OSError as e:
        print(f"jvu: error: cannot write the report to {args.out}: {e.strerror or e}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
