"""One benchmark operation in a fresh interpreter, as one ``jvu`` invocation.

Protocol: the parent writes one JSON request to stdin and closes it; the
worker writes one JSON result to stdout and exits.  The result carries the
CLOCK_MONOTONIC time at which ``import jvu.cli`` returned (the parent took the
spawn time on the same clock), the operation's own wall time from inputs in
hand to a verified verdict, what the operation computed, and the peak RSS.
With tracing on it also carries the spans and counts of the operation.

Run only by ``run.py``; ``python3 perfbench/worker.py`` reads its request from
stdin.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

import jvu.cli  # noqa: E402  (the CLI module loads every layer, as `jvu` does)

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import functools  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from jvu import cli, expr, fields, ideals, jordan, linalg  # noqa: E402
from jvu.freealg import FreePoly, GeneratorSet  # noqa: E402

GENS = ("x", "y", "z")


def _random_symmetric(rng, gens, field, d):
    """A nonzero p + rev(p) with small random coefficients at multidegree d."""
    while True:
        terms = {
            w: field.from_int(rng.randint(-3, 3))
            for w in linalg.words_of_multidegree(gens, d)
        }
        g = FreePoly(gens, field, terms).symmetrize()
        if not g.is_zero():
            return g


def free_inputs(req):
    """The generator f = x o y and the witness g of one gap check.

    Kind "random": g is a random symmetric element (usually outside both
    ideals).  Kind "ideal": g = circ(f, h) for a random symmetric h, which lies
    in both ideals by construction.
    """
    field = fields.field_from_name(req["field"])
    gens = GeneratorSet(GENS)
    d = tuple(req["multidegree"])
    f = jordan.je_circ(
        jordan.JordanElement.generator(gens, field, "x"),
        jordan.JordanElement.generator(gens, field, "y"),
    )
    rng = random.Random(req["op_seed"])
    if req["kind"] == "random":
        g = _random_symmetric(rng, gens, field, d)
    else:
        h_degree = tuple(c - e for c, e in zip(d, f.multidegree))
        while True:
            g = jordan.circ(f.value, _random_symmetric(rng, gens, field, h_degree))
            if not g.is_zero():
                break
    return gens, field, f, g, d


def free_op(req, gens, field, f, g, d):
    """Gap check, fixed-point re-verification and certificate replay."""
    report = ideals.cohn_gap_witness(f, g, d, req["mode"], field)
    closed = ideals.outer_ideal_is_closed(report.outer)
    replays = []
    if report.g_in_outer:
        outer = report.outer
        terms = [
            (c, jordan.recipe_str(outer.inserted[i].recipe))
            for i, c in sorted(report.outer_certificate.items())
        ]
        cert = expr.format_linear_combination(terms, field)
        replays.append(expr.parse_expr(cert, gens, field) == g)
    if report.g_in_assoc:
        assoc = report.assoc
        f_str = f"({expr.format_poly(f.value)})"
        terms = []
        for i, c in sorted(report.assoc_certificate.items()):
            w1, w2 = assoc.products[i]
            factors = [t for t in (g.word_str(w1) if w1 else "", f_str, g.word_str(w2) if w2 else "") if t]
            terms.append((c, "*".join(factors)))
        cert = expr.format_linear_combination(terms, field)
        replays.append(expr.parse_expr(cert, gens, field) == g)
    return {
        "outer_dim": report.outer.dim,
        "assoc_dim": report.assoc.dim,
        "in_outer": report.g_in_outer,
        "in_assoc": report.g_in_assoc,
        "closed": closed,
        "replays": replays,
    }


def albert_op(req):
    code, report = cli.run_command(
        ["albert", "--samples", str(req["samples"]), "--seed", str(req["op_seed"])]
    )
    return {"exit_code": code, "verdict": report.get("verdict"), "data": report.get("data", {})}


def run(req):
    if req["workload"] == "albert":
        op = functools.partial(albert_op, req)
    else:
        op = functools.partial(free_op, req, *free_inputs(req))
    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        op = functools.partial(tracer.root, op)
    t0 = time.perf_counter()
    outcome = op()
    verdict_s = time.perf_counter() - t0
    result = {"verdict_s": verdict_s, "outcome": outcome}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["bindings"] = tracer.bindings
        result["spans"] = tracer.spans
    return result


def main():
    req = json.loads(sys.stdin.read())
    try:
        result = {} if req.get("warmup") else run(req)
    except Exception:  # the op failed; report it instead of crashing silently
        result = {"error": traceback.format_exc()}
    result["imported_at"] = IMPORTED_AT
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
