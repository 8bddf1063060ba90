"""jvu benchmark: time to a verified verdict, one CLI-like client, closed loop.

    python3 perfbench/run.py --workload free-gf2 --seed 1 --seconds 30 --trace 0

Each operation runs in a fresh worker interpreter (``worker.py``), as one
``jvu`` invocation does: the closure cache in ``jordan`` and the structure
constants in ``albert`` are module globals, so operations sharing a process
would read warm caches that no command-line user ever gets.  One client
waits for each verdict before it sends the next request, and never more than
one worker runs at a time.

A run repeats a cycle of operations made from ``--seed`` until ``--seconds``
have passed, always finishing the cycle it is in, so every operation of the
cycle is measured equally often.  Every verdict is checked against recorded
dimensions and by independent routes; see README.md in this directory for
the workloads, the metrics and which layer should move which metric.

With ``--trace 0`` the run reports the end-to-end metrics, in reference
seconds: each operation's times are scaled by how fast the machine ran a
fixed computation (``reference.py``) just before and just after it, because
the machine's own speed swings by 1.5x or more.  With ``--trace 1``
each operation of the cycle runs twice, untraced and traced, alternating
which goes first; the traced run reports per-layer self times and counts per
operation and the tracing overhead, and writes every span to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the run
completed, whatever the verdicts; 2 when the checkout holds no jvu sources.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

HARD_LIMIT_S = 165.0  # a run must end well within 180 s, whatever the machine does

#: (field, mode, multidegree) -> (outer ideal dim, assoc ideal dim), recorded
#: from the seed commit for f = x o y.
REFERENCE_DIMS = {
    ("gf2", "quadratic", (2, 2, 1)): (10, 21),
    ("gf2", "quadratic", (3, 2, 1)): (24, 48),
    ("gf2", "quadratic", (2, 2, 2)): (27, 54),
    ("q", "linear", (2, 2, 1)): (10, 21),
    ("q", "linear", (2, 2, 2)): (27, 54),
    ("q", "linear", (3, 2, 1)): (24, 48),
    ("q", "linear", (3, 2, 2)): (75, 150),
    ("q", "linear", (2, 3, 2)): (75, 150),
}

# free-gf2: closure enumeration in jordan dominates; linalg and fields do not.
#   One of each multidegree, so the median lies in the middle of the (3,2,1)
#   class.  Weighting (2,2,2) so that the median fell in its class put the
#   median at that class's fast edge, where it spread too much (README.md).
# free-q: Fraction arithmetic and Subspace elimination dominate; jordan does not.
#   Its two heavy multidegrees (about 10x the light ones) appear twice, one
#   witness kind each, so the median falls inside the heavy class instead of
#   in the gap between the classes, where it would average two extremes.
# albert-pairs: the only workload in albert, and batch affine_solve in linalg.
WORKLOADS = {
    "free-gf2": {"field": "gf2", "mode": "quadratic", "multidegrees": [(2, 2, 1), (3, 2, 1), (2, 2, 2)]},
    "free-q": {
        "field": "q",
        "mode": "linear",
        "multidegrees": [(2, 2, 2), (3, 2, 1), (3, 2, 2), (3, 2, 2), (2, 3, 2), (2, 3, 2)],
    },
    "albert-pairs": {"samples": 4, "ops": 8},
}

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s.p50", "s"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Per operation over the traced operations of a run: span calls and self
# seconds ("<span>.calls", "<span>.self_s") and counts, plus the ratios below.
PER_LAYER_NAMES = (
    "jordan.closure_table.calls", "jordan.closure_table.self_s", "jordan.closure_table.hit_ratio",
    "jordan.closure.reps", "jordan.closure.inserts", "jordan.closure.insert_yield",
    "jordan.degree_checks",
    "ideals.cohn_gap_witness.self_s", "ideals.outer_ideal_component.self_s",
    "ideals.assoc_ideal_component.self_s", "ideals.outer_ideal_is_closed.self_s",
    "ideals.outer.rounds", "ideals.outer.inserts", "ideals.outer.insert_yield",
    "linalg.insert.calls", "linalg.insert.grew", "linalg.insert.self_s",
    "linalg.query.calls", "linalg.query.self_s",
    "linalg.affine_solve.calls", "linalg.affine_solve.self_s",
    "fields.ops.q", "fields.ops.gfp", "fields.is_zero.calls",
    "freealg.mul.calls", "freealg.mul.self_s",
    "albert.jordan_mul.calls", "albert.jordan_mul.self_s",
    "albert.r_op.self_s", "albert.u_op.self_s",
    "albert.op_matmul.calls", "albert.op_matmul.self_s",
    "albert.sample_zero_pair.self_s", "albert.left_kernel.self_s",
    "albert.sampler_attempts", "albert.sampler_yield",
    "albert.check_zero_pair.self_s", "albert.operator_collapse.self_s",
    "albert.identity_checks.self_s", "albert.nonvacuous_check.self_s",
    "expr.parse_expr.calls", "expr.parse_expr.self_s", "expr.format.self_s",
    "cli.run_command.self_s",
    "unwrapped.self_s",
    "trace.overhead_s", "trace.overhead_ratio",
)

#: ratio metric -> (numerator, denominator), both run totals
RATIOS = {
    "jordan.closure_table.hit_ratio": ("jordan.closure_table.hits", "jordan.closure_table.calls"),
    "jordan.closure.insert_yield": ("jordan.closure.reps", "jordan.closure.inserts"),
    "ideals.outer.insert_yield": ("ideals.outer.reps", "ideals.outer.inserts"),
    "albert.sampler_yield": ("albert.sampler_pairs", "albert.sampler_attempts"),
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "s/op" if name.endswith("_s") else "count/op"


#: report fields of `jvu albert --samples K` that must all equal K
ALBERT_PASS_KEYS = ("cubic_pass", "eq1_pass", "operator_identity_pass")
ALBERT_PAIR_KEYS = (
    "count", "r_a2_b_commute_pass", "r_a_b2_commute_pass", "commutators_match_pass",
    "u_commutator_zero_pass", "operator_collapse_pass", "dichotomy_pass",
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def make_cycle(workload: str, seed: int) -> list[dict]:
    """The operations of one cycle; the same seed gives the same cycle."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    if "samples" in spec:
        return [
            {"workload": "albert", "samples": spec["samples"], "op_seed": rng.randrange(2**31)}
            for _ in range(spec["ops"])
        ]
    # Alternate the witness kind along the cycle, from a seeded start, so both
    # verdict paths run in every cycle and each multidegree sees both kinds
    # across seeds.
    flip = rng.randrange(2)
    return [
        {
            "workload": "free",
            "field": spec["field"],
            "mode": spec["mode"],
            "multidegree": list(d),
            "kind": ("random", "ideal")[(i + flip) % 2],
            "op_seed": rng.randrange(2**31),
        }
        for i, d in enumerate(spec["multidegrees"])
    ]


def check(op: dict, outcome: dict, dims: dict) -> list[str]:
    """Problems with one verdict: wrong dimension or verdict, failed replay,
    failed re-verification.  Empty when the verdict is verified."""
    if op["workload"] == "albert":
        k = op["samples"]
        problems = [] if outcome["exit_code"] == 0 else [f"exit code {outcome['exit_code']}"]
        if outcome["verdict"] != "confirmed":
            problems.append(f"verdict {outcome['verdict']!r}")
        data = outcome["data"]
        passes = {key: data.get(key) for key in ALBERT_PASS_KEYS}
        passes.update((key, data.get("zero_pair", {}).get(key)) for key in ALBERT_PAIR_KEYS)
        problems += [f"{key} = {value} != {k}" for key, value in passes.items() if value != k]
        return problems
    key = (op["field"], op["mode"], tuple(op["multidegree"]))
    want = dims.get(key)
    got = (outcome["outer_dim"], outcome["assoc_dim"])
    problems = [] if got == want else [f"dims {got} != reference {want}"]
    if outcome["in_outer"] and not outcome["in_assoc"]:
        problems.append("inside the outer ideal but outside the assoc ideal")
    if op["kind"] == "ideal" and not (outcome["in_outer"] and outcome["in_assoc"]):
        problems.append("circ(f, h) not inside both ideals")
    if not all(outcome["replays"]):
        problems.append("certificate does not replay")
    if not outcome["closed"]:
        problems.append("outer ideal not closed")
    return problems


def run_op(op: dict, traced: bool, dims: dict, started: float) -> dict:
    """Spawn one worker, run one operation in it and check the verdict."""
    record = {"op": op, "traced": traced, "ok": False}
    timeout = started + HARD_LIMIT_S - now()
    if timeout <= 0:
        record["problems"] = ["not run: the run's time limit was reached"]
        return record
    before = reference.kernel_s()
    t_spawn = now()
    with subprocess.Popen(
        [sys.executable, "-I", WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps({**op, "trace": traced}).encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            record["problems"] = ["timed out"]
            return record
        finally:  # also on SIGTERM: never leave a worker behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    record["wall_s"] = now() - t_spawn
    record["speed"] = reference.REFERENCE_S / ((before + reference.kernel_s()) / 2)
    if proc.returncode != 0:
        record["problems"] = [f"worker exit code {proc.returncode}: {err.decode()[-400:]}"]
        return record
    result = json.loads(out)
    record["setup_s"] = result["imported_at"] - t_spawn
    record["rss_mb"] = result["peak_rss_kb"] / 1024
    if "error" in result:
        record["problems"] = [result["error"]]
        return record
    record["verdict_s"] = result["verdict_s"]
    record["problems"] = check(op, result["outcome"], dims)
    record["ok"] = not record["problems"]
    for key in ("trace", "bindings", "spans"):
        if key in result:
            record[key] = result[key]
    return record


def warm_up():
    """Spawn one worker untimed, so byte-code compilation is not measured."""
    subprocess.run(
        [sys.executable, "-I", WORKER], input=b'{"warmup": true}',
        capture_output=True, check=True, cwd=ROOT, timeout=60,
    )


def run_loop(cycle: list[dict], seconds: float, trace: bool, dims: dict):
    """Closed loop over whole cycles until `seconds` have passed."""
    started = now()
    records = []
    cycles = 0
    while cycles == 0 or now() - started < seconds:
        for i, op in enumerate(cycle):
            order = (False, True) if (i + cycles) % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                records.append({**run_op(op, traced, dims, started), "cycle": cycles})
        cycles += 1
    return records, now() - started, cycles


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(records: list[dict], normalized: bool = True) -> dict:
    """The end-to-end metrics; times in reference seconds unless not `normalized`."""
    def scaled(key):
        return [r[key] * (r["speed"] if normalized else 1.0) for r in records if key in r]

    return {
        "setup_s": _median(scaled("setup_s")),
        "verdict_s.p50": _median(scaled("verdict_s")),
        "verdicts_per_s": sum(r["ok"] for r in records) / (sum(scaled("wall_s")) or 1.0),
        "peak_rss_mb": max(r.get("rss_mb", 0.0) for r in records),
    }


def per_layer(records: list[dict]) -> dict:
    traced = [r for r in records if r["traced"] and "trace" in r]
    totals: dict = {}
    for r in traced:
        trace = r["trace"]
        parts = [(f"{k}.calls", v) for k, v in trace["calls"].items()]
        parts += [(f"{k}.self_s", v) for k, v in trace["self_s"].items()]
        for key, value in parts + list(trace["counts"].items()):
            totals[key] = totals.get(key, 0) + value

    # Tracing overhead: each traced operation against its untraced twin.
    twins: dict = {}
    for r in records:
        if "verdict_s" in r:
            twins.setdefault((r["cycle"], json.dumps(r["op"], sort_keys=True)), {})[r["traced"]] = r["verdict_s"]
    pairs = [p for p in twins.values() if len(p) == 2]
    traced_s = sum(p[True] for p in pairs)
    untraced_s = sum(p[False] for p in pairs)

    out = {}
    for name in PER_LAYER_NAMES:
        if name == "trace.overhead_s":
            out[name] = (traced_s - untraced_s) / len(pairs) if pairs else 0.0
        elif name == "trace.overhead_ratio":  # traced over untraced time, minus 1
            out[name] = traced_s / untraced_s - 1 if untraced_s else 0.0
        elif name in RATIOS:
            num, den = RATIOS[name]
            out[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        else:
            out[name] = totals.get(name, 0) / (len(traced) or 1)
    return out


def write_spans(workload: str, seed: int, records: list[dict]):
    """Every span of the traced operations, for later study."""
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = [{"cycle": r["cycle"], "op": r["op"], "spans": r["spans"]} for r in records if "spans" in r]
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "ops": ops}, fh)


def report(workload: str, seed: int, records: list[dict], wall: float, cycles: int, trace: bool, out=sys.stdout):
    """Print every metric by name with its unit, then the result line."""
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    print(f"workload {workload} seed {seed}: {attempted} operations in {cycles} cycles, {wall:.2f} s", file=out)
    for r in records:
        if not r["ok"]:
            print(f"FAILED {json.dumps(r['op'])}: {'; '.join(r['problems'])}", file=out)
    print(f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})", file=out)
    if trace:
        units = {name: per_layer_unit(name) for name in PER_LAYER_NAMES}
        metrics = per_layer(records)
    else:
        units = dict(END_TO_END)
        metrics = end_to_end(records)
        for name, value in end_to_end(records, normalized=False).items():
            print(f"unscaled {name} {value:.6g} {units[name]}", file=out)
        verdicts = [r["verdict_s"] for r in records if "verdict_s" in r]
        t = tail(verdicts)
        if t is None:
            print(f"verdict_s.tail undefined: {len(verdicts)} samples, fewer than 11", file=out)
        else:
            print(f"verdict_s.tail {t[1]:.6f} s (p{t[0]:.1f} of n={len(verdicts)})", file=out)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}", file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "jvu", "__init__.py")):
        print(f"run.py: no jvu sources under {ROOT}/src; run from a jvu checkout", file=sys.stderr)
        return 2
    warm_up()
    records, wall, cycles = run_loop(make_cycle(args.workload, args.seed), args.seconds, bool(args.trace), REFERENCE_DIMS)
    if args.trace:
        write_spans(args.workload, args.seed, records)
    report(args.workload, args.seed, records, wall, cycles, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
