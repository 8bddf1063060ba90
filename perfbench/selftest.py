"""Self-test of the benchmark at tiny size (under a minute).

    python3 perfbench/selftest.py                    # tiny checks only
    python3 perfbench/selftest.py --repeat free-gf2  # also: two traced cycles of
                                                     # a real workload, seed 7

Checks, each printed as PASS or FAIL (exit code 1 on any FAIL):

* every metric named in BENCHMARK.json is printed with its unit, in the
  untraced and in the traced report, and nothing else is;
* the traced counts of the GF(2) (2,2,1) operation equal the values recorded
  at the seed commit, so a binding the tracer missed shows up as a count
  that fell short;
* a corrupted reference dimension makes that operation fail;
* two traced runs with the same inputs give identical counts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

TINY_CYCLE = [
    {"workload": "free", "field": "gf2", "mode": "quadratic", "multidegree": [2, 2, 1], "kind": "ideal", "op_seed": 7},
    {"workload": "free", "field": "q", "mode": "linear", "multidegree": [2, 2, 1], "kind": "random", "op_seed": 7},
    {"workload": "albert", "samples": 1, "op_seed": 7},
]

#: Traced calls and counts of TINY_CYCLE[0], recorded at the seed commit.
RECORDED_GF2_221 = {
    "calls": {
        "unwrapped": 1,
        "ideals.cohn_gap_witness": 1,
        "ideals.assoc_ideal_component": 1,
        "ideals.outer_ideal_component": 1,
        "ideals.outer_ideal_is_closed": 1,
        "jordan.closure_table": 2,
        "freealg.mul": 1960,
        "linalg.insert": 467,
        "linalg.query": 37,
        "expr.format": 3,
        "expr.parse_expr": 2,
    },
    "counts": {
        "jordan.degree_checks": 81021,
        "jordan.closure_table.hits": 1,
        "jordan.closure.inserts": 514,
        "jordan.closure.reps": 52,
        "ideals.outer.inserts": 39,
        "ideals.outer.reps": 23,
        "ideals.outer.rounds": 3,
        "linalg.insert.grew": 96,
        "fields.ops.gfp": 17701,
        "fields.is_zero.calls": 33827,
    },
}

#: Bindings made by value in another module; a tracer that misses them
#: misses every call made through them.
BY_VALUE_BINDINGS = (
    "jvu.ideals.dominated",
    "jvu.ideals.jordan_closure_table",
    "jvu.albert.affine_solve",
    "jvu.cli.cohn_gap_witness",
    "jvu.cli.parse_expr",
)

#: Seed of the two traced runs of a real workload (``--repeat``).
REPEAT_SEED = 7

_failures: list[str] = []


def verdict(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        _failures.append(name)


def tiny_run(trace: bool, dims=run.REFERENCE_DIMS):
    run.warm_up()
    records, wall, cycles = run.run_loop(TINY_CYCLE, 0, trace, dims)
    out = io.StringIO()
    result = run.report("tiny", 0, records, wall, cycles, trace, out=out)
    return records, result, out.getvalue()


def check_metric_names(benchmark: dict, untraced: tuple, traced: tuple):
    for section, (_, result, text) in (("end_to_end", untraced), ("per_layer", traced)):
        want = {m["name"]: m["unit"] for m in benchmark[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        verdict(f"{section} metrics match BENCHMARK.json", got == want, f"got {got}, want {want}")
        lines = text.splitlines()
        unprinted = [
            name for name, unit in want.items()
            if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
        ]
        verdict(f"{section} metrics printed with their units", not unprinted, f"not printed: {unprinted}")
        last = json.loads(text.strip().splitlines()[-1])
        verdict(f"{section} result line has exactly correct/attempted/failed/metrics", set(last) == {"correct", "attempted", "failed", "metrics"})


def check_recorded_counts(records: list[dict]):
    rec = next(r for r in records if r["traced"] and r["op"] is TINY_CYCLE[0])
    trace = rec["trace"]
    for part, want in RECORDED_GF2_221.items():
        got = {key: trace[part].get(key, 0) for key in want}
        verdict(f"GF(2) (2,2,1) traced {part} equal the recorded values", got == want, f"got {got}")
    missing = [b for b in BY_VALUE_BINDINGS if b not in rec["bindings"]]
    verdict("by-value bindings are wrapped", not missing, f"missing {missing}")


def check_corrupted_reference():
    key = ("gf2", "quadratic", (2, 2, 1))
    outer, assoc = run.REFERENCE_DIMS[key]
    corrupted = {**run.REFERENCE_DIMS, key: (outer + 1, assoc)}
    _, result, _ = tiny_run(False, corrupted)
    verdict("a corrupted reference entry gives fail_ratio > 0", result["failed"] > 0 and not result["correct"], str(result))


def count_metrics(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count/op", "ratio") and not name.startswith("trace.")
    }


def check_repeat(first: dict, second: dict, what: str):
    a, b = count_metrics(first), count_metrics(second)
    diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
    verdict(f"{what}: counts repeat exactly across two traced runs", not diff, str(diff))


def repeat_workload(workload: str):
    """Two traced runs of one cycle of a real workload; prints the first
    run's report."""
    results = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, run.__file__, "--workload", workload, "--seed", str(REPEAT_SEED), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=True, cwd=run.ROOT,
        )
        *text, last = out.stdout.strip().splitlines()
        if not results:
            print("\n".join(text))
        results.append(json.loads(last))
    check_repeat(*results, f"{workload} seed {REPEAT_SEED}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", choices=sorted(run.WORKLOADS), action="append", default=[])
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)

    untraced = tiny_run(False)
    verdict("tiny untraced run has no failures", untraced[1]["failed"] == 0, untraced[2])
    traced = tiny_run(True)
    verdict("tiny traced run has no failures", traced[1]["failed"] == 0, traced[2])
    check_metric_names(benchmark, untraced, traced)
    check_recorded_counts(traced[0])
    check_corrupted_reference()
    check_repeat(traced[1], tiny_run(True)[1], "tiny cycle")
    for workload in args.repeat:
        repeat_workload(workload)
    print(f"{len(_failures)} failed" if _failures else "all passed")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
