"""Alternating parent/change pairs of benchmark runs, summarized as JSON.

    python3 tools/bench_pairs.py --parent b899e8a --workload albert-pairs \\
        --pairs 10 --seed 1234 --seconds 30 --out BENCH_product_kernel.json

The parent revision is extracted with ``git archive`` into a temporary
directory; the change is the checkout this script lives in, as it is.  Pair
i runs ``perfbench/run.py --trace 0`` on both sides, each from its own
directory, the parent first when i is even and the change first when it is
odd.

The summary of the workload goes into ``benchmark.workloads[<workload>]`` of
``--out``: ``first``, the summed operation counts and failures, and for each
end-to-end metric of ``BENCHMARK.json`` every run's value, the medians, the
inclusive quartiles, ``change_wins`` (pairs in which the change did better)
and the ratio of the medians.  Every other key of an existing ``--out`` file
is kept, so the prose and micro timings of a BENCH file can sit around it.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def result_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run.py output."""
    return json.loads(stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(first: list, results: list, end_to_end: list) -> dict:
    """The workload summary of pairs whose results (one {"parent": r,
    "change": r} per pair, r a run.py result object) ran in the order
    ``first`` names."""
    out = {
        "pairs": len(results),
        "first": first,
        **{key: {s: sum(r[s][key] for r in results) for s in SIDES} for key in ("failed", "attempted")},
        "correct": {s: all(r[s]["correct"] for r in results) for s in SIDES},
        "metrics": {},
    }
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        runs = {s: [r[s]["metrics"][name]["value"] for r in results] for s in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        stats = {s: spread(runs[s]) for s in SIDES}
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **stats,
            "change_wins": f"{wins}/{len(results)}",
            "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
    return out


def extract(rev: str, dest: Path) -> Path:
    """A fresh copy of the committed files of rev under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    return result_line(subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the quartiles need two runs a side")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": extract(args.parent, Path(tmp, "parent")), "change": ROOT}
        first, results = [], []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            results.append({s: run(roots[s], args.workload, args.seed, args.seconds) for s in order})
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    summary = {"seed": args.seed, "seconds": args.seconds, **summarize(first, results, end_to_end)}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench = doc.setdefault("benchmark", {})
    bench.setdefault("command", "python3 perfbench/run.py --workload <W> --seed <S> --seconds <T> --trace 0")
    bench.setdefault("method", f"alternating pairs of the parent ({args.parent}, from git archive) and the change, "
                               "each run from its own directory; 'first' lists which side ran first per pair; "
                               "times are reference seconds as printed by run.py; quartiles are inclusive")
    bench.setdefault("workloads", {})[args.workload] = summary
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
