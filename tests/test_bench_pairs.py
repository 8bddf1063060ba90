"""The pair summary of tools/bench_pairs.py, on canned run.py output lines.
No benchmark runs here."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_output(verdict_s, per_s, failed=0, attempted=40):
    """A run.py standard output whose result line carries these values."""
    metrics = {"setup_s": 0.05, "verdict_s.p50": verdict_s, "verdicts_per_s": per_s, "peak_rss_mb": 17.25}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
    }
    return "\n".join([
        f"workload albert-pairs seed 1234: {attempted} operations in 5 cycles, 30.10 s",
        f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})",
        f"verdict_s.p50 {verdict_s:.6g} s",
        json.dumps(result),
        "",
    ])


def test_result_line_reads_the_last_line():
    assert bench_pairs.result_line(run_output(0.02, 12.0))["metrics"]["verdict_s.p50"]["value"] == 0.02


def test_summary_of_canned_pairs():
    parent = [(0.026, 11.0), (0.027, 11.5), (0.025, 12.0), (0.028, 10.5)]
    change = [(0.019, 12.5), (0.018, 11.5), (0.026, 11.0), (0.020, 13.0)]
    results = [
        {"parent": bench_pairs.result_line(run_output(*p)),
         "change": bench_pairs.result_line(run_output(*c, failed=int(i == 3)))}
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    first = ["parent", "change", "parent", "change"]
    out = bench_pairs.summarize(first, results, END_TO_END)
    assert out["pairs"] == 4 and out["first"] == first
    assert out["attempted"] == {"parent": 160, "change": 160}
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["correct"] == {"parent": True, "change": False}
    assert list(out["metrics"]) == [m["name"] for m in END_TO_END]

    verdict = out["metrics"]["verdict_s.p50"]
    assert verdict["parent_runs"] == [p for p, _ in parent] and verdict["change_runs"] == [c for c, _ in change]
    q1, median, q3 = statistics.quantiles([p for p, _ in parent], n=4, method="inclusive")
    assert verdict["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert verdict["change"]["median"] == statistics.median([c for c, _ in change])
    assert verdict["median_ratio"] == verdict["change"]["median"] / median
    assert (verdict["unit"], verdict["better"], verdict["change_wins"]) == ("s", "lower", "3/4")
    # higher is better here, and the tie in pair 2 counts for neither side
    assert out["metrics"]["verdicts_per_s"]["change_wins"] == "2/4"
    assert out["metrics"]["setup_s"]["change_wins"] == "0/4"


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_rejected_before_anything_runs(pairs, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be extracted or run")

    monkeypatch.setattr(bench_pairs, "extract", refuse)
    monkeypatch.setattr(bench_pairs, "run", refuse)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--workload", "albert-pairs", "--pairs", pairs, "--out", str(out)])
    assert exit_info.value.code == 2 and not out.exists()
