"""``scripts/bench_pairs.py``: its pair order and its summary of canned run results (no benchmark runs)."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "shots_per_s", "unit": "shots/s", "better": "higher", "bound": 0.25},
    {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "verdict_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _run(workload, pair, side, shots, sweep, failed=0, verdict=None):
    metrics = {"shots_per_s": {"value": shots, "unit": "shots/s"}, "sweep_s": {"value": sweep, "unit": "s"}}
    if verdict is not None:
        metrics["verdict_p50_s"] = {"value": verdict, "unit": "s"}
    first = bench_pairs.pair_order(pair)[0]
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"workload": workload, "seed": 100 + pair, "pair": pair, "side": side, "first": first, "result": result}


PARENT_SHOTS = [100.0, 110.0, 90.0, 105.0, 95.0]
CHANGE_SHOTS = [130.0, 125.0, 135.0, 100.0, 128.0]  # wins 4 of 5: pair 3 is a loss
PARENT_SWEEP = [1.0, 1.2, 0.9, 1.1, 1.0]
CHANGE_SWEEP = [1.1, 1.1, 1.0, 1.2, 1.0]  # pair 1 is a win, pair 4 a tie


def _runs():
    runs = []
    for k in range(5):
        for side in bench_pairs.pair_order(k):
            i = 0 if side == "parent" else 1
            shots = (PARENT_SHOTS, CHANGE_SHOTS)[i][k]
            sweep = (PARENT_SWEEP, CHANGE_SWEEP)[i][k]
            runs.append(_run("w", k, side, shots, sweep, failed=int(side == "change" and k == 2),
                             verdict=1.0 if side == "parent" or k else None))
    runs.append(_run("w", 5, "parent", 1e9, 1e9))  # an unfinished pair is left out
    return runs


def test_pair_order_alternates_and_seeds_parse():
    assert [bench_pairs.pair_order(k)[0] for k in range(4)] == ["parent", "change", "parent", "change"]
    assert bench_pairs.parse_seeds("1801-1804") == [1801, 1802, 1803, 1804]
    assert bench_pairs.parse_seeds("3,1,2") == [3, 1, 2]


def test_summary_of_canned_runs():
    s = bench_pairs.summarize(_runs(), METRICS)["w"]
    assert s["pairs"] == 5
    assert s["failed_ops"] == {"parent": 0, "change": 1}
    assert s["attempted_ops"] == {"parent": 50, "change": 50}
    assert s["correct"] == {"parent": True, "change": False}
    assert "verdict_p50_s" not in s  # one change run lacks it

    shots = s["shots_per_s"]
    q1, med, q3 = statistics.quantiles(PARENT_SHOTS, n=4)
    assert shots["parent"] == {"q1": q1, "median": med, "q3": q3} and med == 100.0
    assert shots["change"]["median"] == 128.0
    assert shots["change_over_parent"] == pytest.approx(1.28)
    assert shots["change_wins"] == "4/5"
    assert shots["worse_by"] == round(100 / 128 - 1, 4) < 0  # higher is better: parent over change, minus 1
    assert shots["bound"] == 0.25

    sweep = s["sweep_s"]
    assert sweep["change_wins"] == "1/5"  # the tie counts for neither side
    assert sweep["worse_by"] == round(1.1 / 1.0 - 1, 4) > 0  # lower is better: change over parent, minus 1


def test_claim_gap_and_parent_iqr():
    summary = bench_pairs.summarize(_runs(), METRICS)
    c = bench_pairs.claim(summary, "w", "shots_per_s", "higher")
    q1, _med, q3 = statistics.quantiles(PARENT_SHOTS, n=4)
    assert c == {
        "metric": "shots_per_s", "workload": "w", "change_wins": "4/5", "median_gap": 28.0,
        "parent_iqr": q3 - q1, "change_over_parent": pytest.approx(1.28),
    }
    assert bench_pairs.claim(summary, "w", "sweep_s", "lower")["median_gap"] == pytest.approx(-0.1)


def test_summary_reads_the_benchmark_metrics_and_the_last_bench_file():
    # the summary of a written file's runs is the summary written beside them
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    doc = json.loads((ROOT / "BENCH_pr17.json").read_text())
    summary = bench_pairs.summarize(doc["runs"], metrics)
    assert summary.keys() == doc["summary"].keys()
    for workload, s in summary.items():
        assert s == doc["summary"][workload], workload
