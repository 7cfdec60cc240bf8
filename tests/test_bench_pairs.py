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


# -- what main checks before its first run -------------------------------------------

def _no_run(*args, **kwargs):
    raise AssertionError("a benchmark run started")


def _parent_copy(root: Path) -> Path:
    """A parent checkout with the benchmark's entry point and no git metadata."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("")
    return root


def _argv(parent, out, *extra):
    return ["--parent", str(parent), "--seeds", "1-2", "--change-note", "n", "--out", str(out), *extra]


@pytest.mark.parametrize("extra, message", [
    (["--workloads", "nope"], "unknown workload 'nope'"),
    (["--workloads", "rus-recursion-5", "--claim", "msd-8-noisy:shots_per_s"], "is not among --workloads"),
    (["--workloads", "rus-recursion-5", "--claim", "rus-recursion-5:textir.parse_s"], "not an end-to-end metric"),
    (["--workloads", "rus-recursion-5", "--claim", "rus-recursion-5"], "metric '' is not an end-to-end metric"),
    (["--workloads", "rus-recursion-5", "--claim", "rus-recursion-5:shots_per_s:x"], "not an end-to-end metric"),
], ids=["workload", "claim-workload", "per-layer-metric", "no-metric", "two-colons"])
def test_bad_workloads_and_claims_are_refused_before_any_run(monkeypatch, tmp_path, capsys, extra, message):
    monkeypatch.setattr(bench_pairs, "run_once", _no_run)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(_argv(_parent_copy(tmp_path), tmp_path / "out.json", *extra))
    assert exit_.value.code == 2 and message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_a_parent_without_the_benchmark_is_refused_before_any_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", _no_run)
    with pytest.raises(SystemExit):
        bench_pairs.main(_argv(tmp_path, tmp_path / "out.json", "--workloads", "rus-recursion-5"))
    assert "holds no perfbench/run.py" in capsys.readouterr().err


def test_the_parent_revision_is_read_before_the_first_run(monkeypatch, tmp_path):
    def revision(root):
        raise RuntimeError("revision read")

    monkeypatch.setattr(bench_pairs, "run_once", _no_run)
    monkeypatch.setattr(bench_pairs, "_revision", revision)
    with pytest.raises(RuntimeError, match="revision read"):
        bench_pairs.main(_argv(_parent_copy(tmp_path), tmp_path / "out.json", "--workloads", "rus-recursion-5"))


def test_a_parent_without_git_metadata_is_recorded_as_such(monkeypatch, tmp_path):
    # a copy outside any git checkout, and a directory inside one that it is not the root of
    parent = _parent_copy(tmp_path)
    assert bench_pairs._revision(parent) == bench_pairs.NO_GIT
    assert bench_pairs._revision(ROOT / "perfbench") == bench_pairs.NO_GIT
    canned = iter(_runs())  # in the order main runs them: pair 1 runs the change first
    monkeypatch.setattr(bench_pairs, "run_once", lambda root, workload, seed, seconds: next(canned)["result"])
    out = tmp_path / "out.json"
    claim = ["--claim", "rus-recursion-5:shots_per_s"]
    assert bench_pairs.main(_argv(parent, out, "--workloads", "rus-recursion-5", *claim)) == 0
    doc = json.loads(out.read_text())
    assert doc["parent"] == bench_pairs.NO_GIT and len(doc["runs"]) == 4
    assert doc["claim"]["workload"] == "rus-recursion-5" and doc["claim"]["change_wins"] == "2/2"
