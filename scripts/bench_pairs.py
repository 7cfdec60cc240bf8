#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write a BENCH_*.json.

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each of two checkouts, the parent's and this one, each
from its own root with its own ``src/``. T is ``run_seconds`` from
``BENCHMARK.json``, the same on both sides. Pair k uses the k-th seed and
runs the parent first when k is even, the change first when k is odd. The
last line of each run is its JSON result, kept under ``runs[].result``.

The summary gives, per workload and per end-to-end metric of
``BENCHMARK.json`` that every run reports: each side's quartiles
(``statistics.quantiles(n=4)``), the ratio of the medians
(``change_over_parent``), the pairs the change won (ties count for neither
side), and ``worse_by``, how much worse the change's median is than the
parent's as a fraction (negative when better), beside the metric's bound.
``--claim`` adds, for one metric on one workload, the gap between the
medians and the parent's interquartile range.

The workloads and the claim are checked against ``BENCHMARK.json``, and
the parent's revision is read, before the first run. A parent copy that is
not the root of a git checkout is recorded as ``no git metadata``.

Run from this checkout's root, with the parent checked out elsewhere, on
seeds not used while the change was written:

    python3 scripts/bench_pairs.py --parent ../parent --seeds 1801-1810 \\
        --workloads exact-verify --claim exact-verify:shots_per_s \\
        --change-note "what the change does" --out BENCH_new.json

One run takes about ``run_seconds`` plus its setup, so ten pairs on one
workload at 30 s take about 12 minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1801-1810"`` or ``"1,5,9"`` as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def pair_order(k: int) -> tuple[str, str]:
    """The sides of pair ``k`` in the order they run."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def _quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: pair count, operations, correctness and each end-to-end metric's comparison.

    ``runs`` are entries as ``bench_pairs`` writes them; ``metrics`` are
    ``BENCHMARK.json``'s ``end_to_end`` entries.
    """
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = {k: p for k, p in sorted(pairs.items()) if len(p) == 2}
        results = {side: [p[side] for p in pairs.values()] for side in SIDES}
        s: dict = {
            "pairs": len(pairs),
            "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
            "attempted_ops": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        }
        for m in metrics:
            name = m["name"]
            if len(pairs) < 2 or not all(name in r["metrics"] for side in SIDES for r in results[side]):
                continue
            vals = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
            lower = m["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
            q = {side: _quartiles(vals[side]) for side in SIDES}
            ratio = q["change"]["median"] / q["parent"]["median"]
            s[name] = {
                **q,
                "change_over_parent": ratio,
                "change_wins": f"{wins}/{len(pairs)}",
                "worse_by": round(ratio - 1 if lower else 1 / ratio - 1, 4),
                "bound": m["bound"],
            }
        out[workload] = s
    return out


def claim(summary: dict, workload: str, metric: str, better: str) -> dict:
    """The claimed metric's wins, median gap (positive when the change is better) and the parent's IQR."""
    s = summary[workload][metric]
    gap = s["parent"]["median"] - s["change"]["median"]
    return {
        "metric": metric,
        "workload": workload,
        "change_wins": s["change_wins"],
        "median_gap": gap if better == "lower" else -gap,
        "parent_iqr": s["parent"]["q3"] - s["parent"]["q1"],
        "change_over_parent": s["change_over_parent"],
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at ``root``; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


NO_GIT = "no git metadata"


def _revision(root: Path) -> str:
    """The short revision checked out at ``root``, or ``NO_GIT`` for a copy that is not a git checkout's root."""
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "--short", "HEAD"],
                          capture_output=True, text=True)
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return NO_GIT
    return lines[1]


def check_args(ap: argparse.ArgumentParser, args, spec: dict) -> None:
    """Refuse, through ``ap.error``, a parent without the benchmark, or a workload or ``--claim`` the summary could not answer."""
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"--parent {args.parent} holds no perfbench/run.py")
    known = [w["name"] for w in spec["workloads"]]
    for workload in args.workloads:
        if workload not in known:
            ap.error(f"unknown workload {workload!r}; BENCHMARK.json has {', '.join(known)}")
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workloads:
            ap.error(f"--claim workload {workload!r} is not among --workloads")
        if metric not in [m["name"] for m in spec["end_to_end"]]:
            ap.error(f"--claim metric {metric!r} is not an end-to-end metric of BENCHMARK.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent's checkout")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="one seed per pair: 1801-1810 or 1,2,3")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    ap.add_argument("--change-note", required=True, help="what the change does, for the file's 'change' field")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    import numpy as np  # the benchmark's numpy, recorded with the machine

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_args(ap, args, spec)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    parent_revision = _revision(roots["parent"])  # before the first run: a failure here must not cost any
    runs = []
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            first = pair_order(k)[0]
            for side in pair_order(k):
                result = run_once(roots[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "pair": k, "side": side, "first": first,
                             "result": result})
                print(f"{workload} pair {k} seed {seed} {side}: failed {result['failed']}/{result['attempted']}",
                      file=sys.stderr)
    summary = summarize(runs, metrics)
    seeds = f"{args.seeds[0]}-{args.seeds[-1]}" if args.seeds == list(range(args.seeds[0], args.seeds[-1] + 1)) \
        else ",".join(map(str, args.seeds))
    doc = {
        "what": (f"alternating parent/change runs of `python3 perfbench/run.py --workload <w> --seed <s> "
                 f"--seconds {seconds:g} --trace 0`; each run's result line is under runs[].result; quartiles "
                 f"are statistics.quantiles(n=4) over the {len(args.seeds)} runs of each side"),
        "parent": parent_revision,
        "change": args.change_note,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
        "order": "pair k runs the parent first when k is even and the change first when k is odd",
        "seeds": f"{seeds} on every workload; none was used while the change was written",
        "summary": summary,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        better = next(m["better"] for m in metrics if m["name"] == metric)
        doc["claim"] = claim(summary, workload, metric, better)
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
