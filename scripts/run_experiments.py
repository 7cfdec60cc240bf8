#!/usr/bin/env python3
"""Reproduce the experiment sweeps and write report CSV/JSON files.

Sweeps:
  * magic-state distillation, limits 0..8, all measurement bases
  * repeat-until-success, limits 1..8, loop and recursion styles, all bases,
    conditional and always transport modes

Noiseless by default (the quantitative references are noiseless); pass
--noise to supply a noise-model JSON for qualitative runs.

Rejected input (a bad option value, a noise file that is missing or
invalid) ends in one ``error:`` line and exit status 1, as in the
``ionflow`` CLI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from ionflow.cli import _load
from ionflow.emulator import NOISELESS, NoiseModel, check_jobs
from ionflow.experiments import BASES, CSV_HEADER, STYLES, MsdConfig, RusConfig, run_experiment
from ionflow.ir import IonflowError
from ionflow.qccd import ALWAYS, CONDITIONAL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results"))
    ap.add_argument("--shots", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--limits", type=int, default=8, help="max limit for both sweeps")
    ap.add_argument("--noise", type=Path, default=None)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    try:
        return sweep(args)
    except (IonflowError, OSError) as e:  # rejected input; any other exception is a bug
        print(f"error: {e}", file=sys.stderr)
        return 1


def sweep(args) -> int:
    check_jobs(args.jobs)
    noise = _load(args.noise, NoiseModel, NOISELESS)
    args.out.mkdir(parents=True, exist_ok=True)
    rows: list[str] = []
    records: list[dict] = []

    def record(report, tag: str) -> None:
        rows.append(report.csv_row())
        rec = dataclasses.asdict(report)
        rec["tag"] = tag
        records.append(rec)
        print(
            f"{tag:34s} success={report.success_fraction:.4f} "
            f"avg_transport={report.avg_transport:8.2f} blocks={report.blocks:5d} colors={report.colors}"
        )

    t0 = time.perf_counter()
    for basis in BASES:
        for limit in range(0, args.limits + 1):
            cfg = MsdConfig(limit=limit, basis=basis)
            _res, _shots, report = run_experiment(cfg, args.shots, args.seed, noise=noise, jobs=args.jobs)
            record(report, f"msd basis={basis} N={limit}")

    for style in STYLES:
        for basis in BASES:
            for limit in range(1, args.limits + 1):
                for mode in (CONDITIONAL, ALWAYS):
                    cfg = RusConfig(limit=limit, basis=basis, style=style)
                    _res, _shots, report = run_experiment(
                        cfg, args.shots, args.seed, noise=noise, mode=mode, jobs=args.jobs
                    )
                    record(report, f"rus {style} basis={basis} N={limit} {mode}")

    csv_path = args.out / "summary.csv"
    csv_path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    (args.out / "summary.json").write_text(json.dumps(records, indent=2) + "\n")
    print(f"\nwrote {csv_path} ({len(rows)} rows) in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
