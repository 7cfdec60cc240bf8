#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size; takes about a minute.

    python3 perfbench/selftest.py

Checks that every workload runs, untraced and traced, and prints every
metric ``BENCHMARK.json`` names with its unit; that the last line is the
result object; that a deliberately wrong reference makes operations fail;
and that without ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(spec: dict, workload: str, trace: int) -> None:
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (result, out.stderr)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), result["metrics"].keys()
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+n="
        assert any(re.match(pattern, line) for line in lines), f"{m['name']} not printed with its unit"
    print(f"ok  {workload} --trace {trace}: {len(wanted)} metrics with units, {result['attempted']} operations")


def check_wrong_reference() -> None:
    sys.path.insert(0, str(HERE))
    import run  # noqa: E402  (inserts src/ into the path itself)
    from checks import References
    from workloads import make_programs

    programs = make_programs("table-sweep", 3, tiny=True)
    right = run.run_workload(programs, 0.0, References())[0]
    assert right.failed == 0, right.failed
    wrong = replace(References(), msd_round_success=0.9)
    loop = run.run_workload(programs, 0.0, wrong)[0]
    assert loop.failed > 0, "a wrong MSD reference went unnoticed"
    print(f"ok  wrong MSD reference: error_rate {loop.failed / loop.attempted:.3f} > 0")


def check_bare_checkout(spec: dict) -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(bare, "table-sweep", 0)
    shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print(f"ok  without src/: exit {out.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_output(spec, w["name"], trace)
    check_wrong_reference()
    check_bare_checkout(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
