#!/usr/bin/env python3
"""ionflow benchmark: one closed-loop caller driving ionflow's public API.

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 30 --trace 0

runs from the repository root and imports ``ionflow`` from ``src/``. A run
makes the workload's programs, their shot seeds drawn from ``--seed``, and
repeats passes over them (at least two; more while the next pass fits in ``--seconds``), all
in this process with ``jobs=1``. Each program is built to source text,
compiled, and then sampled into a report row, cross-checked exactly, or
both; every output is checked against ``checks.py``.

With ``--trace 0`` the run reports the end-to-end metrics that
``BENCHMARK.json`` lists: every timed call runs between two units of the
yardstick (``yardstick.py``) and its wall time is scaled by theirs, and
each program's time is the median over passes. The run keeps to one core.
With ``--trace 1`` each pass runs every program
untraced and traced, back to back, and the run reports the per-layer
metrics; the spans go to ``.bench_build/perfbench/``. The last line of
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import ionflow
except ImportError as exc:
    sys.exit(f"error: cannot import ionflow from {SRC}: {exc}")
if Path(ionflow.__file__).resolve().parent.parent != SRC:
    sys.exit(f"error: imported ionflow from {ionflow.__file__}, not from {SRC}")

from checks import References, check_exact, check_noiseless_row, check_repeat_row, check_sampled_against_exact
from stages import PlainStages
from tracing import Tracer, TracedStages, layer_metrics
from workloads import WORKLOADS, make_programs
from yardstick import UNIT_S, Yardstick

SETUP_RUNS = 10  # set-up is timed in fresh processes, spread over the run; the median is reported
MIN_PASSES = 2  # noisy rows are checked against the first pass
MAX_LOGGED_FAILURES = 10
now = time.perf_counter


@dataclass
class PassResult:
    """Seconds of one pass, per program index and operation, scaled by the yardstick."""

    wall: dict[int, float] = field(default_factory=dict)  # time inside ionflow calls
    compile: dict[int, float] = field(default_factory=dict)
    shots: dict[int, float] = field(default_factory=dict)  # run_shots alone
    rows: dict[int, float] = field(default_factory=dict)
    verdicts: dict[int, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())


class Loop:
    """Passes over one workload's programs, with the state its checks need."""

    def __init__(self, programs, refs: References, compare_programs: bool, setup: SetupTimer | None,
                 yard: Yardstick | None):
        self.programs = programs
        self.setup = setup
        self.yard = yard
        self.refs = refs
        self.compare_programs = compare_programs  # drift guard of the traced run
        self.attempted = 0
        self.failed = 0
        self.first_rows: dict[int, object] = {}
        self.shot_counts: dict[int, int] = {}
        self.first_programs: dict[int, str] = {}

    def _fail(self, prog, op: str, problems, n_ops: int = 1) -> None:
        self.failed += n_ops
        if self.failed <= MAX_LOGGED_FAILURES:
            detail = problems if isinstance(problems, str) else "; ".join(problems)
            print(f"FAILED {op} {prog.name}: {detail}", file=sys.stderr)

    def run_pass(self, variants: list) -> list[PassResult]:
        """One pass; each program runs under every variant of the stages in turn."""
        results = [PassResult() for _ in variants]
        for i, prog in enumerate(self.programs):
            if self.setup:
                self.setup.poll()
            for stages, res in zip(variants, results):
                self._run_program(i, prog, stages, res)
        return results

    def _before(self) -> float:
        return self.yard.unit_s() if self.yard else 0.0

    def _scale(self, before: float) -> float:
        return self.yard.scale(before) if self.yard else 1.0

    def _run_program(self, i: int, prog, stages, res: PassResult) -> None:
        n_ops = 1 + (prog.shots > 0) + prog.verify
        self.attempted += n_ops
        try:
            y = self._before()
            t0 = now()
            module, source = stages.build(prog)
            t1 = now()
            compiled = stages.compile(source, prog.mode)
            t2 = now()
            k = self._scale(y)
        except Exception:
            self._fail(prog, "compile", traceback.format_exc(), n_ops)
            return
        res.compile[i] = (t2 - t1) * k
        res.wall[i] = build_s = (t2 - t0) * k
        if self.compare_programs:
            text = compiled.program.to_json()
            if text != self.first_programs.setdefault(i, text):
                self._fail(prog, "compile", "exec program differs between compile_text and the staged compile")

        dist = None
        if prog.verify:
            try:
                y = self._before()
                t3 = now()
                dists = stages.enumerate(module, compiled)
                t4 = now()
                k = self._scale(y)
            except Exception:
                self._fail(prog, "verdict", traceback.format_exc())
            else:
                res.wall[i] += (t4 - t3) * k
                res.verdicts[i] = build_s + (t4 - t3) * k
                dist = next(iter(dists.values()))
                problems = check_exact(prog, dists, self.refs)
                if problems:
                    self._fail(prog, "verdict", problems)

        if prog.shots:
            try:
                y = self._before()
                t5 = now()
                shots = stages.run_shots(compiled.program, prog.noise, prog.shots, prog.shot_seed)
                t6 = now()
                report = stages.summarize(shots, prog, compiled)
                t7 = now()
                k = self._scale(y)
            except Exception:
                self._fail(prog, "row", traceback.format_exc())
                return
            res.wall[i] += (t7 - t5) * k
            res.rows[i] = build_s + (t7 - t5) * k
            res.shots[i] = (t6 - t5) * k
            self.shot_counts[i] = len(shots)
            problems = check_repeat_row(report, self.first_rows.setdefault(i, report))
            if prog.noise.is_noiseless:
                problems += check_noiseless_row(prog, report, self.refs)
            if dist is not None:
                problems += check_sampled_against_exact(shots, dist)
            if problems:
                self._fail(prog, "row", problems)


def percentile(xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    k = (len(xs) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def program_medians(passes: list[PassResult], attr: str) -> dict[int, float]:
    """Each program's time for one operation, the median over the run's passes.

    Percentiles are then taken over programs, not over raw samples: a
    workload mixes a few program sizes, and a percentile of raw samples can
    fall between two sizes, where it jumps with the number of passes.
    """
    samples: dict[int, list[float]] = {}
    for p in passes:
        for i, v in getattr(p, attr).items():
            samples.setdefault(i, []).append(v)
    return {i: statistics.median(v) for i, v in samples.items()}


def run_workload(programs, seconds: float, refs: References, tracer: Tracer | None = None,
                 setup: SetupTimer | None = None, yard: Yardstick | None = None):
    """Untraced passes, or with ``tracer`` passes that run each program untraced and traced.

    ``setup`` is polled before each program and finished after the last
    pass; with ``yard`` every timed operation sits between two of its units
    and its time is scaled by theirs.
    """
    loop = Loop(programs, refs, compare_programs=tracer is not None, setup=setup, yard=yard)
    plain = PlainStages()
    traced = TracedStages(tracer) if tracer else None
    untraced_passes: list[PassResult] = []
    traced_passes: list[PassResult] = []
    min_passes = 1 if tracer else MIN_PASSES
    deadline = now() + seconds
    if tracer:
        # an untimed compile of each program first: the first compile of a
        # program in a process runs slower (fresh heap)
        for prog in programs:
            with contextlib.suppress(Exception):  # the timed passes report failures
                plain.compile(plain.build(prog)[1], prog.mode)
    while True:
        t = now()
        if tracer:
            # back to back per program, first one and then the other, so the
            # host's drift cancels out of the tracing overhead
            order = [plain, traced] if len(traced_passes) % 2 == 0 else [traced, plain]
            with tracer.span("pass"):
                results = loop.run_pass(order)
            for stages, res in zip(order, results):
                (traced_passes if stages is traced else untraced_passes).append(res)
        else:
            untraced_passes += loop.run_pass([plain])
        if len(untraced_passes) >= min_passes and now() + (now() - t) > deadline:
            break
    if setup:
        setup.finish()
    return loop, untraced_passes, traced_passes


def end_to_end(passes: list[PassResult], shot_counts: dict[int, int], setup: list[float]) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count)."""
    rows = list(program_medians(passes, "rows").values())
    verdicts = list(program_medians(passes, "verdicts").values())
    shots = program_medians(passes, "shots")
    shots_s = sum(shots.values())
    n = len(passes)
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, len(setup)),
        "compile_s": (sum(program_medians(passes, "compile").values()), n),
        "shots_per_s": (sum(shot_counts[i] for i in shots) / shots_s if shots_s else 0.0, n),
        "row_p50_s": (percentile(rows, 50), len(rows)),
        "row_p90_s": (percentile(rows, 90), len(rows)),
        "sweep_s": (sum(program_medians(passes, "wall").values()), n),
        "verdict_p50_s": (percentile(verdicts, 50), len(verdicts)),
        "verdict_p90_s": (percentile(verdicts, 90), len(verdicts)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


class SetupTimer:
    """Times set-up in fresh processes, the k-th one due at ``k * seconds / SETUP_RUNS``.

    Probes run between programs, never inside a timed call, and each is
    scaled by the yardstick like any timed operation.
    """

    def __init__(self, workload: str, seed: int, size: str, seconds: float, yard: Yardstick):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size]
        self.interval = seconds / SETUP_RUNS
        self.start = now()
        self.yard = yard
        self.times: list[float] = []

    def _probe(self) -> None:
        y = self.yard.unit_s()
        out = subprocess.run(self.argv, capture_output=True, text=True, check=True, timeout=120)
        k = self.yard.scale(y)
        self.times.append(float(out.stdout.strip().splitlines()[-1]) * k)

    def poll(self) -> None:
        """Runs every probe that is due by now."""
        while len(self.times) < SETUP_RUNS and now() >= self.start + len(self.times) * self.interval:
            self._probe()

    def finish(self) -> None:
        while len(self.times) < SETUP_RUNS:
            self._probe()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: small programs, for the self-test")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    programs = make_programs(args.workload, args.seed, args.size == "tiny")
    # the host's cores are fast or slow independently of each other, so the
    # yardstick must run on the core the timed calls and set-up probes run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    yard = None if args.trace else Yardstick()
    setup = None if args.trace else SetupTimer(args.workload, args.seed, args.size, args.seconds, yard)
    tracer = Tracer(f"{args.workload}-s{args.seed}-{uuid.uuid4().hex[:8]}") if args.trace else None
    loop, untraced, traced = run_workload(programs, args.seconds, References(), tracer, setup, yard)

    e2e = end_to_end(untraced, loop.shot_counts, setup.times if setup else [])
    if tracer:
        values = layer_metrics(tracer, [p.wall_s for p in untraced], [p.wall_s for p in traced])
        counts = {k: len(traced) for k in values}
        path = ROOT / ".bench_build" / "perfbench" / f"spans-{tracer.run_id}.json"
        tracer.write(path)
        stages_s, traced_s, compile_s = values["compile.stages_s"], values["compile.traced_s"], e2e["compile_s"][0]
        print(
            f"spans: {path.relative_to(ROOT)}\n"
            f"compile stages sum to {stages_s:.4f} s: {stages_s / traced_s:.2%} of the traced compile "
            f"({traced_s:.4f} s) and {stages_s / compile_s - 1:+.2%} against the untraced compile_s "
            f"({compile_s:.4f} s); trace_overhead_frac {values['trace_overhead_frac']:+.2%}"
        )
        wanted = spec["per_layer"]
    else:
        values = {k: v for k, (v, _n) in e2e.items()}
        counts = {k: n for k, (_v, n) in e2e.items()}
        wanted = spec["end_to_end"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes over {len(programs)} programs")
    if yard:
        print(f"yardstick: {len(yard.times)} units, median {statistics.median(yard.times) * 1e3:.3f} ms; "
              f"times below are scaled to {UNIT_S * 1e3:.3f} ms a unit")
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:34s} {values[name]:>14.6g} {unit:10s} n={counts[name]}")
    error_rate = loop.failed / max(loop.attempted, 1)
    print(f"  {'error_rate':34s} {error_rate:>14.6g} {'fraction':10s} {loop.failed}/{loop.attempted} operations failed")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
