#!/usr/bin/env python3
"""Compare the emulator's exact leaves with another checkout's, leaf by leaf.

For every program of ``output_digest.py``'s corpus, in both transport
modes, ``enumerate_exec_leaves`` of the compiled program runs here and, in
a subprocess, on the other checkout's ``src``; the corpus is this
checkout's on both sides. Each program must give the same number of leaves,
in the same order, with the same outputs and executed transport steps, or
raise the same error on both sides. Probabilities and amplitudes may differ
in their last bits, since fusing gate layers into other matrices rounds
differently. The report gives the number of programs and leaves whose
probability or state differs at all, and the largest |Δprob| and
|Δamplitude|. The exit status is 1 on any structural difference or on a Δ
above ``TOL``.

Run from the repository root, with the other commit checked out elsewhere:

    PYTHONPATH=src python3 scripts/leaf_diff.py ../parent

Each side takes about 20 s on a 2-core machine; the two run at once, and
only one program's leaves at a time are held on each side.
"""

from __future__ import annotations

import argparse
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import corpus  # noqa: E402

TOL = 1e-12
MODES = ("conditional", "always")


def program_leaves(build, trap) -> list:
    """Per transport mode: the leaves as (probs, outputs, steps, states), or the error's text."""
    from ionflow.emulator import enumerate_exec_leaves
    from ionflow.toolchain import compile_module

    m = build()
    out = []
    for mode in MODES:
        try:
            leaves = enumerate_exec_leaves(compile_module(m, trap, mode=mode).program)
        except Exception as e:  # an error is part of the output being compared
            out.append(f"raised {type(e).__name__}: {e}")
            continue
        out.append((
            np.array([leaf.prob for leaf in leaves]),
            [leaf.outputs for leaf in leaves],
            [leaf.executed_transport_steps for leaf in leaves],
            np.array([leaf.state for leaf in leaves]),
        ))
    return out


def records():
    """``(name, program_leaves)`` for every corpus program, in order."""
    for name, build, _cfg, trap in corpus():
        yield name, program_leaves(build, trap)


def _theirs(root: Path):
    """The other checkout's records, streamed from a subprocess that runs this script with its ``src``."""
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src")}
    with subprocess.Popen([sys.executable, __file__, "--dump"], stdout=subprocess.PIPE, env=env) as proc:
        try:
            while True:
                yield pickle.load(proc.stdout)
        except EOFError:
            pass
    if proc.returncode:
        raise SystemExit(f"the other checkout's run exited with status {proc.returncode}")


def compare(ours, theirs) -> dict:
    """Compare two record streams; ``structural`` lists every difference that is not in the last bits."""
    report = {"programs": 0, "leaves": 0, "programs_differ": 0, "leaves_differ": 0,
              "max_dprob": 0.0, "max_damp": 0.0, "structural": []}
    for (name, mine), (other_name, other) in itertools.zip_longest(ours, theirs, fillvalue=(None, None)):
        if name != other_name:  # None: that side has no more programs
            report["structural"].append(f"program {name} here, {other_name} on the other side")
            continue
        report["programs"] += 1
        differ = 0
        for mode, a, b in zip(MODES, mine, other, strict=True):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    report["structural"].append(f"{name} {mode}: {_what(a)} against {_what(b)}")
                continue
            (pa, oa, ta, sa), (pb, ob, tb, sb) = a, b
            if oa != ob or ta != tb or sa.shape != sb.shape:
                report["structural"].append(f"{name} {mode}: leaf count, order, outputs or transport steps differ")
                continue
            report["leaves"] += len(pa)
            differ += int(np.count_nonzero((pa != pb) | (sa != sb).any(1)))
            report["max_dprob"] = max(report["max_dprob"], float(np.abs(pa - pb).max()))
            report["max_damp"] = max(report["max_damp"], float(np.abs(sa - sb).max()))
        report["leaves_differ"] += differ
        report["programs_differ"] += differ > 0
    return report


def _what(side) -> str:
    return side if isinstance(side, str) else f"{len(side[0])} leaves"


def verdict(report: dict) -> int:
    """Print the report; 1 on a structural difference or a Δ above TOL."""
    print(f"{report['programs']} programs, {report['programs_differ']} differ; "
          f"{report['leaves']} leaves, {report['leaves_differ']} differ; "
          f"max |Δprob| {report['max_dprob']:.3g}, max |Δamplitude| {report['max_damp']:.3g}")
    for line in report["structural"]:
        print(f"structural: {line}")
    return 1 if report["structural"] or max(report["max_dprob"], report["max_damp"]) > TOL else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other", type=Path, nargs="?", help="root of the other checkout")
    ap.add_argument("--dump", action="store_true", help="write this side's records to stdout as pickles")
    args = ap.parse_args(argv)
    if args.dump:
        for record in records():
            pickle.dump(record, sys.stdout.buffer)
        return 0
    if args.other is None:
        ap.error("the other checkout's root is required")
    return verdict(compare(records(), _theirs(args.other)))


if __name__ == "__main__":
    sys.exit(main())
