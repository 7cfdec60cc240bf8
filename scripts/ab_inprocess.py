#!/usr/bin/env python3
"""Time one program on two source trees in one process, in alternating pairs.

Each tree's ``src/ionflow`` is imported under its own package name
(``ionflow_a`` and ``ionflow_b``), so both run in the same interpreter, on
the same host state, one right after the other. A pair times one call on
each side; the side that goes first alternates from pair to pair.

* ``--op run_shots``: each timed call is ``emulator.run_shots`` on a program
  compiled just before it, untimed, so the call also builds the program's
  runtime, as a benchmark row does.
* ``--op compile_text``: each timed call is ``toolchain.compile_text`` of the
  program's emitted text.

Every call gets the same inputs on both sides. The script prints each side's
median time, the median over pairs of the ratio B/A (below 1: B is faster)
and how many pairs B won. With ``--check`` it also refuses to time two trees
whose ``run_shots`` results differ. Times come from ``time.perf_counter``.

Run from the repository root, with the other tree checked out elsewhere:

    python3 scripts/ab_inprocess.py --a ../parent --b . --program msd-8-X \\
        --noise H1E_LIKE --shots 40 --pairs 76

A program is ``msd-LIMIT-BASIS``, ``rus-loop-LIMIT-BASIS`` or
``rus-recursion-LIMIT-BASIS``. ``--noise`` is ``NOISELESS``, ``H1E_LIKE`` or
a path to a noise-model JSON file.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SIDES = ("a", "b")


def load(root: Path, name: str):
    """``root/src/ionflow`` imported as the package ``name``; its modules import each other relatively."""
    init = root / "src" / "ionflow" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no {init}")
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:  # an earlier load's modules
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class Side:
    """One tree's library, and the program and noise model it times."""

    def __init__(self, root: Path, name: str, program: str, mode: str, noise: str):
        load(root, name)
        mod = {m: importlib.import_module(f"{name}.{m}") for m in ("emulator", "experiments", "textir", "toolchain")}
        self.emulator, self.toolchain = mod["emulator"], mod["toolchain"]
        self.source = mod["textir"].emit(build(mod["experiments"], program))
        self.mode = mode
        if noise in ("NOISELESS", "H1E_LIKE"):
            self.noise = getattr(self.emulator, noise)
        else:
            self.noise = self.emulator.NoiseModel.from_json(Path(noise).read_text())

    def compile(self):
        return self.toolchain.compile_text(self.source, mode=self.mode).program

    def shots(self, n_shots: int, seed: int) -> list:
        return self.emulator.run_shots(self.compile(), self.noise, n_shots, seed)

    def time(self, op: str, n_shots: int, seed: int) -> float:
        if op == "compile_text":
            t0 = time.perf_counter()
            self.compile()
            return time.perf_counter() - t0
        program = self.compile()
        t0 = time.perf_counter()
        self.emulator.run_shots(program, self.noise, n_shots, seed)
        return time.perf_counter() - t0


def build(experiments, program: str):
    """The module a program name stands for."""
    family, *rest = program.split("-")
    try:
        if family == "msd" and len(rest) == 2:
            return experiments.build_msd(experiments.MsdConfig(limit=int(rest[0]), basis=rest[1]))
        if family == "rus" and len(rest) == 3:
            cfg = experiments.RusConfig(limit=int(rest[1]), basis=rest[2], style=rest[0])
            return experiments.build_rus(cfg)
    except ValueError:
        pass
    raise SystemExit(f"error: bad program {program!r}")


def compare(times: dict[str, list[float]]) -> dict:
    """Each side's median, the median of the paired ratios B/A and B's wins."""
    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    return {
        "median_a": statistics.median(times["a"]),
        "median_b": statistics.median(times["b"]),
        "ratio": statistics.median(ratios),
        "wins_b": sum(r < 1.0 for r in ratios),
        "pairs": len(ratios),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", type=Path, required=True, help="root of tree A, the reference")
    ap.add_argument("--b", type=Path, default=Path("."), help="root of tree B (default: the current directory)")
    ap.add_argument("--program", required=True, help="msd-8-X, rus-loop-6-X, rus-recursion-5-X, ...")
    ap.add_argument("--op", choices=("run_shots", "compile_text"), default="run_shots")
    ap.add_argument("--mode", choices=("conditional", "always"), default="conditional")
    ap.add_argument("--noise", default="NOISELESS", help="NOISELESS, H1E_LIKE or a noise-model JSON file")
    ap.add_argument("--shots", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--check", action="store_true", help="first check that both sides give the same shots")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.shots < 1 or args.seed < 0:
        ap.error("--pairs and --shots must be at least 1 and --seed at least 0")
    roots = dict(zip(SIDES, (args.a, args.b)))
    sides = {s: Side(roots[s], f"ionflow_{s}", args.program, args.mode, args.noise) for s in SIDES}
    if args.check:
        got = {s: [tuple(vars(shot).values()) for shot in side.shots(args.shots, args.seed)] for s, side in sides.items()}
        if got["a"] != got["b"]:
            print("error: the two trees' shots differ", file=sys.stderr)
            return 1
    times: dict[str, list[float]] = {s: [] for s in SIDES}
    for k in range(args.pairs):
        for s in SIDES if k % 2 == 0 else SIDES[::-1]:
            times[s].append(sides[s].time(args.op, args.shots, args.seed))
    r = compare(times)
    print(f"{args.program} {args.mode} {args.noise} {args.op}, {args.shots} shots, {r['pairs']} pairs")
    print(f"A median {r['median_a'] * 1e3:.3f} ms, B median {r['median_b'] * 1e3:.3f} ms")
    print(f"paired median ratio B/A {r['ratio']:.3f}, B won {r['wins_b']}/{r['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
