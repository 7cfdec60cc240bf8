#!/usr/bin/env python3
"""Time programs on two source trees in one process, in alternating pairs.

Each tree's ``src/ionflow`` is imported under its own package name
(``ionflow_a`` and ``ionflow_b``), so both run in the same interpreter, on
the same host state, one right after the other. A pair times one call on
each side; the side that goes first alternates from pair to pair. A call
runs every program of ``--program``, a comma list, in its order:

* ``--op run_shots``: ``emulator.run_shots`` on each program, all of them
  compiled just before, untimed, so the call also builds each program's
  runtime, as a benchmark row does. A list of distinct programs measures
  what one build leaves cached for the next, as a sweep sees it.
* ``--op compile_text``: ``toolchain.compile_text`` of each program's
  emitted text.
* ``--op parse``: ``textir.parse`` of each program's emitted text.

Every call gets the same inputs on both sides. The script prints each side's
median time, the median over pairs of the ratio B/A (below 1: B is faster)
and how many pairs B won. With ``--check`` it first refuses to time two
trees whose outputs for the timed op differ: under ``run_shots`` their
shots, under ``compile_text`` each program's JSON, block count and colors,
under ``parse`` each parsed program emitted again.
Times come from ``time.perf_counter``.

Run from the repository root, with the other tree checked out elsewhere:

    python3 scripts/ab_inprocess.py --a ../parent --b . --program msd-8-X \\
        --noise H1E_LIKE --shots 40 --pairs 76
    python3 scripts/ab_inprocess.py --a ../parent --b . --noise H1E_LIKE \\
        --program msd-0-X,msd-1-X,msd-2-X,msd-3-X,msd-4-X,msd-5-X,msd-6-X,msd-7-X,msd-8-X

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
    """One tree's library, and the programs (a comma list) and noise model it times."""

    def __init__(self, root: Path, name: str, program: str, mode: str, noise: str):
        load(root, name)
        mod = {m: importlib.import_module(f"{name}.{m}") for m in ("emulator", "experiments", "textir", "toolchain")}
        self.emulator, self.textir, self.toolchain = mod["emulator"], mod["textir"], mod["toolchain"]
        self.source = tuple(mod["textir"].emit(build(mod["experiments"], p)) for p in program.split(","))
        self.mode = mode
        if noise in ("NOISELESS", "H1E_LIKE"):
            self.noise = getattr(self.emulator, noise)
        else:
            self.noise = self.emulator.NoiseModel.from_json(Path(noise).read_text())

    def compile(self) -> list:
        return [self.toolchain.compile_text(text, mode=self.mode) for text in self.source]

    def compiled(self) -> list:
        """What ``--check`` compares under ``compile_text``: each program's JSON, block count and colors."""
        return [(res.program.to_json(), res.block_count, res.colors_used) for res in self.compile()]

    def parse(self) -> list:
        return [self.textir.parse(text) for text in self.source]

    def parsed(self) -> list[str]:
        """What ``--check`` compares under ``parse``: each parsed program, emitted again."""
        return [self.textir.emit(module) for module in self.parse()]

    def shots(self, n_shots: int, seed: int) -> list:
        return [shot for res in self.compile() for shot in self.emulator.run_shots(res.program, self.noise, n_shots, seed)]

    def time(self, op: str, n_shots: int, seed: int) -> float:
        if op in ("compile_text", "parse"):
            call = self.compile if op == "compile_text" else self.parse
            t0 = time.perf_counter()
            call()
            return time.perf_counter() - t0
        programs = [res.program for res in self.compile()]
        t0 = time.perf_counter()
        for program in programs:
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
    ap.add_argument("--program", required=True, help="msd-8-X, rus-loop-6-X, rus-recursion-5-X, ..., or a comma list")
    ap.add_argument("--op", choices=("run_shots", "compile_text", "parse"), default="run_shots")
    ap.add_argument("--mode", choices=("conditional", "always"), default="conditional")
    ap.add_argument("--noise", default="NOISELESS", help="NOISELESS, H1E_LIKE or a noise-model JSON file")
    ap.add_argument("--shots", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--check", action="store_true", help="first check that both sides give the same outputs for --op")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.shots < 1 or args.seed < 0:
        ap.error("--pairs and --shots must be at least 1 and --seed at least 0")
    roots = dict(zip(SIDES, (args.a, args.b)))
    sides = {s: Side(roots[s], f"ionflow_{s}", args.program, args.mode, args.noise) for s in SIDES}
    if args.check:
        if args.op == "compile_text":
            what, got = "compiled programs", {s: side.compiled() for s, side in sides.items()}
        elif args.op == "parse":
            what, got = "parsed programs", {s: side.parsed() for s, side in sides.items()}
        else:
            what = "shots"
            got = {s: [tuple(vars(shot).values()) for shot in side.shots(args.shots, args.seed)] for s, side in sides.items()}
        if got["a"] != got["b"]:
            print(f"error: the two trees' {what} differ", file=sys.stderr)
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
