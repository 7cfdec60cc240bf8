#!/usr/bin/env python3
"""Print a sha256 digest of the compiler's output for every corpus program.

The corpus is MSD limits 0-8 and RUS loop limits 1-8 and recursion limits
1-7, each in every measurement basis, plus ``random_program`` seeds 0-299
from ``tests/conftest.py``. Each program's digest covers, in order:

* ``emit(fold_constants(m))``;
* ``emit(flatten(fold_constants(m)))``;
* ``compile_module(m, mode=...).program.to_json()`` in both transport modes;

where any step that raises contributes the exception's type and message
instead. One ``name digest`` line is printed per program.

Run from the repository root:

    PYTHONPATH=src python3 scripts/output_digest.py > before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --against before.txt

With ``--against FILE`` the digests are compared with FILE's; every program
that differs, or is missing from either side, is listed and the exit status
is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_program  # noqa: E402
from ionflow import passes, textir, toolchain  # noqa: E402
from ionflow.experiments import BASES, MsdConfig, RusConfig, build_msd, build_rus  # noqa: E402
from ionflow.qccd import ALWAYS, CONDITIONAL  # noqa: E402


def corpus():
    """(name, module builder) for every corpus program, in a fixed order."""
    for basis in BASES:
        for limit in range(9):
            yield f"msd-{limit}-{basis}", lambda c=MsdConfig(limit, basis): build_msd(c)
        for limit in range(1, 9):
            yield f"rus-loop-{limit}-{basis}", lambda c=RusConfig(limit, basis, "loop"): build_rus(c)
        for limit in range(1, 8):
            yield f"rus-recursion-{limit}-{basis}", lambda c=RusConfig(limit, basis, "recursion"): build_rus(c)
    for seed in range(300):
        yield f"random-{seed}", lambda s=seed: random_program(s)


def _outputs(m):
    yield lambda: textir.emit(passes.fold_constants(m))
    yield lambda: textir.emit(passes.flatten(passes.fold_constants(m)))
    for mode in (CONDITIONAL, ALWAYS):
        yield lambda mode=mode: toolchain.compile_module(m, mode=mode).program.to_json()


def digest(build) -> str:
    h = hashlib.sha256()
    for output in _outputs(build()):
        try:
            text = output()
        except Exception as e:  # a raised error is part of the output being compared
            text = f"raised {type(e).__name__}: {e}"
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", type=Path, help="digest file to compare with; exit 1 on any difference")
    args = ap.parse_args(argv)
    digests = {name: digest(build) for name, build in corpus()}
    if args.against is None:
        for name, d in digests.items():
            print(name, d)
        return 0
    old = dict(line.split() for line in args.against.read_text().splitlines() if line.strip())
    differ = [name for name in {**old, **digests} if old.get(name) != digests.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(digests)} programs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
