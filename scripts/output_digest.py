#!/usr/bin/env python3
"""Print a sha256 digest of the compiler's output for every corpus program.

The corpus is MSD limits 0-8 and RUS loop limits 1-8 and recursion limits
1-7, each in every measurement basis, plus ``random_program`` seeds 0-299
and two hand-written flatten programs from ``tests/conftest.py``: a block
with two calls (``TWO_CALL_BLOCK``) and a continuation shared by both
returns (``CONTINUATION_DEF_USED_LATER``). Each program's digest covers, in
order:

* ``emit(fold_constants(m))``;
* ``emit(flatten(fold_constants(m)))``;
* ``compile_module(m, mode=...).program.to_json()`` in both transport modes;
* with ``--shots``, after each mode's JSON: ``run_shots`` of that program,
  300 shots (two ``SHOT_BATCH`` streams, the second one partly used) at
  seed 2024, under ``NOISELESS`` and then ``H1E_LIKE``. Every field of every
  ``ShotResult`` is hashed, so a change to the sampler's RNG streams or to
  any per-shot result shows.

where any step that raises contributes the exception's type and message
instead. One ``name digest`` line is printed per program. Without
``--shots`` the digests do not depend on the sampler at all.

Run from the repository root:

    PYTHONPATH=src python3 scripts/output_digest.py > before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --against before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --shots > shots-before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --shots --against shots-before.txt

``--shots`` takes about 30 s on a 2-core machine, against about 8 s
without it. To compare with an older commit that lacks the flag, run this
script with ``PYTHONPATH`` set to that commit's ``src``.

With ``--against FILE`` the digests are compared with FILE's; every program
that differs, or is missing from either side, is listed and the exit status
is 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import CONTINUATION_DEF_USED_LATER, TWO_CALL_BLOCK, random_program  # noqa: E402
from ionflow import passes, textir, toolchain  # noqa: E402
from ionflow.emulator import H1E_LIKE, NOISELESS, run_shots  # noqa: E402
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
    yield "flatten-two-call-block", lambda: textir.parse(TWO_CALL_BLOCK)
    yield "flatten-shared-continuation", lambda: textir.parse(CONTINUATION_DEF_USED_LATER)


SHOTS = 300
SHOT_SEED = 2024


def _outputs(m, shots: bool):
    yield lambda: textir.emit(passes.fold_constants(m))
    yield lambda: textir.emit(passes.flatten(passes.fold_constants(m)))
    for mode in (CONDITIONAL, ALWAYS):
        program = functools.cache(lambda mode=mode: toolchain.compile_module(m, mode=mode).program)
        yield lambda program=program: program().to_json()
        for noise in (NOISELESS, H1E_LIKE) if shots else ():
            yield lambda program=program, noise=noise: repr(run_shots(program(), noise, SHOTS, SHOT_SEED))


def digest(build, shots: bool = False) -> str:
    h = hashlib.sha256()
    for output in _outputs(build(), shots):
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
    ap.add_argument("--shots", action="store_true", help="also hash sampled shots, noiseless and H1E_LIKE")
    args = ap.parse_args(argv)
    digests = {name: digest(build, args.shots) for name, build in corpus()}
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
