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
  seed 2024, under ``NOISELESS`` and then ``H1E_LIKE``. Each shot is hashed
  as the tuple of its ``SHOT_FIELDS``, read by name, so a change to the
  sampler's RNG streams or to any per-shot result shows. For the MSD and
  RUS programs the ``summarize`` report row of those shots follows, so a
  change to the table's statistics shows too.

where any step that raises contributes the exception's type and message
instead. One ``name digest`` line is printed per program. Without
``--shots`` the digests do not depend on the sampler at all.

Run from the repository root:

    PYTHONPATH=src python3 scripts/output_digest.py > before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --against before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --shots > shots-before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --shots --against shots-before.txt

``--shots`` takes about 30 s on a 2-core machine, against about 8 s
without it. To compare with an older commit, run this script with
``PYTHONPATH`` set to that commit's ``src``: it reads only the shot fields
and library calls that commit also has.

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
from ionflow.experiments import BASES, MsdConfig, RusConfig, build_msd, build_rus, summarize  # noqa: E402
from ionflow.qccd import ALWAYS, CONDITIONAL  # noqa: E402


def corpus():
    """(name, module builder, MSD/RUS config or None) for every corpus program, in a fixed order."""
    for basis in BASES:
        for limit in range(9):
            cfg = MsdConfig(limit, basis)
            yield f"msd-{limit}-{basis}", lambda c=cfg: build_msd(c), cfg
        for style, limits in (("loop", range(1, 9)), ("recursion", range(1, 8))):
            for limit in limits:
                cfg = RusConfig(limit, basis, style)
                yield f"rus-{style}-{limit}-{basis}", lambda c=cfg: build_rus(c), cfg
    for seed in range(300):
        yield f"random-{seed}", lambda s=seed: random_program(s), None
    yield "flatten-two-call-block", lambda: textir.parse(TWO_CALL_BLOCK), None
    yield "flatten-shared-continuation", lambda: textir.parse(CONTINUATION_DEF_USED_LATER), None


SHOTS = 300
SHOT_SEED = 2024
SHOT_FIELDS = ("outputs", "executed_transport_steps", "executed_gates", "skipped_blocks", "measures_per_qubit")


def _sampled(res, noise, cfg) -> str:
    """The kept fields of each shot, then for an MSD/RUS program its report row."""
    shots = run_shots(res.program, noise, SHOTS, SHOT_SEED)
    text = repr([tuple(getattr(s, f) for f in SHOT_FIELDS) for s in shots])
    if cfg is None:
        return text
    experiment, style = ("msd", "") if isinstance(cfg, MsdConfig) else ("rus", cfg.style)
    return text + "\n" + repr(summarize(shots, experiment, cfg.basis, cfg.limit, style, res.block_count, res.colors_used))


def _outputs(m, cfg, shots: bool):
    yield lambda: textir.emit(passes.fold_constants(m))
    yield lambda: textir.emit(passes.flatten(passes.fold_constants(m)))
    for mode in (CONDITIONAL, ALWAYS):
        compiled = functools.cache(lambda mode=mode: toolchain.compile_module(m, mode=mode))
        yield lambda compiled=compiled: compiled().program.to_json()
        for noise in (NOISELESS, H1E_LIKE) if shots else ():
            yield lambda compiled=compiled, noise=noise: _sampled(compiled(), noise, cfg)


def digest(build, cfg=None, shots: bool = False) -> str:
    h = hashlib.sha256()
    for output in _outputs(build(), cfg, shots):
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
    digests = {name: digest(build, cfg, args.shots) for name, build, cfg in corpus()}
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
