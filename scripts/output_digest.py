#!/usr/bin/env python3
"""Print a sha256 digest of the compiler's output for every corpus program.

The corpus is MSD limits 0-8 and RUS loop limits 1-8 and recursion limits
1-7, each in every measurement basis, plus ``random_program`` seeds 0-299
and two hand-written flatten programs from ``tests/conftest.py``: a block
with two calls (``TWO_CALL_BLOCK``) and a continuation shared by both
returns (``CONTINUATION_DEF_USED_LATER``). Last come MSD limits 0-2 and RUS
loop limits 1-3 in every basis on ``WIDE_TRAP``, a 12-slot trap, which is
wider than ``qccd.BFS_EXACT_LIMIT``, so its transport is planned by odd-even
routing; the other programs compile for their default trap. Last of all
come the 20 ``random_program(seed, n_qubits=8, max_branches=3)`` of seeds
0-59 with more than ``emulator.MATRIX_QUBITS`` qubits, which the emulator
runs gate by gate instead of as one matrix per run of layers. Each
program's digest covers, in order:

* ``emit(fold_constants(m))``;
* ``emit(flatten(fold_constants(m)))``;
* with ``--exact``: ``enumerate_module_leaves(m)``;
* ``compile_module(m, trap, mode=...).program.to_json()`` in both transport
  modes;
* with ``--shots``, after each mode's JSON: ``run_shots`` of that program,
  300 shots (two ``SHOT_BATCH`` streams, the second one partly used) at
  seed 2024, under ``NOISELESS`` and then ``H1E_LIKE``. Each shot is hashed
  as the tuple of its ``SHOT_FIELDS``, read by name, so a change to the
  sampler's RNG streams or to any per-shot result shows. For the MSD and
  RUS programs the ``summarize`` report row of those shots follows, so a
  change to the table's statistics shows too;
* with ``--exact``, after that: ``enumerate_guarded_leaves`` of the mode's
  register-rewritten guarded form, then ``enumerate_exec_leaves`` of its
  program. Each leaf, of these and of the module, is hashed as its
  probability's ``float.hex``, its outputs, its result slots (oracle) or
  executed transport steps (emulator), and a sha256 of its state's bytes,
  so the leaves must agree bit for bit and in order.

where any step that raises contributes the exception's type and message
instead. One ``name digest`` line is printed per program. Without
``--shots`` the digests do not depend on the sampler at all, and without
``--exact`` not on exact enumeration.

Run from the repository root:

    PYTHONPATH=src python3 scripts/output_digest.py > before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --against before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --shots > shots-before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --shots --against shots-before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --exact > exact-before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --exact --against exact-before.txt

On a 2-core machine the 412 digests take about 9 s, about 25 s with
``--shots`` and about 90 s with ``--exact`` (the wide-register slice adds
1-2 s to each), most of which is the three enumerations of each MSD limit
4 program (108,482 leaves each); MSD limits 5-8 stop at
``MAX_BRANCH_EVENTS`` and hash the error. To compare with an older commit,
run this script with ``PYTHONPATH`` set to that commit's ``src``: it reads
only shot fields and library names that every commit since
``emulator.MATRIX_QUBITS`` was added also has.

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
from ionflow import oracle, passes, textir, toolchain  # noqa: E402
from ionflow.emulator import H1E_LIKE, MATRIX_QUBITS, NOISELESS, enumerate_exec_leaves, run_shots  # noqa: E402
from ionflow.experiments import BASES, MsdConfig, RusConfig, build_msd, build_rus, summarize  # noqa: E402
from ionflow.qccd import ALWAYS, CONDITIONAL, TrapLayout  # noqa: E402

WIDE_TRAP = TrapLayout(12, ((0, 1), (6, 7)))


def corpus():
    """(name, module builder, MSD/RUS config or None, trap or None) for every
    corpus program, in a fixed order; a None trap is the default one."""
    for basis in BASES:
        for limit in range(9):
            cfg = MsdConfig(limit, basis)
            yield f"msd-{limit}-{basis}", lambda c=cfg: build_msd(c), cfg, None
        for style, limits in (("loop", range(1, 9)), ("recursion", range(1, 8))):
            for limit in limits:
                cfg = RusConfig(limit, basis, style)
                yield f"rus-{style}-{limit}-{basis}", lambda c=cfg: build_rus(c), cfg, None
    for seed in range(300):
        yield f"random-{seed}", lambda s=seed: random_program(s), None, None
    yield "flatten-two-call-block", lambda: textir.parse(TWO_CALL_BLOCK), None, None
    yield "flatten-shared-continuation", lambda: textir.parse(CONTINUATION_DEF_USED_LATER), None, None
    for basis in BASES:
        for limit in range(3):
            cfg = MsdConfig(limit, basis)
            yield f"wide-msd-{limit}-{basis}", lambda c=cfg: build_msd(c), cfg, WIDE_TRAP
        for limit in range(1, 4):
            cfg = RusConfig(limit, basis, "loop")
            yield f"wide-rus-loop-{limit}-{basis}", lambda c=cfg: build_rus(c), cfg, WIDE_TRAP
    for seed in range(60):
        if random_program(seed, n_qubits=8, max_branches=3).required_qubits > MATRIX_QUBITS:
            yield f"wide-register-{seed}", lambda s=seed: random_program(s, n_qubits=8, max_branches=3), None, None


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


def _leaves(leaves, field: str) -> str:
    """One line per leaf: probability, outputs, its ``field`` and a sha256 of its state."""
    return "\n".join(
        f"{leaf.prob.hex()} {leaf.outputs!r} {getattr(leaf, field)!r} {hashlib.sha256(leaf.state.tobytes()).hexdigest()}"
        for leaf in leaves
    )


def _guarded_leaves(res) -> str:
    m = res.module
    return _leaves(oracle.enumerate_guarded_leaves(res.guarded, m.required_qubits, m.required_results), "slots")


def _outputs(m, cfg, trap, shots: bool, exact: bool):
    yield lambda: textir.emit(passes.fold_constants(m))
    yield lambda: textir.emit(passes.flatten(passes.fold_constants(m)))
    if exact:
        yield lambda: _leaves(oracle.enumerate_module_leaves(m), "slots")
    for mode in (CONDITIONAL, ALWAYS):
        compiled = functools.cache(lambda mode=mode: toolchain.compile_module(m, trap, mode=mode))
        yield lambda compiled=compiled: compiled().program.to_json()
        for noise in (NOISELESS, H1E_LIKE) if shots else ():
            yield lambda compiled=compiled, noise=noise: _sampled(compiled(), noise, cfg)
        if exact:
            yield lambda compiled=compiled: _guarded_leaves(compiled())
            yield lambda compiled=compiled: _leaves(enumerate_exec_leaves(compiled().program), "executed_transport_steps")


def digest(build, cfg=None, trap=None, shots: bool = False, exact: bool = False) -> str:
    h = hashlib.sha256()
    for output in _outputs(build(), cfg, trap, shots, exact):
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
    ap.add_argument("--exact", action="store_true", help="also hash the exact leaves of the oracle and the emulator")
    args = ap.parse_args(argv)
    digests = {name: digest(build, cfg, trap, args.shots, args.exact) for name, build, cfg, trap in corpus()}
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
