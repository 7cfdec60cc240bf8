"""The benchmark's workloads: which programs a run feeds to ionflow.

Every workload is a list of programs. Each program goes through the same
closed loop: build its source text, compile it, and then either sample it
into a report row, cross-check it exactly, or both. The workloads differ
in their program mix, so each one loads different layers:

* ``rus-recursion-5``: a recursion-style RUS program (218 blocks). Compile
  is most of the time, and each shot walks many guarded-off items. The
  family is cross-checked exactly at limit 4.
* ``msd-8-noisy``: MSD limit 8 under the synthetic ``H1E_LIKE`` noise. It
  compiles in tens of milliseconds, so sampling with per-gate noise draws
  dominates and the compiler is bypassed. ``H1E_LIKE`` is not device
  data, so the noisy rows have no reference value; they are checked for
  determinism instead, and MSD limits 1-2 in every basis are checked
  exactly.
* ``table-sweep``: a slice of the paper's table shaped like
  ``scripts/run_experiments.py``: MSD limits 0-8 and RUS loop limits 1-6
  and recursion limits 1-5 in both transport modes, the rows taking the
  bases X, Y and Z in turn (31 rows). Costs paid once per row dominate, and
  ``always`` transport runs only here and in ``exact-verify``.
* ``exact-verify``: MSD 0-2, RUS loop 1-7 and RUS recursion 1-5,
  cross-checked by the three exact enumerators; the programs take the six
  pairs of basis and transport mode in turn.

Every timed call is kept under about half a second (see ``yardstick.py``):
the benchmark scales each call by the host's speed just before and after
it, which only works while the host's state holds for the whole call. This
caps the sizes: RUS recursion 6 compiles in about 0.5 s and recursion 8 in
about 5 s; RUS loop 8 and MSD-3 take about 0.7 s and 3 s to enumerate.

The seed fixes every input: it sets the shot seed of every program. The
programs themselves are the same under every seed. A Z-basis program
verifies about a quarter faster than an X-basis one, so a seed that picked
bases would move the percentiles with the seed, not with the code. Every
pass of a run repeats the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ionflow.emulator import H1E_LIKE, NOISELESS, NoiseModel
from ionflow.experiments import BASES, MsdConfig, RusConfig, build_msd, build_rus
from ionflow.qccd import ALWAYS, CONDITIONAL

MODES = (CONDITIONAL, ALWAYS)
PAIRS = [(basis, mode) for basis in BASES for mode in MODES]


@dataclass(frozen=True)
class Program:
    family: str  # "msd" or "rus"
    style: str  # "" for msd, "loop" or "recursion" for rus
    limit: int
    basis: str
    mode: str
    noise: NoiseModel
    shots: int  # 0: no report row
    shot_seed: int
    verify: bool  # cross-check with the three exact enumerators

    @property
    def name(self) -> str:
        style = f"-{self.style}" if self.style else ""
        noisy = "" if self.noise.is_noiseless else "-noisy"
        return f"{self.family}{style}-{self.limit}-{self.basis}-{self.mode}{noisy}"

    def build(self):
        """The module the builder makes; the toolchain gets its emitted text."""
        if self.family == "msd":
            return build_msd(MsdConfig(limit=self.limit, basis=self.basis))
        return build_rus(RusConfig(limit=self.limit, basis=self.basis, style=self.style))


def _program(rng: random.Random, family, style, limit, basis, mode=CONDITIONAL, noise=NOISELESS, shots=0, verify=False):
    return Program(family, style, limit, basis, mode, noise, shots, rng.randrange(2**31), verify)


def rus_recursion_5(rng: random.Random, tiny: bool) -> list[Program]:
    limit, verify_limit, shots = (2, 1, 20) if tiny else (5, 4, 200)
    return [
        _program(rng, "rus", "recursion", limit, "X", shots=shots),
        _program(rng, "rus", "recursion", verify_limit, "X", verify=True),
    ]


def msd_8_noisy(rng: random.Random, tiny: bool) -> list[Program]:
    # several short rows with their own shot seeds: how many noise events a
    # shot draws, and so its cost, depends on the seed
    limit, rows, shots = (2, 2, 20) if tiny else (8, 6, 40)
    return [
        *(_program(rng, "msd", "", limit, "X", noise=H1E_LIKE, shots=shots) for _ in range(rows)),
        *(_program(rng, "msd", "", lim, basis, verify=True) for lim in (1, 2) for basis in BASES),
    ]


def table_sweep(rng: random.Random, tiny: bool) -> list[Program]:
    # verdicts on MSD <= 1 and RUS <= 2: MSD-2 would be the slowest 9% of
    # verdicts, putting their 90th percentile on the edge of its cluster
    msd_max, loop_max, rec_max, shots = (1, 1, 1, 20) if tiny else (8, 6, 5, 50)
    out = []
    for limit in range(0, msd_max + 1):
        out.append(_program(rng, "msd", "", limit, BASES[len(out) % 3], shots=shots, verify=limit <= 1))
    for style, rus_max in (("loop", loop_max), ("recursion", rec_max)):
        for limit in range(1, rus_max + 1):
            for mode in MODES:
                out.append(_program(rng, "rus", style, limit, BASES[len(out) % 3], mode, shots=shots, verify=limit <= 2))
    return out


def exact_verify(rng: random.Random, tiny: bool) -> list[Program]:
    # every path of these stays within the default 20 branch events
    families = (("msd", "", 1, 1), ("rus", "loop", 1, 2), ("rus", "recursion", 1, 2)) if tiny else (
        ("msd", "", 0, 2),
        ("rus", "loop", 1, 7),
        ("rus", "recursion", 1, 5),
    )
    shots = 20 if tiny else 50
    out = []
    for family, style, lo, hi in families:
        for limit in range(lo, hi + 1):
            basis, mode = PAIRS[len(out) % len(PAIRS)]
            out.append(_program(rng, family, style, limit, basis, mode, shots=shots, verify=True))
    return out


WORKLOADS = {
    "rus-recursion-5": rus_recursion_5,
    "msd-8-noisy": msd_8_noisy,
    "table-sweep": table_sweep,
    "exact-verify": exact_verify,
}


def make_programs(workload: str, seed: int, tiny: bool = False) -> list[Program]:
    return WORKLOADS[workload](random.Random(seed), tiny)
