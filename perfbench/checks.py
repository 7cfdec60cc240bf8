"""Independent reference checks on ionflow's outputs.

The closed forms come from the paper's circuits, not from ionflow: an MSD
round heralds with probability 1/6 and its heralded output has expectation
1/sqrt(3) in every basis; an RUS attempt fails with probability 3/8 and a
success always leaves the target in its prepared state. Sampled values are
judged by an exact binomial tail at ``TAIL``, the one-sided tail of a
6-sigma normal bound. The exact tail is used because the normal
approximation breaks down near 0 and 1, where the RUS rows sit.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TAIL = 1e-9
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class References:
    msd_round_success: float = 1.0 / 6.0
    rus_attempt_failure: float = 0.375
    magic_expectation: float = 1.0 / math.sqrt(3.0)

    def success_probability(self, family: str, limit: int) -> float:
        if family == "rus":
            return 1.0 - self.rus_attempt_failure**limit
        if limit == 0:  # no heralding round: every shot counts
            return 1.0
        return 1.0 - (1.0 - self.msd_round_success) ** limit


def binomial_plausible(k: int, n: int, p: float, tail: float = TAIL) -> bool:
    """False when k successes in n trials lie in a tail of probability below ``tail``."""
    if p <= 0.0:
        return k == 0
    if p >= 1.0:
        return k == n
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(i: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)

    lower = math.fsum(pmf(i) for i in range(0, k + 1))
    upper = math.fsum(pmf(i) for i in range(k, n + 1))
    return min(lower, upper) >= tail


def check_noiseless_row(prog, report, refs: References) -> list[str]:
    problems = []
    if report.shots != prog.shots:
        problems.append(f"{report.shots} shots reported, {prog.shots} asked")
    p = refs.success_probability(prog.family, prog.limit)
    if not binomial_plausible(report.success_count, report.shots, p):
        problems.append(f"success {report.success_count}/{report.shots} implausible for p={p:.6f}")
    if prog.family == "rus":
        if report.survival != 1.0:
            problems.append(f"survival {report.survival} != 1.0")
    else:
        exp = {"X": report.exp_x, "Y": report.exp_y, "Z": report.exp_z}[prog.basis]
        if exp is not None:  # None only when nothing heralded, which the success check judges
            zeros = round((1.0 + exp) * report.success_count / 2.0)
            p0 = (1.0 + refs.magic_expectation) / 2.0
            if not binomial_plausible(zeros, report.success_count, p0):
                problems.append(f"expectation {exp:.4f} over {report.success_count} implausible")
    return problems


def check_repeat_row(report, first) -> list[str]:
    """Noisy rows have no reference value: the same seed must give the same row."""
    return [] if report == first else [f"row differs from the first pass with the same seed: {report} vs {first}"]


def _decode(outputs: tuple, family: str, limit: int) -> tuple[bool, int]:
    """(success, final bit) from one output record, decoded independently of ionflow."""
    bits = [b for b in outputs if isinstance(b, int)]
    if family == "rus":  # (m0, m1, final)
        return bits[0] == 0 and bits[1] == 0, bits[2]
    if limit == 0:  # [final]
        return True, bits[0]
    return all(b == 0 for b in bits[:4]), bits[4]  # [syndrome x4, final]


def check_exact(prog, dists: dict[str, dict], refs: References) -> list[str]:
    """The enumerators agree with each other and with the closed forms."""
    problems = []
    names = list(dists)
    base = dists[names[0]]
    for name in names:
        dist = dists[name]
        total = math.fsum(dist.values())
        if abs(total - 1.0) > EXACT_TOL:
            problems.append(f"{name} sums to {total}")
        gap = max(abs(dist.get(k, 0.0) - base.get(k, 0.0)) for k in set(dist) | set(base))
        if gap > EXACT_TOL:
            problems.append(f"{name} differs from {names[0]} by {gap:.3e}")
    succ = zero = 0.0
    for outputs, p in base.items():
        ok, final = _decode(outputs, prog.family, prog.limit)
        if ok:
            succ += p
            zero += p if final == 0 else 0.0
    want = refs.success_probability(prog.family, prog.limit)
    if abs(succ - want) > EXACT_TOL:
        problems.append(f"exact success {succ:.12f} != {want:.12f}")
    if succ > 0.0:
        exp = (2.0 * zero - succ) / succ
        want_exp = 1.0 if prog.family == "rus" else refs.magic_expectation
        if abs(exp - want_exp) > EXACT_TOL:
            problems.append(f"exact heralded expectation {exp:.12f} != {want_exp:.12f}")
    return problems


def check_sampled_against_exact(shots: list, dist: dict) -> list[str]:
    """Every sampled record is possible, and each record's count is plausible."""
    counts: dict[tuple, int] = {}
    for s in shots:
        counts[s.outputs] = counts.get(s.outputs, 0) + 1
    problems = [f"sampled {k} has exact probability 0" for k in counts if k not in dist]
    n = len(shots)
    for k, p in dist.items():
        if not binomial_plausible(counts.get(k, 0), n, p):
            problems.append(f"{k} sampled {counts.get(k, 0)}/{n}, exact p={p:.6f}")
    return problems
