"""Shared test helpers: a seeded generator of small structured programs.

Programs are acyclic by construction (nested/sequential measure-and-branch
diamonds), stay within 3 qubits and a handful of measurements, and end by
recording every result slot, so exact output distributions are cheap to
enumerate and compare across compilation stages.

With ``or_joins``, the then-arm of a diamond without phis measures once
more and branches to the merge or into the else-arm. The else-arm is then
an OR join of two arms that are not complements of each other: the
branch's false arm and the then-arm's second branch. Without it the
generator draws exactly what it always drew, so ``random_program(seed)``
is unchanged.
"""

from __future__ import annotations

import math
import random

from ionflow import textir
from ionflow.ir import Module

ANGLES = (math.pi / 4, math.pi / 2, 0.7, 2.214297435588181, 1.1071487177940904)
ONE_QUBIT_GATES = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")


class _Gen:
    def __init__(
        self, rng: random.Random, n_qubits: int, max_gates: int, max_branches: int, max_measures: int, or_joins: bool
    ):
        self.rng = rng
        self.or_joins = or_joins
        self.n_qubits = n_qubits
        self.gates_left = rng.randint(max(1, max_gates // 2), max_gates)
        self.branches_left = rng.randint(0, max_branches)
        self.measures_left = max_measures
        self.lines: list[str] = []
        self.label_n = 0
        self.vreg_n = 0
        self.slot_n = 0

    def fresh_label(self, stem: str) -> str:
        self.label_n += 1
        return f"{stem}{self.label_n}"

    def fresh_vreg(self) -> str:
        self.vreg_n += 1
        return f"v{self.vreg_n}"

    def emit_gates(self, budget: int) -> None:
        for _ in range(budget):
            if self.gates_left <= 0:
                return
            self.gates_left -= 1
            r = self.rng.random()
            if r < 0.55 or self.n_qubits < 2:
                g = self.rng.choice(ONE_QUBIT_GATES)
                self.lines.append(f"  {g} q{self.rng.randrange(self.n_qubits)}")
            elif r < 0.8:
                g = self.rng.choice(("rx", "ry", "rz"))
                a = self.rng.choice(ANGLES)
                self.lines.append(f"  {g}({a!r}) q{self.rng.randrange(self.n_qubits)}")
            else:
                a = self.rng.randrange(self.n_qubits)
                b = self.rng.randrange(self.n_qubits)
                if a != b:
                    self.lines.append(f"  cx q{a}, q{b}")

    def measure_bool(self) -> str | None:
        if self.measures_left <= 0:
            return None
        self.measures_left -= 1
        slot = self.slot_n
        self.slot_n += 1
        q = self.rng.randrange(self.n_qubits)
        self.lines.append(f"  mz q{q} -> r{slot}")
        if self.rng.random() < 0.5:
            self.lines.append(f"  reset q{q}")
        v = self.fresh_vreg()
        self.lines.append(f"  %{v} = read_result r{slot}")
        return v

    def region(self, depth: int, exit_label: str, allow_branch: bool = True) -> None:
        """Emit the body of the current block and a terminator toward exit_label."""
        self.emit_gates(self.rng.randint(0, 3))
        cond = self.measure_bool() if (allow_branch and self.branches_left > 0 and depth < 3) else None
        if cond is None or self.rng.random() < 0.25:
            self.lines.append(f"  jmp {exit_label}")
            return
        self.branches_left -= 1
        then_l = self.fresh_label("then")
        else_l = self.fresh_label("else")
        merge_l = self.fresh_label("merge")
        # phis need the arms to reach the merge directly, so keep them linear
        with_phi = self.rng.random() < 0.5
        tv = ev = None
        if with_phi:
            tv, ev = self.fresh_vreg(), self.fresh_vreg()
            self.lines.append(f"  %{tv} = xor %{cond}, true")
            self.lines.append(f"  %{ev} = and %{cond}, %{cond}")
        self.lines.append(f"  br %{cond}, {then_l}, {else_l}")
        self.lines.append(f"block {then_l}:")
        cross = self.measure_bool() if self.or_joins and not with_phi else None
        if cross is None:
            self.region(depth + 1, merge_l, allow_branch=not with_phi)
        else:  # into the merge, or on into the else-arm
            self.lines.append(f"  br %{cross}, {merge_l}, {else_l}")
        self.lines.append(f"block {else_l}:")
        self.region(depth + 1, merge_l, allow_branch=not with_phi)
        self.lines.append(f"block {merge_l}:")
        if with_phi:
            pv = self.fresh_vreg()
            self.lines.append(f"  %{pv} = phi [%{tv}, {then_l}], [%{ev}, {else_l}]")
        self.region(depth + 1, exit_label)

    def build(self) -> str:
        # reserve room for the final measurement
        self.measures_left = max(self.measures_left, 1)
        self.lines.append("block entry:")
        self.region(0, "final")
        n_mid_slots = self.slot_n
        final_slot = self.slot_n
        self.slot_n += 1
        self.lines.append("block final:")
        self.emit_gates(1)
        self.lines.append(f"  mz q0 -> r{final_slot}")
        self.lines.append("  output array_start")
        for s in range(self.slot_n):
            self.lines.append(f"  output result r{s}")
        self.lines.append("  output array_end")
        self.lines.append("  ret")
        header = [
            "module fuzzed",
            f"attrs required_qubits={self.n_qubits} required_results={self.slot_n}",
            "func @main() {",
        ]
        return "\n".join(header + self.lines + ["}"]) + "\n"


def random_program(
    seed: int,
    n_qubits: int = 3,
    max_gates: int = 12,
    max_branches: int = 2,
    max_measures: int = 4,
    or_joins: bool = False,
) -> Module:
    rng = random.Random(seed)
    gen = _Gen(
        rng, n_qubits=rng.randint(1, n_qubits), max_gates=max_gates, max_branches=max_branches,
        max_measures=max_measures, or_joins=or_joins,
    )
    return textir.parse(gen.build())


def max_distribution_error(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)



# Hand-written flatten programs, shared by tests/test_passes.py and the
# corpus of scripts/output_digest.py.
TWO_RETURNS = """func @f() {
block a:
  h q0
  mz q0 -> r0
  %m = read_result r0
  br %m, b, c
block b:
  ret
block c:
  ret
}
"""

# A continuation that defines a value read in a later block: both returns
# of @f share it.
CONTINUATION_DEF_USED_LATER = """module t
attrs required_qubits=2 required_results=2
func @main() {
block e:
  call @f()
  %y = read_result r0
  jmp k
block k:
  br %y, y1, z
block y1:
  x q1
  jmp z
block z:
  mz q1 -> r1
  output result r0
  output result r1
  ret
}
""" + TWO_RETURNS

# Two calls in one block. The second call's continuation defines only a
# value read in the block itself, so on both return paths of the first call
# it gets one copy per return of @f.
TWO_CALL_BLOCK = """module t
attrs required_qubits=2 required_results=2
func @main() {
block e:
  call @f()
  %v = read_result r0
  call @f()
  %w = xor %v, true
  br %w, y1, z
block y1:
  x q1
  jmp z
block z:
  mz q1 -> r1
  output result r0
  output result r1
  ret
}
""" + TWO_RETURNS
