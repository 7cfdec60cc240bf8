"""Register allocation for the guarded linear form: first-fit in interval-start order (optimal).

Virtual registers cannot be reused (single assignment), but the real-time
target has only K classical memory cells. Liveness over the linearized
guarded instruction sequence gives one half-open interval per vreg;
overlapping intervals interfere; coloring maps vregs onto cells.
The interference graph is an interval graph, so first-fit coloring in
interval-start order uses exactly the maximum overlap of live intervals
(Golumbic 1980). It is a linear scan over the intervals (Poletto & Sarkar,
"Linear Scan Register Allocation", 1999): a heap of free registers and a
heap of active intervals by end, never the edge set. There is no
spilling: if that overlap exceeds K, compilation fails with a
register-pressure error.

Result slots are a separate pre-sized file addressed directly by
measurements and are not subject to coloring.

Liveness reads each instruction's operands through ``ir.instr_uses`` and
``ir.instr_defs``, and ``rewrite`` renames them through ``ir.map_instr``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .ir import QUANTUM_OPS, IonflowError, Value, Vreg, instr_defs, instr_uses, map_instr
from .predication import GuardedBlock, GuardedFunction, GuardVal, OrVal, guard_vregs

PRESSURE_MESSAGE = "register pressure exceeds real-time register file"


class RegisterPressureExceeded(IonflowError):
    def __init__(self, needed_hint: int, k: int):
        self.needed_hint = needed_hint
        self.k = k
        super().__init__(f"{PRESSURE_MESSAGE} (K={k}, a clique needs at least {needed_hint})")


@dataclass(frozen=True)
class PReg:
    """A physical real-time register, the output alphabet of coloring."""

    index: int

    def __repr__(self) -> str:
        return f"R{self.index}"


@dataclass(frozen=True)
class BlockSpan:
    """Linear instruction indices of one guarded block."""

    label: str
    prelude_start: int
    guard_index: int  # virtual slot where the predicate is evaluated
    body_start: int
    body_end: int  # exclusive


def linearize(gf: GuardedFunction) -> list[BlockSpan]:
    spans = []
    idx = 0
    for b in gf.blocks:
        p0 = idx
        idx += len(b.prelude)
        gidx = idx
        idx += 1  # guard evaluation slot
        b0 = idx
        idx += len(b.body)
        spans.append(BlockSpan(b.label, p0, gidx, b0, idx))
    return spans


def compute_liveness(
    gf: GuardedFunction, extra_uses: tuple[tuple[Vreg, int], ...] = ()
) -> dict[Vreg, tuple[int, int]]:
    """Half-open live interval [def, last_use+1) per vreg.

    A block's predicate reads its guard vregs at the guard slot and holds
    them live through the whole body. ``extra_uses`` lets the backend pin
    guards of transport-sharing block runs live through the run.
    """
    spans = linearize(gf)
    start: dict[Vreg, int] = {}
    end: dict[Vreg, int] = {}

    def use(v: Vreg, at: int) -> None:
        end[v] = max(end.get(v, at + 1), at + 1)

    def scan(instrs, idx: int) -> None:
        for ins in instrs:
            for v in instr_uses(ins):
                use(v, idx)
            for d in instr_defs(ins):
                start.setdefault(d, idx)
            idx += 1

    for b, span in zip(gf.blocks, spans):
        scan(b.prelude, span.prelude_start)
        for v in guard_vregs(b.guard):
            use(v, span.guard_index)
            if span.body_end > span.body_start:
                use(v, span.body_end - 1)
        scan(b.body, span.body_start)
    for v, at in extra_uses:
        use(v, at)

    ranges: dict[Vreg, tuple[int, int]] = {}
    for v, s in start.items():
        e = end.get(v, s)  # unused defs get an empty range
        ranges[v] = (s, max(e, s))
    return ranges


@dataclass(frozen=True)
class InterferenceGraph:
    """Live vregs by interval start (then end, then name), with their intervals.

    Two vregs interfere when their half-open intervals overlap. ``color``
    needs only the intervals; ``edges`` lists the interfering pairs.
    """

    nodes: tuple[Vreg, ...]
    intervals: tuple[tuple[int, int], ...]  # nodes[i]'s live interval

    @cached_property
    def edges(self) -> frozenset[frozenset]:
        edges: set[frozenset] = set()
        active: list[tuple[int, Vreg]] = []  # (end, vreg)
        for v, (s, e) in zip(self.nodes, self.intervals):
            active = [(ae, av) for ae, av in active if ae > s]
            edges.update(frozenset((av, v)) for _ae, av in active)
            active.append((e, v))
        return frozenset(edges)


def build_interference(ranges: dict[Vreg, tuple[int, int]]) -> InterferenceGraph:
    """The interval graph of the vregs whose live intervals are non-empty."""
    live = [(v, s, e) for v, (s, e) in ranges.items() if e > s]
    live.sort(key=lambda t: (t[1], t[2], t[0].name))
    return InterferenceGraph(tuple(v for v, _s, _e in live), tuple((s, e) for _v, s, e in live))


@dataclass(frozen=True)
class RegFile:
    k: int
    assignment: dict[Vreg, int]


def color(graph: InterferenceGraph, k: int) -> RegFile:
    """First-fit in interval-start order; raises RegisterPressureExceeded, no spilling.

    A vreg's interfering, already-colored neighbours are exactly the active
    intervals: they started no later than it and are still live at its
    start, so with the vreg they form a clique. Needing register c proves a
    clique of c + 1, and the coloring is optimal. A register returns to the
    free heap once its interval ends at or before the next start.
    """
    if k < 1:
        raise IonflowError("need at least one register")
    assignment: dict[Vreg, int] = {}
    free = list(range(min(k, len(graph.nodes))))  # a sorted list is a heap
    active: list[tuple[int, int]] = []  # (end, register)
    for v, (s, e) in zip(graph.nodes, graph.intervals):
        while active and active[0][0] <= s:
            heapq.heappush(free, heapq.heappop(active)[1])
        if not free:
            raise RegisterPressureExceeded(k + 1, k)
        c = heapq.heappop(free)
        assignment[v] = c
        heapq.heappush(active, (e, c))
    return RegFile(k, assignment)


# ---------------------------------------------------------------------------
# Rewriting vregs onto physical registers
# ---------------------------------------------------------------------------

def rewrite(gf: GuardedFunction, regfile: RegFile) -> GuardedFunction:
    """Replace vregs by physical registers; drop definitions never read.

    Quantum ops stay as they are: after strict validation they hold no vreg.
    """
    asg = regfile.assignment

    def reg(v: Value):
        return PReg(asg[v]) if isinstance(v, Vreg) else v

    def guard(gv: GuardVal):
        return OrVal(tuple(map(reg, gv.parts))) if isinstance(gv, OrVal) else reg(gv)

    def mapped(instrs) -> tuple:
        return tuple(
            i if isinstance(i, QUANTUM_OPS) else map_instr(i, reg)
            for i in instrs
            if all(d in asg for d in instr_defs(i))
        )

    blocks = [GuardedBlock(b.label, mapped(b.prelude), guard(b.guard), b.symbolic, mapped(b.body)) for b in gf.blocks]
    return GuardedFunction(gf.name, tuple(blocks), gf.new_vregs)
