"""Backend for a linear QCCD trap: placement, gate layering, transport, lowering.

The machine is a line of slots; disjoint pairs of adjacent slots form gate
zones where gates, measurements and resets happen. Ions move by parallel
layers of disjoint adjacent swaps (one layer = one transport step, the cost
unit throughout).

Lowering turns the register-rewritten guarded form into a flat executable
program. Blocks that carry quantum operations are grouped into *transport
chains*: a run of consecutive gate-bearing blocks in which each block's
predicate syntactically implies its predecessor's. Within a chain the ion
placement flows from block to block and every transport step is guarded by
the *chain entry* predicate (the weakest one); gates keep their own block
predicates. Each chain starts from the canonical placement and its final
transport restores it, so skipping any whole chain leaves the machine
placement-consistent. Under conditional transport a false chain guard skips
gates and transport together; the always-transport mode executes every
transport step regardless and only the gates stay conditional. Chains are
exactly what makes control-flow shape visible in executed-transport counts:
a bigger, branchier guarded program funnels more blocks into chains whose
entry guard is weak, so more transport runs per shot.

Plans are memoized per process, by value and within a bound: each distinct
run schedule, (placement, layer operands and zones) query and restore is
planned once and reused wherever this program or a later one repeats it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Union

from .ir import QUANTUM_OPS, Instruction, IonflowError, Measure, Module, Output, QGate, Reset, config_from_json
from .predication import GuardedFunction, OrVal, guard_vregs, sym_implies
from .regalloc import BlockSpan, PReg


# Widest trap accepted. Lowering and transport cost grows with the slot
# count even for a few qubits, and a module's qubit count sets the default
# trap's width, so this bounds both.
MAX_TRAP_SLOTS = 4096


class Unreachable(Exception):
    """A broken invariant, not rejected input: transport search failed, which a connected linear trap rules out."""


@dataclass(frozen=True)
class TrapLayout:
    slots: int
    gate_zones: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if type(self.slots) is not int:
            raise IonflowError(f"trap slots must be an int, got {self.slots!r}")
        if self.slots > MAX_TRAP_SLOTS:
            raise IonflowError(f"trap slots={self.slots} above the maximum {MAX_TRAP_SLOTS}")
        zones = self.gate_zones
        pairs = isinstance(zones, (list, tuple)) and all(isinstance(z, (list, tuple)) and len(z) == 2 for z in zones)
        if not pairs or any(type(x) is not int for z in zones for x in z):
            raise IonflowError(f"trap gate_zones must be (int, int) pairs, got {zones!r}")
        object.__setattr__(self, "gate_zones", tuple(map(tuple, zones)))  # a JSON list of lists, as tuples
        seen: set[int] = set()
        for a, b in self.gate_zones:
            if b != a + 1:
                raise IonflowError(f"gate zone ({a},{b}) is not an adjacent pair")
            if a in seen or b in seen or a < 0 or b >= self.slots:
                raise IonflowError(f"gate zone ({a},{b}) overlaps another zone or the trap edge")
            seen.update((a, b))
        if not self.gate_zones:
            raise IonflowError("trap needs at least one gate zone")

    @staticmethod
    def default(n_qubits: int) -> "TrapLayout":
        slots = max(n_qubits, 4)
        n_zones = min(slots // 2, 5)
        zones = tuple((2 * i, 2 * i + 1) for i in range(n_zones))
        return TrapLayout(slots, zones)

    @staticmethod
    def from_json(text: str) -> "TrapLayout":
        return config_from_json(TrapLayout, text)

    def to_json(self) -> str:
        return json.dumps({"slots": self.slots, "gate_zones": [list(z) for z in self.gate_zones]})


Placement = tuple[int, ...]  # qubit index -> slot index, injective
TransportStep = tuple[tuple[int, int], ...]  # disjoint adjacent slot swaps, sorted


def apply_step(placement: Placement, step: TransportStep) -> Placement:
    moves = {}  # the step's swaps are disjoint, so each slot moves at most once
    for a, b in step:
        moves[a], moves[b] = b, a
    return tuple([moves.get(s, s) for s in placement])


def all_steps(slots: int) -> list[TransportStep]:
    """Every nonempty set of disjoint adjacent swaps, lexicographically."""
    out: list[TransportStep] = []

    def rec(start: int, acc: list[tuple[int, int]]) -> None:
        for a in range(start, slots - 1):
            acc.append((a, a + 1))
            out.append(tuple(acc))
            rec(a + 2, acc)
            acc.pop()

    rec(0, [])
    out.sort()
    return out


@functools.cache
def _slot_maps(slots: int) -> tuple[tuple[TransportStep, tuple[int, ...]], ...]:
    """``all_steps(slots)`` in order, each paired with its slot map ``m``:
    the ion in slot ``s`` moves to slot ``m[s]``."""
    table = []
    for st in all_steps(slots):
        m = list(range(slots))
        for a, b in st:
            m[a], m[b] = b, a
        table.append((st, tuple(m)))
    return tuple(table)


# ---------------------------------------------------------------------------
# Initial placement (layered barycenter sweeps)
# ---------------------------------------------------------------------------

def interaction_weights(module: Module) -> dict[tuple[int, int], int]:
    w: dict[tuple[int, int], int] = {}
    for fn in module.functions:
        for b in fn.blocks:
            for ins in b.body:
                if isinstance(ins, QGate) and len(ins.qubits) == 2:
                    a, c = ins.qubits
                    if isinstance(a, int) and isinstance(c, int):
                        key = (min(a, c), max(a, c))
                        w[key] = w.get(key, 0) + 1
    return w


def place_initial(module: Module, trap: TrapLayout) -> Placement:
    """One-dimensional qubit order from four damped barycenter sweeps.

    Each sweep moves every qubit toward the average position of its
    two-qubit-gate partners (weighted by gate count, current position
    included for stability) and stable-sorts, so ties keep source order
    and the result is deterministic.
    """
    n = module.required_qubits
    if n > trap.slots:
        raise IonflowError(f"{n} qubits do not fit in {trap.slots} slots")
    weights = interaction_weights(module)
    order = list(range(n))
    for _ in range(4):
        pos = {q: i for i, q in enumerate(order)}
        keys = {}
        for q in order:
            total = pos[q]
            wsum = 1
            for (a, b), w in weights.items():
                if a == q:
                    total += w * pos[b]
                    wsum += w
                elif b == q:
                    total += w * pos[a]
                    wsum += w
            keys[q] = total / wsum
        order.sort(key=lambda q: keys[q])  # python sort is stable
    placement = [0] * n
    for slot, q in enumerate(order):
        placement[q] = slot
    return tuple(placement)


# ---------------------------------------------------------------------------
# Gate layering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlacedOp:
    kind: str  # "gate" | "measure" | "reset"
    name: str | None
    qubits: tuple[int, ...]
    angle: float | None
    slot: int | None  # result slot for measures
    zone: tuple[int, int]


@dataclass(frozen=True)
class GateLayer:
    ops: tuple[PlacedOp, ...]


def schedule_layers(ops: list[Instruction], trap: TrapLayout) -> list[GateLayer]:
    """Greedy list scheduling: earliest layer with free operands and a free zone."""
    layers: list[list[PlacedOp]] = []
    zone_used: list[set[int]] = []
    qubit_free: dict[int, int] = {}

    for ins in ops:
        if isinstance(ins, QGate):
            kind, name, angle, slot = "gate", ins.name, ins.angle, None
        elif isinstance(ins, Measure):
            kind, name, angle, slot = "measure", None, None, ins.slot
        elif isinstance(ins, Reset):
            kind, name, angle, slot = "reset", None, None, None
        else:  # pragma: no cover
            raise TypeError(f"not a quantum op: {ins!r}")
        qubits = tuple(ins.qubits)
        l = max((qubit_free.get(q, 0) for q in qubits), default=0)
        while True:
            while len(layers) <= l:
                layers.append([])
                zone_used.append(set())
            free = [z for z in range(len(trap.gate_zones)) if z not in zone_used[l]]
            if free:
                zone = free[0]
                break
            l += 1
        zone_used[l].add(zone)
        layers[l].append(PlacedOp(kind, name, qubits, angle, slot, trap.gate_zones[zone]))
        for q in qubits:
            qubit_free[q] = l + 1

    return [GateLayer(tuple(ops_)) for ops_ in layers if ops_]


# ---------------------------------------------------------------------------
# Transport planning
# ---------------------------------------------------------------------------

# widest trap, in slots, planned by exact BFS; a default trap of n qubits has
# max(n, 4) slots, so it is planned exactly up to 7 qubits
BFS_EXACT_LIMIT = 7


def _layer_goal(placement: Placement, layer: GateLayer) -> bool:
    for op in layer.ops:
        zone = set(op.zone)
        slots = {placement[q] for q in op.qubits}
        if len(op.qubits) == 2:
            if slots != zone:
                return False
        elif not slots <= zone:
            return False
    return True


def plan_transport(current: Placement, layer: GateLayer, trap: TrapLayout) -> tuple[list[TransportStep], Placement]:
    """Parallel-swap-layer plan bringing the layer's operands into their
    zones: a minimum one by exact BFS on traps of at most ``BFS_EXACT_LIMIT``
    slots (the step table grows as Fibonacci(slots + 1)), greedy odd-even
    routing on wider traps, however few ions they hold."""
    if _layer_goal(current, layer):
        return [], current
    if trap.slots <= BFS_EXACT_LIMIT:
        return _bfs_plan(current, lambda p: _layer_goal(p, layer), trap)
    target = _greedy_targets(current, layer, trap)
    return _route_to_targets(current, target, trap)


def plan_restore(current: Placement, canonical: Placement, trap: TrapLayout) -> tuple[list[TransportStep], Placement]:
    """Plan back to the canonical placement: exact BFS on traps of at most
    ``BFS_EXACT_LIMIT`` slots, odd-even routing on wider ones."""
    if current == canonical:
        return [], current
    if trap.slots <= BFS_EXACT_LIMIT:
        return _bfs_plan(current, lambda p: p == canonical, trap)
    return _route_to_targets(current, canonical, trap)


def _bfs_plan(current: Placement, goal, trap: TrapLayout) -> tuple[list[TransportStep], Placement]:
    table = _slot_maps(trap.slots)
    seen = {current}
    frontier: list[tuple[Placement, tuple[TransportStep, ...]]] = [(current, ())]
    while frontier:
        nxt: list[tuple[Placement, tuple[TransportStep, ...]]] = []
        for pl, path in frontier:
            for st, m in table:
                p2 = tuple([m[s] for s in pl])
                if p2 in seen:
                    continue
                path2 = path + (st,)
                if goal(p2):
                    return list(path2), p2
                seen.add(p2)
                nxt.append((p2, path2))
        frontier = nxt
    raise Unreachable("transport search exhausted the placement space")


def _greedy_targets(current: Placement, layer: GateLayer, trap: TrapLayout) -> Placement:
    """Pick concrete target slots for every ion (layer operands into zones,
    spectators keeping relative order), lower qubit index first on ties."""
    n = len(current)
    target: dict[int, int] = {}
    taken: set[int] = set()
    for op in sorted(layer.ops, key=lambda o: min(o.qubits)):
        if len(op.qubits) == 2:
            a, b = op.qubits
            s1, s2 = op.zone
            if abs(current[a] - s1) + abs(current[b] - s2) <= abs(current[a] - s2) + abs(current[b] - s1):
                target[a], target[b] = s1, s2
            else:
                target[a], target[b] = s2, s1
            taken.update(op.zone)
        else:
            (q,) = op.qubits
            s1, s2 = op.zone
            free = [s for s in (s1, s2) if s not in taken]
            s = min(free, key=lambda s: abs(current[q] - s))
            target[q] = s
            taken.add(s)
    rest = sorted((q for q in range(n) if q not in target), key=lambda q: current[q])
    free_slots = sorted(set(range(trap.slots)) - set(target.values()))
    for q, s in zip(rest, free_slots):
        target[q] = s
    return tuple(target[q] for q in range(n))


def _route_to_targets(current: Placement, target: Placement, trap: TrapLayout) -> tuple[list[TransportStep], Placement]:
    """Odd-even transposition routing toward a full target placement.

    Each slot's content gets a destination key (empty slots absorb the unused
    destinations in order); parallel passes swap adjacent inversions until
    sorted, which needs at most one pass per slot. The live inversions are
    kept by parity: a swap at s can make or clear one only at s - 1, s and
    s + 1, so a phase costs its swaps, not a scan of every slot.
    """
    slots = trap.slots
    occupant: dict[int, int] = {s: q for q, s in enumerate(current)}
    free_targets = sorted(set(range(slots)) - set(target))
    keys: list[int] = []
    fi = 0
    for s in range(slots):
        q = occupant.get(s)
        if q is None:
            keys.append(free_targets[fi])
            fi += 1
        else:
            keys.append(target[q])
    inversions: tuple[set[int], set[int]] = (set(), set())  # the s with keys[s] > keys[s + 1], by parity
    for s in range(slots - 1):
        if keys[s] > keys[s + 1]:
            inversions[s & 1].add(s)
    plan: list[TransportStep] = []
    pl = current
    for _pass in range(slots + 1):
        if not inversions[0] and not inversions[1]:
            break
        for parity in (0, 1):
            if inversions[parity]:
                swaps = tuple((s, s + 1) for s in sorted(inversions[parity]))
                for a, b in swaps:
                    keys[a], keys[b] = keys[b], keys[a]
                for a, _b in swaps:
                    for s in range(max(a - 1, 0), min(a + 2, slots - 1)):
                        if keys[s] > keys[s + 1]:
                            inversions[s & 1].add(s)
                        else:
                            inversions[s & 1].discard(s)
                plan.append(swaps)
                pl = apply_step(pl, swaps)
    if pl != target:  # pragma: no cover - odd-even sort always terminates
        raise Unreachable("greedy routing did not reach the target placement")
    return plan, pl


# ---------------------------------------------------------------------------
# Transport chains
# ---------------------------------------------------------------------------

def _body_segments(body: tuple[Instruction, ...]):
    """Yield the body in program order: each maximal run of quantum ops as a
    list, and each classical instruction (a barrier between runs) by itself."""
    run: list[Instruction] = []
    for ins in body:
        if isinstance(ins, QUANTUM_OPS):
            run.append(ins)
        else:
            if run:
                yield run
                run = []
            yield ins
    if run:
        yield run


def is_gate_bearing(body: tuple[Instruction, ...]) -> bool:
    return any(isinstance(i, QUANTUM_OPS) for i in body)


@dataclass(frozen=True)
class Chain:
    """Consecutive gate-bearing blocks sharing one transport predicate."""

    members: tuple[int, ...]  # indices into gf.blocks
    entry_guard_block: int  # index of the block whose guard gates the transport


def compute_chains(gf: GuardedFunction) -> list[Chain]:
    chains: list[Chain] = []
    members: list[int] = []
    last_sym = None
    for i, b in enumerate(gf.blocks):
        if not is_gate_bearing(b.body):
            continue
        if members and last_sym is not None and sym_implies(b.symbolic, last_sym):
            members.append(i)
        else:
            if members:
                chains.append(Chain(tuple(members), members[0]))
            members = [i]
        last_sym = b.symbolic
    if members:
        chains.append(Chain(tuple(members), members[0]))
    return chains


def chain_liveness_uses(gf: GuardedFunction, chains: list[Chain], spans: list[BlockSpan]):
    """Extra liveness uses pinning each chain's entry guard to the chain end."""
    extra = []
    for ch in chains:
        g = gf.blocks[ch.entry_guard_block].guard
        end_span = spans[ch.members[-1]]
        for v in guard_vregs(g):
            extra.append((v, end_span.body_end))
    return tuple(extra)


# ---------------------------------------------------------------------------
# Executable program
# ---------------------------------------------------------------------------

ExecGuard = Union[bool, PReg, OrVal]


@dataclass(frozen=True)
class ClassicalItem:
    guard: ExecGuard
    instrs: tuple  # BinOp / Cmp / Select / ReadResult over PRegs


@dataclass(frozen=True)
class TransportItem:
    guard: ExecGuard  # chain entry guard; ignored in always-transport mode
    steps: tuple[TransportStep, ...]


@dataclass(frozen=True)
class LayerItem:
    guard: ExecGuard
    ops: tuple[PlacedOp, ...]
    expected_slots: tuple[tuple[int, int], ...]  # (qubit, slot) the plan assumes
    idle_qubits: tuple[int, ...]


@dataclass(frozen=True)
class OutputItem:
    guard: ExecGuard
    kind: str
    slot: int | None


@dataclass(frozen=True)
class MarkItem:
    guard: ExecGuard
    label: str


ExecItem = Union[ClassicalItem, TransportItem, LayerItem, OutputItem, MarkItem]

CONDITIONAL = "conditional"
ALWAYS = "always"


@dataclass(frozen=True)
class ExecProgram:
    name: str
    n_qubits: int
    n_results: int
    n_regs: int
    trap: TrapLayout
    canonical: Placement
    conditional_transport: bool
    items: tuple[ExecItem, ...]

    @property
    def planned_transport_steps(self) -> int:
        return sum(len(it.steps) for it in self.items if isinstance(it, TransportItem))

    def to_json(self) -> str:
        def reg(o):
            return {"reg": o.index} if isinstance(o, PReg) else o

        def enc(o):
            return {"or": list(map(reg, o.parts))} if isinstance(o, OrVal) else reg(o)

        items = []
        for it in self.items:
            if isinstance(it, ClassicalItem):
                items.append({"kind": "classical", "guard": enc(it.guard), "ops": [repr(i) for i in it.instrs]})
            elif isinstance(it, TransportItem):
                items.append({"kind": "transport", "guard": enc(it.guard), "steps": [list(map(list, s)) for s in it.steps]})
            elif isinstance(it, LayerItem):
                items.append(
                    {
                        "kind": "layer",
                        "guard": enc(it.guard),
                        "ops": [
                            {"op": op.kind, "name": op.name, "qubits": list(op.qubits), "angle": op.angle,
                             "slot": op.slot, "zone": list(op.zone)}
                            for op in it.ops
                        ],
                    }
                )
            elif isinstance(it, OutputItem):
                items.append({"kind": "output", "guard": enc(it.guard), "output": it.kind, "slot": it.slot})
            else:
                items.append({"kind": "block", "guard": enc(it.guard), "label": it.label})
        return json.dumps(
            {
                "name": self.name,
                "qubits": self.n_qubits,
                "results": self.n_results,
                "registers": self.n_regs,
                "trap": {"slots": self.trap.slots, "gate_zones": [list(z) for z in self.trap.gate_zones]},
                "canonical_placement": list(self.canonical),
                "conditional_transport": self.conditional_transport,
                "planned_transport_steps": self.planned_transport_steps,
                "items": items,
            },
            indent=2,
        )


# Plans are cached across lowerings by value, so a later compile that asks
# an earlier query gets the earlier plan back instead of searching again.
# Each key holds everything its plan depends on, and each plan is a tuple, so
# no caller can change a shared one. A search that raises caches nothing.
# The bound counts size, not entries: odd-even routing on a wide trap plans
# tens of thousands of swaps for one program (MSD 2 on MAX_TRAP_SLOTS slots
# caches 90,034 in 30 entries, about 12 MiB). An entry's size is one, plus
# its run's ops or its plan's swaps, about 130 bytes each, so the caches
# hold at most about 17 MiB; they are cleared together when the next entry
# would take them past MAX_PLANNED. The paper's whole sweep caches 650.
MAX_PLANNED = 1 << 17
_SCHEDULES: dict = {}  # (gate zones, run's _op_keys): ((layer, its (qubits, zone) per op), ...)
_TRANSPORTS: dict = {}  # (trap, placement, layer's (qubits, zone) per op): (steps, placement after)
_RESTORES: dict = {}  # (trap, canonical, placement): (steps, canonical)
_planned = 0  # the size the three caches hold


def _clear_plans() -> None:
    global _planned
    _SCHEDULES.clear()
    _TRANSPORTS.clear()
    _RESTORES.clear()
    _planned = 0


def _remember(cache: dict, key, plan, size: int):
    """Store ``plan`` of ``size`` under ``key``, first clearing every cache if
    it would not fit; a plan larger than the bound is returned uncached."""
    global _planned
    if _planned + size > MAX_PLANNED:
        _clear_plans()
    if size <= MAX_PLANNED:
        cache[key] = plan
        _planned += size
    return plan


def _scheduled(run: list[Instruction], trap: TrapLayout) -> tuple:
    """The run's layers, each with its (qubits, zone) per op, the layer's part of a transport query."""
    return tuple((layer, tuple((op.qubits, op.zone) for op in layer.ops)) for layer in schedule_layers(run, trap))


def _plan_size(steps) -> int:
    return 1 + sum(map(len, steps))


def _remember_plan(cache: dict, key, planned: tuple[list[TransportStep], Placement]):
    steps, after = planned
    return _remember(cache, key, (tuple(steps), after), _plan_size(steps))


def _op_key(ins: Instruction) -> tuple:
    """A quantum op as a key equal only where the ops print alike: angles ``1``
    and ``1.0`` compare equal, as do ``-0.0`` and ``0.0``, so an angle's type,
    and a float's sign, ride with its value (qubits are ints). Cheaper than ``repr``."""
    t = type(ins)
    if t is QGate:
        a = ins.angle
        return (ins.name, ins.qubits, a, type(a), math.copysign(1.0, a) if type(a) is float else None)
    if t is Measure:
        return (t, ins.qubit, ins.slot, type(ins.slot))
    return (t, ins.qubit)


def lower(
    gf: GuardedFunction,
    module: Module,
    trap: TrapLayout,
    mode: str = CONDITIONAL,
    n_regs: int = 64,
) -> ExecProgram:
    """Emit the flat executable program with per-chain transport plans."""
    if mode not in (CONDITIONAL, ALWAYS):
        raise IonflowError(f"unknown transport mode '{mode}'")
    canonical = place_initial(module, trap)
    chains = compute_chains(gf)
    chain_of_block: dict[int, Chain] = {}
    for ch in chains:
        for m in ch.members:
            chain_of_block[m] = ch

    items: list[ExecItem] = []
    placement = canonical
    n = module.required_qubits
    all_qubits = set(range(n))

    for i, b in enumerate(gf.blocks):
        if b.prelude:
            items.append(ClassicalItem(True, tuple(b.prelude)))
        items.append(MarkItem(b.guard, b.label))  # after the prelude, which may compute its guard
        ch = chain_of_block.get(i)
        chain_guard = gf.blocks[ch.entry_guard_block].guard if ch else b.guard
        for ins in _body_segments(b.body):
            if isinstance(ins, list):
                key = (trap.gate_zones, tuple(map(_op_key, ins)))
                layers = _SCHEDULES.get(key) or _remember(_SCHEDULES, key, _scheduled(ins, trap), 1 + len(ins))
                for layer, operands in layers:
                    key = (trap, placement, operands)
                    steps, placement = _TRANSPORTS.get(key) or _remember_plan(_TRANSPORTS, key, plan_transport(placement, layer, trap))
                    if steps:
                        items.append(TransportItem(chain_guard, steps))
                    expected = tuple((q, placement[q]) for op in layer.ops for q in op.qubits)
                    busy = {q for op in layer.ops for q in op.qubits}
                    items.append(LayerItem(b.guard, layer.ops, expected, tuple(sorted(all_qubits - busy))))
            elif isinstance(ins, Output):
                items.append(OutputItem(b.guard, ins.kind, ins.slot))
            else:
                items.append(ClassicalItem(b.guard, (ins,)))
        if ch and i == ch.members[-1]:
            key = (trap, canonical, placement)
            steps, placement = _RESTORES.get(key) or _remember_plan(_RESTORES, key, plan_restore(placement, canonical, trap))
            if steps:
                items.append(TransportItem(chain_guard, steps))
            assert placement == canonical

    return ExecProgram(
        name=gf.name,
        n_qubits=n,
        n_results=module.required_results,
        n_regs=n_regs,
        trap=trap,
        canonical=canonical,
        conditional_transport=(mode == CONDITIONAL),
        items=tuple(items),
    )
