"""Shot-based execution of lowered programs with stochastic Pauli noise.

A shot walks the flat item list with a state vector, a result-slot file, K
integer registers (all zero-initialized), and the current ion placement.
Noise is trajectory-based: depolarizing after gates, dephasing per executed
transport step and per idle layer, classical flips on measurement records
and resets, and a systematic over-rotation added to every rotation angle.

Transport items carry the entry predicate of their chain. In conditional
mode a false predicate skips the steps entirely (no counter increase, no
transport dephasing); in always mode every transport item executes and only
gates, measurements and classical operations remain predicated.

There is one interpreter of the compiled program, ``_walk``, and it serves
both sampling and exact enumeration; they differ only at a measurement or
reset. A shot draws the outcome from its RNG. ``enumerate_outcomes`` passes
no RNG: the walk stops where both outcomes stay live, and the enumerator
forks the path and resumes each arm from the next operation. It returns the
exact noiseless output distribution, within a branching budget.

Determinism: shot ``i`` draws from ``SeedSequence(master_seed, spawn_key=(i,))``,
so results are independent of parallelism and always merged in shot order.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import gates as G
from .ir import OUTPUT_TOKEN, BinOp, Cmp, ReadResult
from .oracle import PRUNE_EPS, TooManyBranches
from .passes import _eval_binop, _eval_cmp
from .predication import OrVal, Select
from .qccd import (
    ClassicalItem,
    ExecProgram,
    LayerItem,
    MarkItem,
    OutputItem,
    PlacedOp,
    TransportItem,
    apply_step,
)
from .regalloc import PReg


class ZoneViolation(Exception):
    """An operation ran while its ions were not in the planned zone slots."""


@dataclass(frozen=True)
class NoiseModel:
    p1: float = 0.0  # depolarizing prob per 1-qubit gate
    p2: float = 0.0  # depolarizing prob per 2-qubit gate
    p_meas: float = 0.0  # recorded-bit flip prob per measurement
    p_reset: float = 0.0  # |1> flip prob after reset
    p_transport: float = 0.0  # Z-dephasing prob per ion per executed transport step
    p_idle: float = 0.0  # Z-dephasing prob per ion per gate layer it sits out
    prep_overrotation: float = 0.0  # systematic angle error added to rotations

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p_meas", "p_reset", "p_transport", "p_idle"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @property
    def is_noiseless(self) -> bool:
        return self == NOISELESS

    @staticmethod
    def from_json(text: str) -> "NoiseModel":
        import json

        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("noise model JSON must be an object")
        unknown = sorted(set(data) - set(NoiseModel.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown noise model key(s): {', '.join(unknown)}")
        for key, v in data.items():
            if type(v) not in (int, float) or not math.isfinite(v):
                raise ValueError(f"noise model key {key} must be a finite number, got {v!r}")
        return NoiseModel(**data)


NOISELESS = NoiseModel()

# Synthetic defaults only: plausible magnitudes, not measured device data.
H1E_LIKE = NoiseModel(p1=1e-4, p2=3e-3, p_meas=3e-3, p_reset=3e-3, p_transport=2e-4, p_idle=1e-4)


@dataclass(frozen=True)
class ShotResult:
    outputs: tuple
    slots: tuple[int, ...]
    executed_transport_steps: int
    executed_gates: int
    skipped_blocks: int
    measures_per_qubit: tuple[int, ...]
    seed: int


_BIT_INDEX_CACHE: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}


def _bit_indices(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    cached = _BIT_INDEX_CACHE.get(n)
    if cached is not None:
        return cached
    out = []
    idx = np.arange(1 << n)
    for q in range(n):
        zeros = idx[(idx >> q) & 1 == 0]
        out.append((zeros, zeros | (1 << q)))
    _BIT_INDEX_CACHE[n] = out
    return out


def apply_1q(state: np.ndarray, u: np.ndarray, q: int, n: int) -> None:
    i0, i1 = _bit_indices(n)[q]
    a0 = state[i0]
    a1 = state[i1]
    state[i0] = u[0, 0] * a0 + u[0, 1] * a1
    state[i1] = u[1, 0] * a0 + u[1, 1] * a1


def apply_depolarizing(state: np.ndarray, qubits: tuple[int, ...], p: float, n: int, rng: np.random.Generator) -> None:
    """With probability p, a uniformly random non-identity Pauli on the operands."""
    if p <= 0.0 or rng.random() >= p:
        return
    n_paulis = 4 ** len(qubits) - 1
    choice = int(rng.integers(1, n_paulis + 1))
    for q in qubits:
        pauli = choice & 3
        choice >>= 2
        if pauli == 1:
            apply_1q(state, G.X, q, n)
        elif pauli == 2:
            apply_1q(state, G.Y, q, n)
        elif pauli == 3:
            apply_1q(state, G.Z, q, n)


def apply_dephasing(state: np.ndarray, q: int, p: float, n: int, rng: np.random.Generator) -> None:
    if p > 0.0 and rng.random() < p:
        apply_1q(state, G.Z, q, n)


def _fetch(v, regs: list):
    if isinstance(v, PReg):
        return regs[v.index]
    return v


def _exec_classical(instrs: tuple, regs: list, slots: list[int]) -> None:
    for ins in instrs:
        if isinstance(ins, BinOp):
            regs[ins.dst.index] = _eval_binop(ins.op, _fetch(ins.a, regs), _fetch(ins.b, regs))
        elif isinstance(ins, Cmp):
            regs[ins.dst.index] = _eval_cmp(ins.op, _fetch(ins.a, regs), _fetch(ins.b, regs))
        elif isinstance(ins, Select):
            regs[ins.dst.index] = _fetch(ins.a, regs) if bool(_fetch(ins.cond, regs)) else _fetch(ins.b, regs)
        elif isinstance(ins, ReadResult):
            regs[ins.dst.index] = bool(slots[ins.slot])
        else:  # pragma: no cover
            raise TypeError(f"cannot execute {ins!r}")


def shot_seed(master_seed: int, shot_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(shot_index,))


# ---------------------------------------------------------------------------
# Compiled runtime: the item loop is the hot path, so items are lowered once
# into tag/tuple form with index arrays and unitary entries precomputed.
# ---------------------------------------------------------------------------

_MARK, _CLASSICAL, _TRANSPORT, _LAYER, _OUTPUT = range(5)
_OP_1Q, _OP_CX, _OP_MEASURE, _OP_RESET = range(4)


def _cguard(g):
    if isinstance(g, bool):
        return None if g else False  # False guard never runs
    if isinstance(g, PReg):
        return g.index
    if isinstance(g, OrVal):
        return tuple(_cguard(p) for p in g.parts)
    raise TypeError(f"bad exec guard {g!r}")


def _geval(g, regs) -> bool:
    if g is None:
        return True
    if g is False:
        return False
    if type(g) is int:
        return bool(regs[g])
    return any(_geval(p, regs) for p in g)


def _compile_op(op: PlacedOp, n: int, overrot: float, j: int):
    """One op in tag/tuple form; a measurement or reset keeps its index ``j`` in the layer."""
    i0, i1 = _bit_indices(n)[op.qubits[0]]
    if op.kind == "gate":
        if op.name == "cx":
            c, t = op.qubits
            idx = np.arange(1 << n)
            sel = ((idx >> c) & 1 == 1) & ((idx >> t) & 1 == 0)
            j0 = idx[sel]
            j1 = j0 | (1 << t)
            return (_OP_CX, j0, j1, op)
        angle = op.angle
        if angle is not None:
            angle = float(angle) + overrot
        u = G.gate_unitary(op.name, angle)
        return (_OP_1Q, i0, i1, complex(u[0, 0]), complex(u[0, 1]), complex(u[1, 0]), complex(u[1, 1]), op)
    if op.kind == "measure":
        return (_OP_MEASURE, i0, i1, op.qubits[0], op.slot, j)
    return (_OP_RESET, i0, i1, op.qubits[0], None, j)


@dataclass
class _Runtime:
    n_qubits: int
    n_results: int
    n_regs: int
    canonical: tuple[int, ...]
    conditional: bool
    noise: NoiseModel
    items: list


def _compile_runtime(prog: ExecProgram, noise: NoiseModel) -> _Runtime:
    n = prog.n_qubits
    items: list = []
    for item in prog.items:
        if isinstance(item, MarkItem):
            items.append((_MARK, _cguard(item.guard)))
        elif isinstance(item, ClassicalItem):
            items.append((_CLASSICAL, _cguard(item.guard), item.instrs))
        elif isinstance(item, TransportItem):
            # composed slot permutation: where something starting at slot s ends up
            perm = tuple(range(prog.trap.slots))
            for st in item.steps:
                perm = apply_step(perm, st)
            items.append((_TRANSPORT, _cguard(item.guard), perm, len(item.steps), item.steps))
        elif isinstance(item, LayerItem):
            ops = tuple(_compile_op(op, n, noise.prep_overrotation, j) for j, op in enumerate(item.ops))
            items.append((_LAYER, _cguard(item.guard), item.expected_slots, ops, item.idle_qubits, len(items)))
        elif isinstance(item, OutputItem):
            token = None if item.kind == "result" else OUTPUT_TOKEN[item.kind]
            items.append((_OUTPUT, _cguard(item.guard), token, item.slot))
        else:  # pragma: no cover
            raise TypeError(f"cannot compile {item!r}")
    return _Runtime(n, prog.n_results, prog.n_regs, prog.canonical, prog.conditional_transport, noise, items)


@dataclass
class _Path:
    """What a walk carries: the state, the classical record and the counters."""

    state: np.ndarray
    slots: list[int]
    regs: list
    outputs: list
    measures: list[int]
    placement: tuple[int, ...]
    transport: int = 0
    gates: int = 0
    skipped: int = 0
    prob: float = 1.0
    branch_events: int = 0

    @staticmethod
    def start(rt: _Runtime) -> "_Path":
        return _Path(
            _initial_state(rt.n_qubits), [0] * rt.n_results, [0] * rt.n_regs, [], [0] * rt.n_qubits, rt.canonical
        )

    def fork(self, state: np.ndarray, weight: float) -> "_Path":
        """This path continued on one arm of a branch event, in ``state`` with probability ``weight``."""
        return _Path(
            state, self.slots[:], self.regs[:], self.outputs[:], self.measures[:], self.placement,
            self.transport, self.gates, self.skipped, self.prob * weight, self.branch_events + 1,
        )


def _walk(
    rt: _Runtime, path: _Path, rng: np.random.Generator | None, pos: int = 0, op_start: int = 0
) -> tuple | None:
    """Run ``path`` from op ``op_start`` of item ``pos`` to the end of the program.

    With an RNG every measurement and reset outcome is drawn and the walk
    returns None at the end. Without one (noiseless enumeration) an outcome
    is taken only when a single arm is live; at the first measurement or
    reset with two live arms the walk stops and returns ``(pos, op)``.
    """
    rng_random = rng.random if rng is not None else None
    n = rt.n_qubits
    noise = rt.noise
    noiseless = noise.is_noiseless
    conditional = rt.conditional
    state = path.state
    slots = path.slots
    regs = path.regs
    outputs = path.outputs
    measures = path.measures
    placement = path.placement
    transport_steps = path.transport
    gates = path.gates
    skipped = path.skipped
    items = rt.items
    if op_start:  # resume inside a layer whose guard and zones already passed
        layer = items[pos]
        items = chain([(_LAYER, None, (), layer[3][op_start:], layer[4], pos)], islice(items, pos + 1, None))

    try:  # counters stay in locals for speed; both exits, the end and a fork, write them back
        for item in items:
            tag = item[0]
            if tag == _LAYER:
                if not _geval(item[1], regs):
                    continue
                for q, slot in item[2]:
                    if placement[q] != slot:
                        raise ZoneViolation(f"qubit {q} at slot {placement[q]}, plan expected {slot}")
                for op in item[3]:
                    otag = op[0]
                    if otag == _OP_1Q:
                        i0, i1 = op[1], op[2]
                        a0 = state[i0]
                        a1 = state[i1]
                        state[i0] = op[3] * a0 + op[4] * a1
                        state[i1] = op[5] * a0 + op[6] * a1
                        gates += 1
                        if not noiseless:
                            apply_depolarizing(state, op[7].qubits, noise.p1, n, rng)
                    elif otag == _OP_CX:
                        i0, i1 = op[1], op[2]
                        tmp = state[i0].copy()
                        state[i0] = state[i1]
                        state[i1] = tmp
                        gates += 1
                        if not noiseless:
                            apply_depolarizing(state, op[3].qubits, noise.p2, n, rng)
                    elif otag == _OP_MEASURE:
                        i1 = op[2]
                        probs = np.abs(state) ** 2
                        p1 = float(probs[i1].sum())
                        norm = float(probs.sum())
                        if abs(norm - 1.0) > 1e-9:
                            raise FloatingPointError(f"state norm drifted to {norm}")
                        if rng is None:
                            if p1 > PRUNE_EPS and float(probs[op[1]].sum()) > PRUNE_EPS:
                                return item[5], op
                            outcome = 1 if p1 > PRUNE_EPS else 0
                        else:
                            outcome = 1 if rng_random() < p1 else 0
                        if outcome:
                            state[op[1]] = 0.0
                            state /= np.sqrt(p1)
                        else:
                            state[i1] = 0.0
                            state /= np.sqrt(1.0 - p1)
                        recorded = outcome
                        if not noiseless and noise.p_meas > 0.0 and rng_random() < noise.p_meas:
                            recorded ^= 1
                        slots[op[4]] = recorded
                        measures[op[3]] += 1
                    else:  # reset
                        i0, i1 = op[1], op[2]
                        p1 = float(np.sum(np.abs(state[i1]) ** 2))
                        if rng is None:
                            if p1 > PRUNE_EPS and float(np.sum(np.abs(state[i0]) ** 2)) > PRUNE_EPS:
                                return item[5], op
                            outcome = 1 if p1 > PRUNE_EPS else 0
                        else:
                            outcome = 1 if rng_random() < p1 else 0
                        if outcome:
                            state[i0] = state[i1]
                            state[i1] = 0.0
                            state /= np.sqrt(p1)
                        else:
                            state[i1] = 0.0
                            state /= np.sqrt(1.0 - p1)
                        if not noiseless and noise.p_reset > 0.0 and rng_random() < noise.p_reset:
                            a0 = state[i0].copy()
                            state[i0] = state[i1]
                            state[i1] = a0
                if not noiseless and noise.p_idle > 0.0:
                    for q in item[4]:
                        apply_dephasing(state, q, noise.p_idle, n, rng)
            elif tag == _CLASSICAL:
                if _geval(item[1], regs):
                    _exec_classical(item[2], regs, slots)
            elif tag == _TRANSPORT:
                if not conditional or _geval(item[1], regs):
                    perm = item[2]
                    placement = tuple(perm[s] for s in placement)
                    transport_steps += item[3]
                    if not noiseless and noise.p_transport > 0.0:
                        for _step in item[4]:
                            for q in range(n):
                                apply_dephasing(state, q, noise.p_transport, n, rng)
            elif tag == _MARK:
                if not _geval(item[1], regs):
                    skipped += 1
            else:  # output
                if _geval(item[1], regs):
                    outputs.append(slots[item[3]] if item[2] is None else item[2])
    finally:
        path.placement = placement
        path.transport = transport_steps
        path.gates = gates
        path.skipped = skipped
    return None


def _run_compiled(rt: _Runtime, master_seed: int, shot_index: int) -> ShotResult:
    path = _Path.start(rt)
    _walk(rt, path, np.random.Generator(np.random.PCG64(shot_seed(master_seed, shot_index))))
    return ShotResult(
        outputs=tuple(path.outputs),
        slots=tuple(path.slots),
        executed_transport_steps=path.transport,
        executed_gates=path.gates,
        skipped_blocks=path.skipped,
        measures_per_qubit=tuple(path.measures),
        seed=shot_index,
    )


def run_shot(prog: ExecProgram, noise: NoiseModel, master_seed: int, shot_index: int) -> ShotResult:
    return _run_compiled(_compile_runtime(prog, noise), master_seed, shot_index)


def _initial_state(n: int) -> np.ndarray:
    state = np.zeros(1 << max(n, 1), dtype=complex)
    state[0] = 1.0
    return state


def _run_range(args) -> list[ShotResult]:
    prog, noise, master_seed, lo, hi = args
    rt = _compile_runtime(prog, noise)
    return [_run_compiled(rt, master_seed, i) for i in range(lo, hi)]


def run_shots(
    prog: ExecProgram,
    noise: NoiseModel,
    n_shots: int,
    master_seed: int,
    jobs: int = 1,
) -> list[ShotResult]:
    """n_shots independent shots; identical results for any jobs value."""
    if n_shots < 1:
        raise ValueError("need at least one shot")
    if jobs <= 1 or n_shots < 4 * jobs:
        rt = _compile_runtime(prog, noise)
        return [_run_compiled(rt, master_seed, i) for i in range(n_shots)]
    bounds = np.linspace(0, n_shots, jobs + 1, dtype=int)
    chunks = [(prog, noise, master_seed, int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=jobs) as pool:
        parts = pool.map(_run_range, chunks)
    out: list[ShotResult] = []
    for part in parts:
        out.extend(part)
    return out


# ---------------------------------------------------------------------------
# Exact noiseless enumeration: the same walk, forked at every live branch
# ---------------------------------------------------------------------------

@dataclass
class ExecLeaf:
    prob: float
    outputs: tuple
    state: np.ndarray
    slots: tuple[int, ...]
    regs: tuple
    executed_transport_steps: int


def enumerate_exec_leaves(prog: ExecProgram, max_branch_events: int = 20) -> list[ExecLeaf]:
    """All terminal paths of a lowered program with exact probabilities, depth first, outcome 0 first."""
    rt = _compile_runtime(prog, NOISELESS)
    leaves: list[ExecLeaf] = []
    todo = [(_Path.start(rt), 0, 0)]
    while todo:
        path, pos, op_start = todo.pop()
        stop = _walk(rt, path, None, pos, op_start)
        if stop is None:
            leaves.append(
                ExecLeaf(path.prob, tuple(path.outputs), path.state, tuple(path.slots), tuple(path.regs), path.transport)
            )
            continue
        pos, (otag, i0, i1, q, slot, j) = stop
        # both arms are live: collapse onto each, and flip a reset's |1> arm back to |0>
        arms = []
        for o, keep, kill in ((0, i0, i1), (1, i1, i0)):
            p = float(np.sum(np.abs(path.state[keep]) ** 2))
            s = path.state.copy()
            s[kill] = 0.0
            s /= np.sqrt(p)
            if otag == _OP_RESET and o:
                s[i0] = s[i1]
                s[i1] = 0.0
            arms.append((o, p, s))
        if otag == _OP_RESET and G.equal_up_to_phase(arms[0][2], arms[1][2]):
            path.state = arms[0][2]
            todo.append((path, pos, j + 1))
            continue
        if path.branch_events + 1 > max_branch_events:
            raise TooManyBranches(f"more than {max_branch_events} branch events on a path")
        for o, p, s in reversed(arms):
            child = path.fork(s, p)
            if otag == _OP_MEASURE:
                child.slots[slot] = o
                child.measures[q] += 1
            todo.append((child, pos, j + 1))
    return leaves


def enumerate_outcomes(prog: ExecProgram, max_branch_events: int = 20) -> dict[tuple, float]:
    """Exact output distribution of a lowered program (noiseless)."""
    dist: dict[tuple, float] = {}
    for leaf in enumerate_exec_leaves(prog, max_branch_events):
        dist[leaf.outputs] = dist.get(leaf.outputs, 0.0) + leaf.prob
    return dist
