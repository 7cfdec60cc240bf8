"""Batched execution of lowered programs with stochastic Pauli noise.

One interpreter, ``_walk``, runs the flat item list once for a batch of
rows. A batch holds a (B, 2**n) state, (B, K) registers (all zero at the
start), (B, R) result slots, each row's ion placement and its counters.

The walk goes one guard segment at a time. A segment is a maximal run of
items that share one guard, in which no classical item writes a register
the guard reads, so the guard holds the same value on every row through
the whole segment; ``_compile_runtime`` finds the segments once. The
guard becomes a row mask once per segment. An all-false mask skips the
segment. A partial mask runs its items on the active rows: their states
are gathered on first use and scattered back once at the segment's end,
and every mark of the segment counts the inactive rows as skipped.

Noise is trajectory-based, drawn once per draw site for the rows that
reach it: depolarizing after gates, dephasing per executed transport step
and per idle layer, classical flips on measurement records and resets, and
a systematic over-rotation added to every rotation angle.

Transport items carry the entry predicate of their chain. In conditional
mode a false predicate skips the steps entirely (no counter increase, no
transport dephasing); in always mode every transport item executes and only
gates, measurements and classical operations remain predicated.

The rows are shots when sampling and paths when enumerating; they differ
only at a measurement or reset. A shot draws the outcome from its batch's
RNG. ``enumerate_outcomes`` passes no RNG: a path with two live outcomes
forks into two rows, each weighted by its arm's probability. It returns the
exact noiseless output distribution, within a branching budget.

Determinism: shots run in batches of the fixed size ``SHOT_BATCH``, and
batch ``b`` draws from ``SeedSequence(master_seed, spawn_key=(b,))``, so
results do not depend on the number of worker processes and are always
merged in shot order.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import gates as G
from .ir import OUTPUT_TOKEN, BinOp, IonflowError, ReadResult, Select, config_from_json
from .oracle import MAX_BRANCH_EVENTS, PRUNE_EPS, TooManyBranches, distribution
from .predication import OrVal
from .qccd import (
    ClassicalItem,
    ExecProgram,
    LayerItem,
    MarkItem,
    OutputItem,
    TransportItem,
)
from .regalloc import PReg


class ZoneViolation(Exception):
    """A broken invariant, not rejected input: an operation ran while its ions were not in the planned slots."""


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
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise IonflowError(f"{f.name}={v!r} is not a number")
            if f.name != "prep_overrotation" and not 0.0 <= v <= 1.0:
                raise IonflowError(f"{f.name}={v} outside [0, 1]")
        if not abs(self.prep_overrotation) <= sys.float_info.max:  # also an int too large for a float
            raise IonflowError(f"prep_overrotation={self.prep_overrotation} is not finite")

    @property
    def is_noiseless(self) -> bool:
        return self == NOISELESS

    @staticmethod
    def from_json(text: str) -> "NoiseModel":
        return config_from_json(NoiseModel, text)


NOISELESS = NoiseModel()

# Synthetic defaults only: plausible magnitudes, not measured device data.
H1E_LIKE = NoiseModel(p1=1e-4, p2=3e-3, p_meas=3e-3, p_reset=3e-3, p_transport=2e-4, p_idle=1e-4)


@dataclass(frozen=True)
class ShotResult:
    outputs: tuple
    executed_transport_steps: int
    executed_gates: int
    skipped_blocks: int
    measures_per_qubit: tuple[int, ...]


SHOT_BATCH = 256  # shots per batch; fixed, because each batch has its own RNG stream
ENUM_AMPLITUDES = 1 << 14  # an enumeration batch splits beyond this many amplitudes
MAX_BATCH_AMPLITUDES = 1 << 24  # cap on SHOT_BATCH × 2ⁿ (256 MiB of complex128, 16 qubits), result slots or registers
FUSE_QUBITS = 4  # a layer's gates are applied as unitaries on at most this many qubits each


@functools.cache
def _axes(n: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order that puts ``qubits`` last in a (rows, 2, ..., 2) state, and its inverse."""
    last = [n - q for q in qubits]  # axis 1 holds the top qubit n - 1
    order = (0, *(a for a in range(1, n + 1) if a not in last), *last)
    return order, tuple(np.argsort(order).tolist())


# Batched kernels: ``states`` is (rows, 2**n), one state vector per row, and
# the noise kernels take one uniform draw per row (and per qubit for dephasing).

def apply_unitary(states: np.ndarray, u: np.ndarray, qubits: tuple[int, ...], n: int) -> None:
    """Apply ``u`` to ``qubits`` of every row; ``qubits[0]`` is the top bit of u's index."""
    order, inverse = _axes(n, qubits)
    v = states.reshape((len(states),) + (2,) * n).transpose(order)
    out = v.reshape(-1, len(u)) @ u.T
    states[:] = out.reshape(v.shape).transpose(inverse).reshape(states.shape)


_I_POWERS = np.array([1, 1j, -1, -1j])


def _apply_paulis(states: np.ndarray, rows: np.ndarray, xmask: np.ndarray, zmask: np.ndarray, n_y: np.ndarray) -> None:
    """Row ``rows[j]`` gets i**n_y[j] X^xmask[j] Z^zmask[j] (masks over qubit bits)."""
    idx = np.arange(states.shape[1])
    sub = states[rows] * np.where(np.bitwise_count(idx & zmask[:, None]) & 1, -1.0, 1.0)
    states[rows] = np.take_along_axis(sub, idx ^ xmask[:, None], axis=1) * _I_POWERS[n_y % 4][:, None]


def apply_depolarizing(states: np.ndarray, qubits: tuple[int, ...], p: float, u: np.ndarray) -> None:
    """A uniformly random non-identity Pauli on the operands of each row whose draw ``u`` is below p."""
    rows = (u < p).nonzero()[0]
    if not len(rows):
        return
    # below p, u / p is uniform on [0, 1) again, and picks the Pauli
    n_paulis = 4 ** len(qubits) - 1
    choice = 1 + np.minimum((u[rows] / p * n_paulis).astype(np.int64), n_paulis - 1)
    xmask = np.zeros(len(rows), np.int64)
    zmask = np.zeros(len(rows), np.int64)
    for q in qubits:
        pauli = choice & 3  # 1 = X, 2 = Y = iXZ, 3 = Z
        choice >>= 2
        xmask |= ((pauli == 1) | (pauli == 2)).astype(np.int64) << q
        zmask |= (pauli >= 2).astype(np.int64) << q
    _apply_paulis(states, rows, xmask, zmask, np.bitwise_count(xmask & zmask))


def apply_dephasing(states: np.ndarray, qubits: tuple[int, ...], p: float, u: np.ndarray) -> None:
    """A Z on qubit ``qubits[j]`` of each row whose draw ``u[:, j]`` is below p (a qubit may repeat)."""
    hits = u < p
    rows = hits.any(1).nonzero()[0]
    if len(rows):
        zmask = np.bitwise_xor.reduce(np.where(hits[rows], 1 << np.array(qubits), 0), axis=1)
        zero = np.zeros_like(zmask)
        _apply_paulis(states, rows, zero, zmask, zero)


_NP_OPS = {
    "and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor, "add": np.add, "sub": np.subtract,
    "mul": np.multiply, "eq": np.equal, "ne": np.not_equal, "lt": np.less, "le": np.less_equal,
    "gt": np.greater, "ge": np.greater_equal,
}


def _exec_classical(instrs: tuple, regs: np.ndarray, slots: np.ndarray) -> None:
    """Run classical instructions on every row of ``regs`` (rows, K) and ``slots`` (rows, R).

    Integer registers wrap at 64 bits like ``wrap_i64``; in a float register
    file, ``and``/``or``/``xor`` truncate their operands to integers first.
    """

    def fetch(v):
        return regs[:, v.index] if type(v) is PReg else v

    for ins in instrs:
        if type(ins) is ReadResult:
            value = slots[:, ins.slot]
        elif type(ins) is Select:
            value = np.where(fetch(ins.cond) != 0, fetch(ins.a), fetch(ins.b))
        else:
            a, b = fetch(ins.a), fetch(ins.b)
            if type(ins) is BinOp and ins.op in ("and", "or", "xor") and regs.dtype.kind == "f":
                a, b = np.asarray(a).astype(np.int64), np.asarray(b).astype(np.int64)
            value = _NP_OPS[ins.op](a, b)
        regs[:, ins.dst.index] = value


def batch_seed(master_seed: int, batch_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(batch_index,))


# ---------------------------------------------------------------------------
# Compiled runtime: items are lowered once into tag/tuple form, with guards
# as register indices and index arrays and unitaries precomputed. A layer
# draws its uniforms as one (rows, width) array; each draw site owns a column.
# ---------------------------------------------------------------------------

_MARK, _CLASSICAL, _TRANSPORT, _LAYER, _OUTPUT = range(5)
_OP_MEASURE, _OP_RESET = range(2)
_ALL = slice(None)  # every row of a batch
_CODE = {kind: 2 + i for i, kind in enumerate(OUTPUT_TOKEN)}  # output codes; 0 and 1 are result bits
_DECODE = (0, 1, *OUTPUT_TOKEN.values())


def _cguard(g):
    """None runs every row; a register index or a tuple of them (an OR) gives a row mask."""
    if isinstance(g, bool):
        return None if g else ()
    if isinstance(g, PReg):
        return g.index
    if isinstance(g, OrVal):
        if any(p is True for p in g.parts):
            return None
        return tuple(p.index for p in g.parts if p is not False)
    raise TypeError(f"bad exec guard {g!r}")


@functools.cache
def _collapse_tables(n: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    idx = np.arange(1 << n)
    bit = (idx >> q) & 1 == 1
    sel = np.stack([~bit, bit], axis=1).astype(float)  # state weights @ sel = (p0, p1) per row
    return sel, bit, idx ^ (1 << q)


def _compile_layer(item: LayerItem, n: int, noise: NoiseModel) -> tuple:
    """Everything of a layer item but its guard.

    Ops in a layer act on disjoint qubits and commute, so the gates run
    first, fused into unitaries on up to FUSE_QUBITS qubits; each gate's
    depolarizing follows, then the measurements and resets.
    """
    fused: list[tuple[np.ndarray, tuple[int, ...]]] = []
    depolarize, collapses = [], []
    col = 0  # next column of the layer's uniforms
    for op in item.ops:
        if op.kind == "gate":
            angle = None if op.angle is None else float(op.angle) + noise.prep_overrotation
            if angle is not None and not math.isfinite(angle):
                raise IonflowError(f"{op.name}({op.angle}) plus prep_overrotation={noise.prep_overrotation} is not finite")
            u, qubits = G.gate_unitary(op.name, angle), op.qubits
            if fused and len(fused[-1][1]) + len(qubits) <= FUSE_QUBITS:
                a, top = fused.pop()  # kron(a, u): a's qubits are the top bits
                u, qubits = (a[:, None, :, None] * u[None, :, None, :]).reshape(len(a) * len(u), -1), top + qubits
            fused.append((u, qubits))
            p = noise.p2 if op.name == "cx" else noise.p1
            if p > 0.0:
                depolarize.append((op.qubits, p, col))
                col += 1
        else:
            p = noise.p_meas if op.kind == "measure" else noise.p_reset
            tag = _OP_MEASURE if op.kind == "measure" else _OP_RESET
            collapses.append((tag, op.qubits[0], op.slot, *_collapse_tables(n, op.qubits[0]), p, col))
            col += 1 + (p > 0.0)
    idle = item.idle_qubits if noise.p_idle > 0.0 else ()
    qs, slots = np.array(item.expected_slots, dtype=np.int64).reshape(-1, 2).T
    n_gates = sum(op.kind == "gate" for op in item.ops)
    return qs, slots, tuple(fused), tuple(depolarize), tuple(collapses), idle, col, col + len(idle), n_gates


def _compile_transport(steps: tuple, slots: int) -> tuple:
    occupant = list(range(slots))  # occupant[s]: the slot whose content is now in slot s
    for st in steps:
        for a, b in st:
            occupant[a], occupant[b] = occupant[b], occupant[a]
    # its inverse, the composed slot permutation: where something starting at slot s ends up
    return np.argsort(occupant), len(steps)


@dataclass
class _Runtime:
    n_qubits: int
    n_results: int
    n_regs: int
    n_outputs: int
    reg_dtype: type
    canonical: tuple[int, ...]
    noise: NoiseModel
    items: list
    seg_end: list[int]  # first item after k outside item k's guard segment
    seg_marks: list[int]  # marks from item k to seg_end[k]


def _compile_runtime(prog: ExecProgram, noise: NoiseModel) -> _Runtime:
    n = prog.n_qubits
    if SHOT_BATCH << n > MAX_BATCH_AMPLITUDES:
        most = (MAX_BATCH_AMPLITUDES // SHOT_BATCH).bit_length() - 1
        raise IonflowError(f"program declares {n} qubits; the emulator runs at most {most}")
    for count, what in ((prog.n_results, "result slots"), (prog.n_regs, "registers")):
        if SHOT_BATCH * count > MAX_BATCH_AMPLITUDES:
            raise IonflowError(f"program uses {count} {what}; the emulator runs at most {MAX_BATCH_AMPLITUDES // SHOT_BATCH}")
    items: list = []
    n_outputs = 0
    floats = False
    bodies: dict = {}  # layers and transport steps repeat; each distinct one compiles once
    for item in prog.items:
        kind = type(item)
        g = _cguard(item.guard)
        if kind is LayerItem:
            key = (item.ops, item.expected_slots, item.idle_qubits)
            if key not in bodies:
                bodies[key] = _compile_layer(item, n, noise)
            items.append((_LAYER, g, *bodies[key]))
        elif kind is MarkItem:
            items.append((_MARK, g))
        elif kind is ClassicalItem:
            items.append((_CLASSICAL, g, item.instrs))
            floats |= any(type(i) in (BinOp, Select) and float in (type(i.a), type(i.b)) for i in item.instrs)
        elif kind is TransportItem:
            if item.steps not in bodies:
                bodies[item.steps] = _compile_transport(item.steps, prog.trap.slots)
            items.append((_TRANSPORT, g if prog.conditional_transport else None, *bodies[item.steps]))
        elif kind is OutputItem:
            items.append((_OUTPUT, g, _CODE.get(item.kind), item.slot, n_outputs))
            n_outputs += 1
        else:  # pragma: no cover
            raise TypeError(f"cannot compile {item!r}")
    # a guard segment runs on while the guard stays the same and no classical item writes a register it reads
    seg_end = [0] * (len(items) + 1)
    seg_marks = [0] * (len(items) + 1)
    for k in reversed(range(len(items))):
        g = items[k][1]
        same = k + 1 < len(items) and items[k + 1][1] == g
        if same and items[k][0] == _CLASSICAL and g is not None:
            reads = set(g) if type(g) is tuple else {g}
            same = all(ins.dst.index not in reads for ins in items[k][2])
        seg_end[k] = seg_end[k + 1] if same else k + 1
        seg_marks[k] = (items[k][0] == _MARK) + (seg_marks[k + 1] if same else 0)
    dtype = np.float64 if floats else np.int64
    return _Runtime(n, prog.n_results, prog.n_regs, n_outputs, dtype, prog.canonical, noise, items, seg_end, seg_marks)


@dataclass
class _Batch:
    """Per-row arrays of a batch: a row is a shot when sampling and a path when enumerating."""

    state: np.ndarray  # (B, 2**n) amplitudes
    regs: np.ndarray  # (B, K) registers, float64 when the program has a float literal
    slots: np.ndarray  # (B, R) result slots
    place: np.ndarray  # (B, n) trap slot of each qubit
    measures: np.ndarray  # (B, n) measurements per qubit
    out: np.ndarray  # (B, outputs) output code per output item, -1 where its guard was false
    transport: np.ndarray  # (B,) executed transport steps
    gates: np.ndarray  # (B,) executed gates
    skipped: np.ndarray  # (B,) block marks whose guard was false
    weight: np.ndarray  # (B,) path probability
    events: np.ndarray  # (B,) branch events on the path

    @staticmethod
    def start(rt: _Runtime, rows: int) -> "_Batch":
        state = np.zeros((rows, 1 << max(rt.n_qubits, 1)), dtype=complex)
        state[:, 0] = 1.0
        counter = lambda: np.zeros(rows, np.int64)  # noqa: E731
        return _Batch(
            state, np.zeros((rows, rt.n_regs), rt.reg_dtype), np.zeros((rows, rt.n_results), np.int8),
            np.tile(np.array(rt.canonical, dtype=np.int64), (rows, 1)), np.zeros((rows, rt.n_qubits), np.int64),
            np.full((rows, rt.n_outputs), -1, np.int8), counter(), counter(), counter(), np.ones(rows), counter(),
        )

    def take(self, rows) -> "_Batch":
        return _Batch(*(getattr(self, f.name)[rows] for f in fields(self)))

    def fork(self, parents: np.ndarray) -> np.ndarray:
        """Append a copy of each parent row; returns the new rows' indices."""
        first = len(self.weight)
        for f in fields(self):
            a = getattr(self, f.name)
            setattr(self, f.name, np.concatenate([a, a[parents]]))
        return np.arange(first, len(self.weight))

    def outputs(self) -> list[tuple]:
        return [tuple(_DECODE[v] for v in row if v >= 0) for row in self.out.tolist()]


def _walk(rt: _Runtime, b: _Batch, rng: np.random.Generator | None, start: int = 0, max_rows: int = 0) -> int | None:
    """Run every row of ``b`` from item ``start`` to the end of the program.

    The walk goes one guard segment at a time: the segment's row mask is
    computed once, and the active rows' states are gathered on first use and
    scattered back at its end. With an RNG every measurement and reset
    outcome is drawn per row. Without one (noiseless enumeration) a row with
    two live outcomes forks; the copy is an active row of the same segment.
    Returns None at the end, or the item to resume from once the batch has
    grown past ``max_rows`` rows.
    """
    items = rt.items
    p_transport = rt.noise.p_transport
    qubits = tuple(range(rt.n_qubits))
    k = start
    while k < len(items):
        if max_rows and len(b.weight) > max_rows:
            return k
        g = items[k][1]
        end = rt.seg_end[k]
        R = _ALL
        if g is not None:
            m = b.regs[:, g] != 0
            if type(g) is tuple:
                m = m.any(1)
            c = np.count_nonzero(m)
            if c == 0:  # nothing in the segment executes
                b.skipped += rt.seg_marks[k]
                k = end
                continue
            if c < len(m):
                R = m.nonzero()[0]
                if rt.seg_marks[k]:
                    b.skipped += ~m * rt.seg_marks[k]
        st = None  # the active rows of b.state, gathered on first use
        while k < end:
            item = items[k]
            k += 1
            tag = item[0]
            if tag == _LAYER:
                st, R = _run_layer(rt, b, R, b.state[R] if st is None else st, item, rng)
                if max_rows and len(b.weight) > max_rows:
                    break
            elif tag == _CLASSICAL:
                regs = b.regs[R]
                _exec_classical(item[2], regs, b.slots[R])
                if R is not _ALL:
                    b.regs[R] = regs
            elif tag == _TRANSPORT:
                b.place[R] = item[2][b.place[R]]
                b.transport[R] += item[3]
                if p_transport > 0.0:
                    if st is None:
                        st = b.state[R]
                    apply_dephasing(st, qubits * item[3], p_transport, rng.random((len(st), len(qubits) * item[3])))
            elif tag == _OUTPUT:
                b.out[R, item[4]] = b.slots[R, item[3]] if item[2] is None else item[2]
            # a mark counts only the segment's inactive rows, above
        if st is not None and R is not _ALL:
            b.state[R] = st
    return None


def _run_layer(rt: _Runtime, b: _Batch, R, st: np.ndarray, item: tuple, rng):
    """Run a layer on the rows ``R`` of ``b``, whose states ``st`` it updates in place.

    Returns ``st`` and ``R``, both grown by any rows the layer forked.
    """
    _, _, qs, expected, fused, depolarize, collapses, idle, idle_col, width, n_gates = item
    n = rt.n_qubits
    if len(qs):
        bad = b.place[R][:, qs] != expected
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise ZoneViolation(f"qubit {qs[j]} at slot {b.place[R][row, qs[j]]}, plan expected {expected[j]}")
    b.gates[R] += n_gates
    u = rng.random((len(st), width)) if rng is not None and width else None
    for unitary, qubits in fused:
        apply_unitary(st, unitary, qubits, n)
    for qubits, p, col in depolarize:
        apply_depolarizing(st, qubits, p, u[:, col])
    for op in collapses:
        st, R = _collapse(b, R, st, op, u)
    if idle:
        apply_dephasing(st, idle, rt.noise.p_idle, u[:, idle_col:])
    return st, R


def _collapse(b: _Batch, R, st: np.ndarray, op: tuple, u: np.ndarray | None):
    """Measure or reset one qubit in every row of ``st``; returns ``st`` and ``R`` after any forks."""
    otag, q, slot, sel, bit, flip, p_noise, col = op
    p = np.abs(st) ** 2 @ sel  # (rows, 2): weight of the |0> and |1> arms
    norm = p.sum(1)
    drift = np.abs(norm - 1.0)
    if not drift.max() <= 1e-9:  # NaN fails this too
        raise FloatingPointError(f"state norm drifted to {norm[drift.argmax()]}")
    if u is not None:
        one = u[:, col] * norm < p[:, 1]
    else:
        live = p > PRUNE_EPS
        one = ~live[:, 0]  # only the |1> arm is live
        both = live.all(1)
        for j in both.nonzero()[0] if otag == _OP_RESET else ():
            # a reset whose two arms leave the same state up to phase does not branch
            arm0 = st[j] * ~bit / math.sqrt(p[j, 0])
            arm1 = (st[j] * bit / math.sqrt(p[j, 1]))[flip]
            both[j] = not G.equal_up_to_phase(arm0, arm1)
        if both.any():
            parents = both.nonzero()[0] if R is _ALL else R[both]
            new = b.fork(parents)
            b.weight[parents] *= p[both, 0]
            b.weight[new] *= p[both, 1]
            b.events[parents] += 1
            b.events[new] += 1
            if b.events[new].max() > MAX_BRANCH_EVENTS:
                raise TooManyBranches(f"more than {MAX_BRANCH_EVENTS} branch events on a path")
            if R is _ALL:
                st = b.state
            else:
                st = np.concatenate([st, st[both]])
                R = np.concatenate([R, new])
            p = np.concatenate([p, p[both]])
            one = np.concatenate([one, np.ones(len(new), bool)])
    st *= (bit == one[:, None]) / np.sqrt(np.where(one, p[:, 1], p[:, 0]))[:, None]
    if p_noise > 0.0:  # a flipped record, or a reset that leaves |1>
        one = one ^ (u[:, col + 1] < p_noise)
    if otag == _OP_MEASURE:
        b.slots[R, slot] = one
        b.measures[R, q] += 1
    elif one.any():  # a reset flips |1> to |0>
        st[one] = st[one][:, flip]
    return st, R


def _run_batch(rt: _Runtime, master_seed: int, batch_index: int, rows: int) -> list[ShotResult]:
    b = _Batch.start(rt, rows)
    _walk(rt, b, np.random.Generator(np.random.PCG64(batch_seed(master_seed, batch_index))))
    counters = (b.transport.tolist(), b.gates.tolist(), b.skipped.tolist(), map(tuple, b.measures.tolist()))
    return list(map(ShotResult, b.outputs(), *counters))


def _run_batches(args) -> list[ShotResult]:
    prog, noise, master_seed, n_shots, batches = args
    rt = _compile_runtime(prog, noise)
    out: list[ShotResult] = []
    for i in batches:
        out.extend(_run_batch(rt, master_seed, int(i), min(SHOT_BATCH, n_shots - int(i) * SHOT_BATCH)))
    return out


def run_shots(
    prog: ExecProgram,
    noise: NoiseModel,
    n_shots: int,
    master_seed: int,
    jobs: int = 1,
) -> list[ShotResult]:
    """n_shots independent shots; identical results for any jobs value."""
    if n_shots < 1:
        raise IonflowError("need at least one shot")
    if master_seed < 0:
        raise IonflowError(f"seed must be >= 0, got {master_seed}")
    n_batches = -(-n_shots // SHOT_BATCH)
    parts = np.array_split(np.arange(n_batches), max(1, min(jobs, n_batches)))
    if len(parts) == 1:
        return _run_batches((prog, noise, master_seed, n_shots, parts[0]))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=len(parts)) as pool:
        done = pool.map(_run_batches, [(prog, noise, master_seed, n_shots, part) for part in parts])
    return [shot for part in done for shot in part]


# ---------------------------------------------------------------------------
# Exact noiseless enumeration: the same walk, with paths as rows
# ---------------------------------------------------------------------------

@dataclass
class ExecLeaf:
    prob: float
    outputs: tuple
    state: np.ndarray
    executed_transport_steps: int


def enumerate_exec_leaves(prog: ExecProgram) -> list[ExecLeaf]:
    """All terminal paths of a lowered program with exact probabilities."""
    rt = _compile_runtime(prog, NOISELESS)
    max_rows = max(1, ENUM_AMPLITUDES >> rt.n_qubits)
    leaves: list[ExecLeaf] = []
    todo = [(_Batch.start(rt, 1), 0)]
    while todo:  # a batch that grows too large goes on in halves, first half first
        b, k = todo.pop()
        k = _walk(rt, b, None, k, max_rows)
        if k is not None:
            half = len(b.weight) // 2
            todo += [(b.take(slice(half, None)), k), (b.take(slice(0, half)), k)]
            continue
        leaves.extend(map(ExecLeaf, b.weight.tolist(), b.outputs(), b.state, b.transport.tolist()))
    return leaves


def enumerate_outcomes(prog: ExecProgram) -> dict[tuple, float]:
    """Exact output distribution of a lowered program (noiseless)."""
    return distribution(enumerate_exec_leaves(prog))
