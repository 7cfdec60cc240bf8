"""Batched execution of lowered programs with stochastic Pauli noise.

One interpreter, ``_walk``, runs a compiled program once for a batch of
rows. A batch holds a (B, 2**n) state, (B, K) registers, K being 1 + the
largest register index the program names (all zero at the start), (B, R)
result slots, each row's ion placement and its counters.

``_compile_runtime`` compiles the flat item list, in one forward pass, into
one entry per guard segment: a maximal run of items that share one guard,
in which no classical item writes a register the guard reads, so the guard
holds the same value on every row through the whole segment. Shared
transport, transport whose guard is always true so that every row runs it,
joins the segment it meets, unless a classical item has just closed it.
Repeated layers, transport and segment bodies are built once, and gate
matrices and transport permutations once across programs. The walk runs
one entry at a time. At its head every row gets its shared transport's
composed slot permutation and steps, and the guard becomes a row mask.
The inactive rows count the segment's marks as skipped and get the shared
transport's dephasing where it stands. An all-false mask runs nothing
else. Otherwise the segment's head runs once for its active rows:

* its zone checks: each layer's expected (qubit, slot) pairs, each slot
  mapped back through the segment's transport before that layer, so the
  check reads the placement at the head;
* all its transport composed, applied to the head's placement, with its
  other steps and its gate count (a row forked later inherits them).

Its ops then run in order on the active rows' states, gathered once and
scattered back at its end: unitaries, each layer's noise draws and
collapses, classical items, outputs and, under noise, transport dephasing.
A shared transport's dephasing draws for every row of the batch and
updates the inactive rows' states in place. A layer whose draws fire no
noise event runs only its collapses, and a dephasing draw below no
threshold calls no kernel. Every draw keeps its place and shape, so the
RNG streams do not depend on this grouping. Up to ``MATRIX_QUBITS`` qubits
a layer's gates are one 2ⁿ×2ⁿ matrix applied as ``st @ m``, and the layers
between two ops that draw or collapse fuse into one matrix; that is every
run of gate layers up to the next measurement, reset or segment end when
p1 = p2 = p_idle = p_transport = 0, since over-rotation changes only the
matrices, and shared transport without noise draws nothing. Wider
registers apply the same runs gate by gate.

Noise is trajectory-based, drawn once per draw site for the rows that
reach it: depolarizing after gates, dephasing per executed transport step
and per idle layer, classical flips on measurement records and resets, and
a systematic over-rotation added to every rotation angle.

Transport items carry the entry predicate of their chain. In conditional
mode a false predicate skips the steps entirely (no counter increase, no
transport dephasing); in always mode every transport item is shared and
only gates, measurements and classical operations remain predicated.

The rows are shots when sampling and paths when enumerating; they differ
only at a measurement or reset. A shot draws the outcome from its batch's
RNG. ``enumerate_outcomes`` passes no RNG: a path with two live outcomes
forks into two rows, each weighted by its arm's probability. It returns the
exact noiseless output distribution, within a branching budget.

A program's runtime is built once per noise model, on its first use, and
lives as long as the program: enumeration and sampling of one program share
it, and its arrays are read-only. With several workers, ``run_shots``
builds it before forking them, and each worker inherits it.

Determinism: shots run in batches of the fixed size ``SHOT_BATCH``, and
batch ``b`` draws from ``SeedSequence(master_seed, spawn_key=(b,))``, so
results do not depend on the number of worker processes and are always
merged in shot order. Each worker runs a contiguous range of batches. A run
returns at most ``MAX_SHOTS`` shots and starts at most ``MAX_JOBS`` workers;
a larger count is refused before anything is allocated or started.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import sys
import weakref
from dataclasses import dataclass, fields
from typing import NamedTuple

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
SHOT_BYTES = 120  # memory one shot's ShotResult and list entry take at least (CPython 3.11)
MAX_SHOTS = (64 << 30) // SHOT_BYTES  # shots per run: more would need a result list over 64 GiB
# Worker processes per run. Each is a fork of the caller, and a worker beyond the
# host's cores only waits for one, so a larger count could only exhaust processes.
MAX_JOBS = 256
ENUM_AMPLITUDES = 1 << 14  # an enumeration batch splits beyond this many amplitudes
MAX_BATCH_AMPLITUDES = 1 << 24  # cap on SHOT_BATCH × 2ⁿ (256 MiB of complex128, 16 qubits), result slots or registers
MATRIX_QUBITS = 5  # up to this many qubits a layer's gates are one 2ⁿ×2ⁿ matrix; MSD, the widest table program, has 5


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


def apply_dephasing(states: np.ndarray, qubits: tuple[int, ...], p: float, u: np.ndarray, rows=None) -> None:
    """A Z on qubit ``qubits[j]`` of row i, or of row ``rows[i]``, whose draw ``u[i, j]`` is below p (a qubit may repeat)."""
    hits = u < p
    hit = hits.any(1).nonzero()[0]
    if len(hit):
        zmask = np.bitwise_xor.reduce(np.where(hits[hit], 1 << np.array(qubits), 0), axis=1)
        zero = np.zeros_like(zmask)
        _apply_paulis(states, hit if rows is None else rows[hit], zero, zmask, zero)


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
# Compiled runtime: one entry per guard segment, with its guard as register
# indices. An entry holds what runs once at the segment's head (the zone
# checks, the composed slot permutation, the step and gate counts) and an
# ordered op list for its active rows: unitaries, layer draws, classical
# items, outputs and transport dephasing. A layer draws its uniforms as one
# (rows, width) array; each draw site owns a column.
# ---------------------------------------------------------------------------

# item bodies, then ops
_MARK, _TRANSPORT, _LAYER, _CLASSICAL, _OUTPUT, _MATRIX, _GROUPS, _DRAWS, _DEPHASE = range(9)
_MARK_BODY = (_MARK,)
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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, read-only: a runtime serves every consumer of its program."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _collapse_tables(n: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    idx = np.arange(1 << n)
    bit = (idx >> q) & 1 == 1
    sel = np.stack([~bit, bit], axis=1).astype(float)  # state weights @ sel = (p0, p1) per row
    return _frozen(sel, bit, idx ^ (1 << q))


@functools.lru_cache(maxsize=128)
def _unitary(run: tuple, n: int):
    """Consecutive layers' gates as one read-only 2ⁿ×2ⁿ matrix, or above MATRIX_QUBITS one ``(matrix, qubits)`` per gate.

    A layer is a tuple of gates, each ``(name, angle with over-rotation,
    qubits)``, so the result depends on the key alone. The cache spans
    programs, whose rounds and limits repeat their layers: a sweep uses a
    few dozen runs. The matrix is in row form: ``st @ m`` applies the gates
    to every row. Fixed gates' matrices are read-only constants of ``gates``;
    rotations' are built here, and frozen where the result keeps them.
    """
    gates = tuple((G.gate_unitary(name, angle), qubits) for layer in run for name, angle, qubits in layer)
    if n > MATRIX_QUBITS:
        _frozen(*(u for u, _ in gates if u.flags.writeable))
        return gates
    m = np.eye(1 << n, dtype=complex)
    for u, qubits in gates:
        apply_unitary(m, u, qubits, n)  # row i becomes U e_i, so (st @ m)[r] = U st[r]
    return _frozen(m)[0]


def _compile_layer(item: LayerItem, n: int, noise: NoiseModel) -> tuple:
    """A layer's body: ``(_LAYER, qubits, planned slots, gates, draws)``.

    Ops in a layer act on disjoint qubits and commute, so the gates run
    first (``_unitary`` of ``gates``, empty for none); each gate's
    depolarizing follows, then the measurements and resets. ``draws`` is
    None for a layer that neither draws nor collapses. Its last field is a
    read-only threshold per column of the layer's uniforms: a draw below it
    is a noise event, and an outcome column's threshold is 0. It is None
    when every threshold is 0, so a noiseless layer makes no check.
    """
    gates, depolarize, collapses, thr = [], [], [], []  # len(thr): the next column
    for op in item.ops:
        if op.kind == "gate":
            angle = None if op.angle is None else float(op.angle) + noise.prep_overrotation
            if angle is not None and not math.isfinite(angle):
                raise IonflowError(f"{op.name}({op.angle}) plus prep_overrotation={noise.prep_overrotation} is not finite")
            gates.append((op.name, angle, op.qubits))
            p = noise.p2 if op.name == "cx" else noise.p1
            if p > 0.0:
                depolarize.append((op.qubits, p, len(thr)))
                thr.append(p)
        else:
            p = noise.p_meas if op.kind == "measure" else noise.p_reset
            tag = _OP_MEASURE if op.kind == "measure" else _OP_RESET
            collapses.append((tag, op.qubits[0], op.slot, *_collapse_tables(n, op.qubits[0]), p, len(thr)))
            thr += [0.0, p] if p > 0.0 else [0.0]
    idle = item.idle_qubits if noise.p_idle > 0.0 else ()
    col = len(thr)
    thr += [noise.p_idle] * len(idle)
    thr = _frozen(np.array(thr))[0] if any(thr) else None  # None: no column can fire
    draws = (_DRAWS, tuple(depolarize), tuple(collapses), idle, col, col + len(idle), thr) if col or idle else None
    qs, slots = _frozen(*np.array(item.expected_slots, dtype=np.int64).reshape(-1, 2).T)
    return _LAYER, qs, slots, tuple(gates), draws


@functools.lru_cache(maxsize=256)
def _compile_transport(steps: tuple, slots: int) -> tuple:
    """A transport's read-only slot permutation, its inverse and its step count; cached across programs."""
    occupant = list(range(slots))  # occupant[s]: the slot whose content is now in slot s
    for st in steps:
        for a, b in st:
            occupant[a], occupant[b] = occupant[b], occupant[a]
    # its inverse, the composed slot permutation: where something starting at slot s ends up
    perm = np.argsort(occupant)
    return (*_frozen(perm, np.argsort(perm)), len(steps))


class _Segment(NamedTuple):
    """A guard segment's work: its head's, done once for its active rows, then its ops in order."""

    marks: int  # block marks, counted as skipped on the inactive rows
    zone_qubits: np.ndarray | None  # every layer's expected (qubit, slot), the slot mapped back
    zone_slots: np.ndarray | None  # through the transport before it to the placement at the head
    zone: tuple  # per layer (qubits, planned slots, slot permutation before it or None), for the message
    perm: np.ndarray | None  # composed slot permutation of the segment's transport
    steps: int  # transport steps
    gates: int
    ops: tuple
    state: bool  # some op touches the state
    shared_perm: np.ndarray | None  # composed slot permutation of its shared transport alone, run by every row
    shared_steps: int
    shared: tuple  # the shared transport's dephasing ops, for a segment with no active row


def _unitary_op(run: list, n: int) -> tuple:
    return _MATRIX if n <= MATRIX_QUBITS else _GROUPS, _unitary(tuple(run), n)


def _segment(parts: list, n: int) -> _Segment:
    """Build a segment from its items' bodies, in order.

    Unitaries run as late as the next op that touches the state, so the
    layers between two draws or collapses fuse into one op: one matrix, or
    above MATRIX_QUBITS their gates in order. Classical items and outputs do
    not touch the state.
    """
    marks = steps = gates = shared_steps = 0
    perm = inv = shared_perm = None
    zone, zone_slots, ops, run, shared = [], [], [], [], []
    state = False
    for part in parts:
        tag = part[0]
        if tag == _MARK:
            marks += 1
        elif tag == _TRANSPORT:
            _, t, t_inv, n_steps, dephase, is_shared = part
            perm, inv = (t, t_inv) if perm is None else _frozen(t[perm], inv[t_inv])
            steps += n_steps
            if is_shared:
                shared_perm = t if shared_perm is None else _frozen(t[shared_perm])[0]
                shared_steps += n_steps
                shared += [dephase] if dephase else []
            if dephase:
                if run:
                    ops.append(_unitary_op(run, n))
                    run = []
                ops.append(dephase)
                state = True
        elif tag == _LAYER:
            _, qs, planned, layer_gates, draws = part
            gates += len(layer_gates)
            if len(qs):
                zone.append((qs, planned, perm))
                zone_slots.append(planned if inv is None else inv[planned])
            if layer_gates:
                run.append(layer_gates)
            if draws:
                if run:
                    ops.append(_unitary_op(run, n))
                    run = []
                ops.append(draws)
                state = True
        else:
            ops.append(part)
    if run:
        ops.append(_unitary_op(run, n))
        state = True
    zq = zs = None
    if len(zone) == 1:
        zq, zs = _frozen(zone[0][0], zone_slots[0])
    elif zone:
        zq, zs = _frozen(np.concatenate([z[0] for z in zone]), np.concatenate(zone_slots))
    return _Segment(marks, zq, zs, tuple(zone), perm, steps, gates, tuple(ops), state, shared_perm, shared_steps, tuple(shared))


@dataclass
class _Runtime:
    n_qubits: int
    n_results: int
    n_regs: int  # 1 + the largest register index the program names, not the register file's size
    n_outputs: int
    reg_dtype: type
    canonical: tuple[int, ...]
    noise: NoiseModel
    segments: list  # per guard segment: (guard, index of its first item, _Segment, classical instructions)


def _compile_runtime(prog: ExecProgram, noise: NoiseModel) -> _Runtime:
    n = prog.n_qubits
    if SHOT_BATCH << n > MAX_BATCH_AMPLITUDES:
        most = (MAX_BATCH_AMPLITUDES // SHOT_BATCH).bit_length() - 1
        raise IonflowError(f"program declares {n} qubits; the emulator runs at most {most}")
    # Layers, transport and whole segments repeat, and each distinct one is
    # built once. Lowering shares a layer's ops tuple between its repeats, so a
    # layer is looked up by that tuple's identity (its items hold it alive)
    # before the value of the op fields it reads. A segment is looked up by
    # the identities of its items' bodies; its classical instructions stay
    # out of its body, which names them by position.
    layers, layer_values, transports, bodies = {}, {}, {}, {}
    guards = {}  # by identity too: a register's hash is a Python call
    classical = []  # classical[j]: the body of a segment's j-th classical item
    opened = []  # per segment: its guard, first item, item bodies and classical instructions
    n_outputs = 0
    floats = False
    conditional = prog.conditional_transport
    seg_guard, closed = None, True
    top = -1  # the largest register index a guard or classical instruction names
    for k, item in enumerate(prog.items):
        kind = type(item)
        gid = id(item.guard)
        if gid not in guards:
            cg = guards[gid] = _cguard(item.guard)
            top = max(top, cg if type(cg) is int else max(cg or (-1,)))
        g = guards[gid] if conditional or kind is not TransportItem else None
        shared = g is None and kind is TransportItem  # every row runs it
        if closed or g != seg_guard and not shared:
            # a segment runs on while the guard stays the same and no classical item writes a register it
            # reads; shared transport joins it, and the segment's inactive rows run that transport alone
            parts, instrs = [], []
            opened.append((g, k, parts, instrs))
            seg_guard, closed = g, False
        if kind is LayerItem:
            lk = (id(item.ops), item.expected_slots, item.idle_qubits)
            body = layers.get(lk)
            if body is None:
                ops = tuple((op.kind, op.name, op.qubits, op.angle, op.slot) for op in item.ops)
                vk = (ops, item.expected_slots, item.idle_qubits)
                if vk not in layer_values:
                    layer_values[vk] = _compile_layer(item, n, noise)
                body = layers[lk] = layer_values[vk]
            parts.append(body)
        elif kind is MarkItem:
            parts.append(_MARK_BODY)
        elif kind is TransportItem:
            body = transports.get((item.steps, shared))
            if body is None:
                perm, inv, n_steps = _compile_transport(item.steps, prog.trap.slots)
                dephase = (_DEPHASE, tuple(range(n)) * n_steps, shared) if noise.p_transport > 0.0 and n_steps else None
                body = transports[item.steps, shared] = (_TRANSPORT, perm, inv, n_steps, dephase, shared)
            parts.append(body)
        elif kind is ClassicalItem:
            if len(instrs) == len(classical):
                classical.append((_CLASSICAL, len(instrs)))
            parts.append(classical[len(instrs)])
            instrs.append(item.instrs)
            for ins in item.instrs:  # plain loops, not a generator per item: this runs for every classical item
                floats |= type(ins) in (BinOp, Select) and float in (type(ins.a), type(ins.b))
                for v in vars(ins).values():
                    if type(v) is PReg and v.index > top:
                        top = v.index
            if g is not None:
                reads = set(g) if type(g) is tuple else {g}
                closed = any(ins.dst.index in reads for ins in item.instrs)
        elif kind is OutputItem:
            parts.append((_OUTPUT, _CODE.get(item.kind), item.slot, n_outputs))
            n_outputs += 1
        else:  # pragma: no cover
            raise TypeError(f"cannot compile {item!r}")
    for count, what in ((prog.n_results, "result slots"), (top + 1, "registers")):
        if SHOT_BATCH * count > MAX_BATCH_AMPLITUDES:
            raise IonflowError(f"program uses {count} {what}; the emulator runs at most {MAX_BATCH_AMPLITUDES // SHOT_BATCH}")
    segments = []
    for seg_guard, first, parts, instrs in opened:
        key = tuple(map(id, parts))
        if key not in bodies:
            bodies[key] = _segment(parts, n)
        segments.append((seg_guard, first, bodies[key], tuple(instrs)))
    dtype = np.float64 if floats else np.int64
    return _Runtime(n, prog.n_results, top + 1, n_outputs, dtype, prog.canonical, noise, segments)


# Each program's runtimes, one per noise model, by id(program). A finalizer
# on the program drops its entry, so a runtime lives exactly as long as its
# program, and the id cannot be reused while the entry is there.
_RUNTIMES: dict[int, dict[NoiseModel, _Runtime]] = {}


def _runtime(prog: ExecProgram, noise: NoiseModel) -> _Runtime:
    """The program's runtime under ``noise``, built (and checked) on first use."""
    built = _RUNTIMES.get(id(prog))
    if built is None:
        built = _RUNTIMES[id(prog)] = {}
        weakref.finalize(prog, _RUNTIMES.pop, id(prog), None)
    rt = built.get(noise)
    if rt is None:
        rt = built[noise] = _compile_runtime(prog, noise)
    return rt


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


def _walk(rt: _Runtime, b: _Batch, rng: np.random.Generator | None, start: tuple[int, int] = (0, 0),
          max_rows: int = 0) -> tuple[int, int] | None:
    """Run every row of ``b`` from op ``start[1]`` of segment ``start[0]`` to the end of the program.

    At a segment's head (op 0) every row gets its shared transport's
    permutation and steps, and its row mask is computed. Its inactive rows
    count its marks as skipped; its zone checks read the head's placement
    of its active rows, which get its gate count, its other steps and its
    composed slot permutation. Its ops then run in order on the active
    rows' states, gathered once and scattered back at its end. Shared
    transport's dephasing (only under noise, so never while enumerating)
    also reaches the inactive rows, in ``b.state``. With an RNG every measurement and
    reset outcome is drawn per row. Without one (noiseless enumeration) a
    row with two live outcomes forks; the copy is an active row of the same
    segment and has the head's work already. Returns None at the end, or
    the (segment, op) to resume from once the batch has grown past
    ``max_rows`` rows.
    """
    segments = rt.segments
    p_transport = rt.noise.p_transport
    s, j = start
    while s < len(segments):
        if max_rows and len(b.weight) > max_rows:
            return s, j
        g, _first, seg, instrs = segments[s]
        head = b.place  # the placement at the segment's head
        if j == 0 and seg.shared_perm is not None:  # every row runs the shared transport
            b.place = seg.shared_perm[head]
            b.transport += seg.shared_steps
        R = _ALL
        if g is not None:
            m = b.regs[:, g] != 0
            if type(g) is tuple:
                m = m.any(1)
            c = np.count_nonzero(m)
            if c == 0:  # only the shared transport's dephasing runs, on every row
                if j == 0:
                    if seg.marks:
                        b.skipped += seg.marks
                    for op in seg.shared:
                        apply_dephasing(b.state, op[1], p_transport, rng.random((len(b.weight), len(op[1]))))
                s, j = s + 1, 0
                continue
            if c < len(m):
                R = m.nonzero()[0]
                if seg.marks and j == 0:
                    b.skipped += ~m * seg.marks
        if j == 0:
            place = head if R is _ALL else head[R]
            if seg.zone_qubits is not None and (place[:, seg.zone_qubits] != seg.zone_slots).any():
                _zone_violation(place, seg.zone)
            if seg.gates:
                b.gates[R] += seg.gates
            if seg.steps > seg.shared_steps:  # else its transport is all shared, and every row has it
                b.transport[R] += seg.steps - seg.shared_steps
                b.place[R] = seg.perm[place]
        ops = seg.ops
        st = (b.state if R is _ALL else b.state[R]) if seg.state else None
        for i in range(j, len(ops)):
            op = ops[i]
            tag = op[0]
            if tag == _MATRIX:
                st = st @ op[1]
                if R is _ALL:
                    b.state = st
            elif tag == _DRAWS:
                st, R = _run_draws(rt, b, R, st, op, rng)
                if max_rows and len(b.weight) > max_rows:
                    if R is not _ALL:
                        b.state[R] = st
                    return (s, i + 1) if i + 1 < len(ops) else (s + 1, 0)
            elif tag == _CLASSICAL:
                regs = b.regs[R]
                _exec_classical(instrs[op[1]], regs, b.slots[R])
                if R is not _ALL:
                    b.regs[R] = regs
            elif tag == _OUTPUT:
                b.out[R, op[3]] = b.slots[R, op[2]] if op[1] is None else op[1]
            elif tag == _GROUPS:
                for unitary, qubits in op[1]:
                    apply_unitary(st, unitary, qubits, rt.n_qubits)
            else:  # _DEPHASE; a shared transport's draw covers every row of the batch, the inactive ones in place
                u = rng.random((len(b.weight) if op[2] else len(st), len(op[1])))
                if (u < p_transport).any():
                    if op[2] and R is not _ALL:
                        off = (~m).nonzero()[0]
                        apply_dephasing(b.state, op[1], p_transport, u[off], off)
                        u = u[R]
                    apply_dephasing(st, op[1], p_transport, u)
        if st is not None and R is not _ALL:
            b.state[R] = st
        s, j = s + 1, 0
    return None


def _zone_violation(place: np.ndarray, zone: tuple):
    """Raise for the first layer of a segment whose ions, from the head's ``place``, miss their planned slots."""
    for qs, planned, perm in zone:
        now = place[:, qs] if perm is None else perm[place[:, qs]]
        bad = now != planned
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise ZoneViolation(f"qubit {qs[j]} at slot {now[row, j]}, plan expected {planned[j]}")
    raise AssertionError("a segment's zone check failed but none of its layers' did")  # pragma: no cover


def _run_draws(rt: _Runtime, b: _Batch, R, st: np.ndarray, op: tuple, rng):
    """A layer's draws and collapses on the rows ``R`` of ``b``, whose states ``st`` it updates.

    Returns ``st`` and ``R``, both grown by any rows the layer forked.
    """
    _, depolarize, collapses, idle, idle_col, width, thr = op
    u = rng.random((len(st), width)) if rng is not None else None
    fired = thr is not None and (u < thr).any()  # else no noise event: only the collapses run
    for qubits, p, col in depolarize if fired else ():
        apply_depolarizing(st, qubits, p, u[:, col])
    for c in collapses:
        st, R = _collapse(b, R, st, c, u)
    if idle and fired:
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
    rt, master_seed, n_shots, batches = args
    out: list[ShotResult] = []
    for i in batches:
        out.extend(_run_batch(rt, master_seed, i, min(SHOT_BATCH, n_shots - i * SHOT_BATCH)))
    return out


def _run_inherited(task) -> list[ShotResult]:
    """In a forked worker: the batches of a task, on the runtime ``_RUNTIMES`` held at the fork."""
    prog_id, noise, *rest = task
    return _run_batches((_RUNTIMES[prog_id][noise], *rest))


def check_jobs(jobs: int) -> None:
    """Refuse a worker count outside 1..``MAX_JOBS``."""
    if jobs < 1:
        raise IonflowError(f"--jobs must be at least 1, got {jobs}")
    if jobs > MAX_JOBS:
        raise IonflowError(f"--jobs must be at most {MAX_JOBS}, got {jobs}")


def check_shots(n_shots: int, master_seed: int) -> None:
    """Refuse a shot count outside 1..``MAX_SHOTS`` or a negative seed."""
    if n_shots < 1:
        raise IonflowError("need at least one shot")
    if n_shots > MAX_SHOTS:
        raise IonflowError(f"{n_shots} shots asked; a run returns at most {MAX_SHOTS}")
    if master_seed < 0:
        raise IonflowError(f"seed must be >= 0, got {master_seed}")


def run_shots(
    prog: ExecProgram,
    noise: NoiseModel,
    n_shots: int,
    master_seed: int,
    jobs: int = 1,
) -> list[ShotResult]:
    """n_shots independent shots; identical results for any jobs value.

    With several workers the runtime is built here, and each forked worker
    finds it in its inherited copy of ``_RUNTIMES``; a task is only the
    program's id, the noise model, the seed, the shot count and a batch range.
    """
    check_shots(n_shots, master_seed)
    check_jobs(jobs)
    rt = _runtime(prog, noise)
    n_batches = -(-n_shots // SHOT_BATCH)
    workers = max(1, min(jobs, n_batches))
    parts = [range(n_batches * w // workers, n_batches * (w + 1) // workers) for w in range(workers)]
    if workers == 1:
        return _run_batches((rt, master_seed, n_shots, parts[0]))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        done = pool.map(_run_inherited, [(id(prog), noise, master_seed, n_shots, part) for part in parts])
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
    rt = _runtime(prog, NOISELESS)
    max_rows = max(1, ENUM_AMPLITUDES >> rt.n_qubits)
    leaves: list[ExecLeaf] = []
    todo = [(_Batch.start(rt, 1), (0, 0))]
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
