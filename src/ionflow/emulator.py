"""Batched execution of lowered programs with stochastic Pauli noise.

One interpreter, ``_walk``, runs a compiled program once for a batch of
rows. A batch holds a (B, 2**n) state, (B, K) registers, K being 1 + the
largest register index the program names (all zero at the start), (B, R)
result slots, each row's ion placement and its counters.

``_compile_runtime`` compiles the flat item list, in one forward pass, into
one entry per guard segment: a maximal run of items that share one guard g,
in which no classical item writes a register g reads, so g holds the same
value on every row through the whole segment. All of a segment's transport
runs under one transport guard t, that of its first transport item: g for
its own transport, or another guard h, which an open segment under a
register guard g takes on if no earlier classical item of the segment wrote
a register h reads. In always mode every transport is shared, h being true;
in conditional mode a chain's transport runs under its entry guard, which
each member block's guard implies. A later transport joins only under t,
one under any other guard opens a segment, and a classical item that
writes a register t reads closes the segment. Layer, transport, output,
classical and segment bodies are memoized across programs in ``BODIES``,
the segments by their bodies' identities, so building a program whose
rounds an earlier one built is mostly lookups. So is each gate run, by its
gates: every segment with an equal run shares its matrix and its suffix
products, each built on its first need.

The walk runs one entry at a time. At its head g and t become row masks.
Every row where g holds must satisfy t: ``lower`` guarantees it, since it
chains only a block whose guard implies the chain's and keeps the entry
guard's register live through the chain, and a row that breaks it raises
``ZoneViolation``. The inactive rows count the segment's marks as skipped.
Then, once:

* its zone checks on the active rows: each layer's expected (qubit, slot)
  pairs, each slot mapped back through the segment's transport before that
  layer, so the check reads the placement at the head;
* its gate count on the active rows (a row forked later inherits it);
* its transport composed into one slot permutation, applied with its steps
  to the head's placement of the rows where t holds.

When sampling, one ``random`` call per stream batch (see Determinism) then
draws every uniform the segment needs for that batch's rows, in item order:
each layer's (active rows, width) block and each transport dephasing's
(rows where t holds, width) block. PCG64 fills doubles one after another,
so every uniform has the value and place that a draw per op would give it,
and the RNG streams do not depend on this grouping. One threshold test
over the block finds the noise events; a draw op with no event costs
nothing. A dephasing event on an inactive row where t holds applies in
place, since those rows run none of the segment's layers.

Its ops then run in order on the active rows' states, gathered once and
scattered back at its end: unitaries, collapses, classical items and
outputs. Noise does not shape the op list: only a measurement or reset ends
a run of gate layers, so up to ``MATRIX_QUBITS`` qubits each run is one
2ⁿ×2ⁿ matrix applied as ``st @ m``, the same matrices as without noise;
over-rotation changes only the matrices. A noise op inside a run keeps its
position k and the product S of the run's layers after k. Before each
collapse (its own layer's noise included), and at the segment's end, the
events of the draw ops up to there apply in op order to the rows that drew
them, as ``x @ S⁻¹``, the Pauli, ``x @ S``: the dense analogue of carrying
a Pauli frame (Gidney, Stim, Quantum 5, 497, 2021). A suffix comes from
its run's matrix and the matrix of the run's layers before k. Wider
registers apply each run gate by gate, and there a noise op ends the run and
applies its events at once.

Noise is trajectory-based, drawn once per draw site for the rows that
reach it: depolarizing after gates, dephasing per executed transport step
and per idle layer, classical flips on measurement records and resets, and
a systematic over-rotation added to every rotation angle.

Transport items carry the entry predicate of their chain. In conditional
mode a false predicate skips the steps entirely (no counter increase, no
transport dephasing); in always mode every transport item is shared (its
predicate is taken as true) and only gates, measurements and classical
operations remain predicated.

The rows are shots when sampling and paths when enumerating; they differ
only at a measurement or reset. A shot draws the outcome from its stream
batch's RNG. ``enumerate_outcomes`` passes no RNG: a path with two live
outcomes forks into two rows, each weighted by its arm's probability. It
returns the exact noiseless output distribution, within a branching budget.

A program's runtime is built once per noise model, on its first use, and
lives as long as the program: enumeration and sampling of one program share
it, and its arrays are read-only. With several workers, ``run_shots``
builds it before forking them, and each worker inherits it.

Determinism: shots run in stream batches of the fixed size ``SHOT_BATCH``,
and batch ``b`` draws from ``SeedSequence(master_seed, spawn_key=(b,))``,
so results do not depend on the number of worker processes and are always
merged in shot order. Each worker runs a contiguous range of batches, and
walks up to k consecutive ones as one row block, a super-batch, k keeping
rows × 2ⁿ within ``SUPER_AMPLITUDES`` (MSD 4, RUS 16): the per-segment
work is paid once per block instead of once per batch. Each batch of a
block still draws from its own generator, with its own row counts, and
``_draw`` interleaves the batches' blocks op by op into the layout one
batch of all the rows would read; a batch with no row at a segment draws
nothing, as it would walked alone. So a block gives each shot the
uniforms, and the outcomes, that its batch walked alone gives it, and a
run of at most ``SHOT_BATCH`` shots is one batch walked as before.

A run returns a ``ShotBatch``: the walks' own columns (an int8 output-code
matrix, -1 where an output's guard was false, the transport, gate and
skipped-block counters, and the measurements per qubit), concatenated in
shot order. ``ShotBatch.records`` counts the shots per distinct record
without building a row per shot; iterating gives ``ShotResult`` rows. A run
returns at most ``MAX_SHOTS`` shots and starts at most ``MAX_JOBS`` workers;
a larger count is refused before anything is allocated or started.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import operator
import sys
import weakref
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import gates as G
from .ir import OUTPUT_TOKEN, BinOp, IonflowError, ReadResult, Select, config_from_json
from .memo import Memo
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
    """A broken invariant, not rejected input: an operation ran while its ions were not in the planned slots,
    or a row ran a segment whose transport guard, its chain's entry guard, failed on it."""


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
    """One shot of a ``ShotBatch``, as a row."""

    outputs: tuple
    executed_transport_steps: int
    executed_gates: int
    skipped_blocks: int
    measures_per_qubit: tuple[int, ...]


def _record(codes: list) -> tuple:
    """The output record a row of output codes stands for: -1 (a guard was false) drops out."""
    return tuple(_DECODE[v] for v in codes if v >= 0)


@dataclass(frozen=True, eq=False)
class ShotBatch:
    """A run's shots as columns, in shot order; iterating gives each shot as a ``ShotResult``."""

    codes: np.ndarray  # (shots, outputs) int8 output code per output item, -1 where its guard was false
    transport: np.ndarray  # (shots,) executed transport steps
    gates: np.ndarray  # (shots,) executed gates
    skipped: np.ndarray  # (shots,) block marks whose guard was false
    measures: np.ndarray  # (shots, n) measurements per qubit

    def __len__(self) -> int:
        return len(self.transport)

    def __iter__(self):
        counters = (self.transport.tolist(), self.gates.tolist(), self.skipped.tolist())
        return map(ShotResult, map(_record, self.codes.tolist()), *counters, map(tuple, self.measures.tolist()))

    def __eq__(self, other) -> bool:
        return type(other) is ShotBatch and all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def records(self) -> Counter:
        """Shots per distinct output record, each distinct row of codes decoded once.

        A row's codes pack eight to an int64 word, so counting is one
        ``np.unique`` over one word per shot (over rows of words past eight
        outputs).
        """
        shots, width = self.codes.shape
        words = max(1, -(-width // 8))
        packed = np.full((shots, 8 * words), -1, np.int8)
        packed[:, :width] = self.codes
        keys, counts = np.unique(packed.view(np.int64), axis=0 if words > 1 else None, return_counts=True)
        out: Counter = Counter()
        for row, n in zip(keys.reshape(len(keys), -1).view(np.int8).tolist(), counts.tolist()):
            out[_record(row)] += n  # rows that differ only where a guard was false are one record
        return out

    @staticmethod
    def concat(parts: list["ShotBatch"]) -> "ShotBatch":
        """``parts`` one after another."""
        if len(parts) == 1:
            return parts[0]
        return ShotBatch(*(np.concatenate(columns) for columns in zip(*(vars(p).values() for p in parts))))


SHOT_BATCH = 256  # shots per batch; fixed, because each batch has its own RNG stream
ROW_BYTES = 32  # memory one shot's columns take at least: three int64 counters and one qubit's measurement count
MAX_SHOTS = (64 << 30) // ROW_BYTES  # shots per run: more would need result columns over 64 GiB
# Worker processes per run. Each is a fork of the caller, and a worker beyond the
# host's cores only waits for one, so a larger count could only exhaust processes.
MAX_JOBS = 256
ENUM_AMPLITUDES = 1 << 14  # an enumeration batch splits beyond this many amplitudes
# A sampling super-batch walks consecutive stream batches as one row block up to this many rows × 2ⁿ: MSD (5
# qubits) 4 batches, RUS (3 qubits) 16. At 20,000 shots 2¹⁶ ran MSD 5-10% faster and RUS recursion 3-5% slower,
# and the default sweep as fast; 2¹⁴ was slower on both, and 2¹⁷ ran RUS recursion 8 up to 1.5× slower
SUPER_AMPLITUDES = 1 << 15
MAX_BATCH_AMPLITUDES = 1 << 24  # cap on SHOT_BATCH × 2ⁿ (256 MiB of complex128, 16 qubits), result slots or registers
# Runtime bodies, gate runs and segments cached across programs. The 412 programs of scripts/output_digest.py
# --shots --exact, in both transport modes and under two noise models, cache 3,757, 561 of them gate runs.
MAX_BODIES = 1 << 12
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


def apply_dephasing(states: np.ndarray, qubits: tuple[int, ...], p: float, u: np.ndarray) -> None:
    """A Z on qubit ``qubits[j]`` of row i whose draw ``u[i, j]`` is below p (a qubit may repeat)."""
    hits = u < p
    hit = hits.any(1).nonzero()[0]
    if len(hit):
        zmask = np.bitwise_xor.reduce(np.where(hits[hit], 1 << np.array(qubits), 0), axis=1)
        zero = np.zeros_like(zmask)
        _apply_paulis(states, hit, zero, zmask, zero)


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
# Compiled runtime: one entry per guard segment, with its guard and transport
# guard as register indices. An entry holds what runs once at the segment's
# head (the zone checks, the composed slot permutation, the step and gate
# counts, the draw plan) and an ordered op list for its active rows:
# unitaries, collapses, classical items and outputs. Its draw ops are its
# layers' draws and its transports' dephasing; each draws a (rows, width)
# block of the segment's uniforms, and each draw site owns a column.
# ---------------------------------------------------------------------------

# item bodies, then ops, then the tags of a segment's and a gate run's keys in BODIES
(_MARK, _TRANSPORT, _LAYER, _CLASSICAL, _OUTPUT, _MATRIX, _GROUPS, _DRAWS, _DEPHASE, _COLLAPSE, _FLUSH, _SEGMENT,
 _RUN) = range(13)
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


def _holds(regs: np.ndarray, g) -> np.ndarray:
    """The rows of ``regs`` where the register guard ``g``, an index or a tuple of them (an OR), holds."""
    if type(g) is not tuple:
        return regs[:, g] != 0
    if not g:
        return np.zeros(len(regs), bool)
    m = regs[:, g[0]] != 0
    for i in g[1:]:
        np.logical_or(m, regs[:, i], out=m)
    return m


def _reads(g) -> set:
    """The register indices a compiled guard reads."""
    return set() if g is None else set(g) if type(g) is tuple else {g}


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


def _unitary(run: tuple, n: int):
    """Consecutive layers' gates as one read-only 2ⁿ×2ⁿ matrix, or above MATRIX_QUBITS one ``(matrix, qubits)``
    per gate.

    A layer is a tuple of gates, each ``(name, angle with over-rotation,
    qubits)``. The matrix is in row form: ``st @ m`` applies the gates to
    every row. Fixed gates' matrices are read-only constants of ``gates``;
    rotations' are built here, and frozen where the result keeps them.
    """
    if n > MATRIX_QUBITS:
        gates = tuple((G.gate_unitary(name, angle), qubits) for layer in run for name, angle, qubits in layer)
        _frozen(*(u for u, _ in gates if u.flags.writeable))
        return gates
    return _frozen(_product(run, n))[0]


def _product(layers: tuple, n: int) -> np.ndarray:
    m = np.eye(1 << n, dtype=complex)
    for layer in layers:
        for name, angle, qubits in layer:
            apply_unitary(m, G.gate_unitary(name, angle), qubits, n)  # row i becomes U e_i, so (st @ m)[r] = U st[r]
    return m


class _Run:
    """A gate run's ``_unitary`` M and, each built on its first need, its suffix products.

    A noise event after the run's first k layers is M conjugated by the
    suffix S of its layers from k on: ``y @ S⁻¹``, the Pauli, ``@ S`` on the
    row's state y after M. With P the first k layers' matrix, S = P⁻¹ M =
    P† M, and P is built as M is, up to its k-th layer.
    """

    def __init__(self, run: tuple, n: int) -> None:
        self.run, self.n = run, n
        self.unitary = _unitary(run, n)
        self.suffixes: dict[int, np.ndarray] = {}

    def suffix(self, k: int) -> np.ndarray:
        s = self.suffixes.get(k)
        if s is None:
            s = self.suffixes[k] = _frozen(_product(self.run[:k], self.n).conj().T @ self.unitary)[0]
        return s


def _compile_layer(item: LayerItem, n: int, noise: NoiseModel) -> tuple:
    """A layer's body: ``(_LAYER, qubits, planned slots, gates, draws)``.

    Ops in a layer act on disjoint qubits and commute, so the gates run
    first (``_unitary`` of ``gates``, empty for none); each gate's
    depolarizing follows, then the idle dephasing, the measurements and the
    resets. ``draws`` is None for a layer that neither draws nor collapses,
    else ``(_DRAWS, depolarizing, collapses, (idle qubits, p_idle) or (),
    first idle column, width, thresholds)``; a transport's dephasing has the
    same shape under ``_DEPHASE``. The thresholds are read-only, one per
    column of the layer's uniforms: a draw below its column's is a noise
    event on the state. An outcome or record-flip column's threshold is 0,
    since the collapse reads those columns itself. They are None when every
    threshold is 0.
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
            thr += [0.0, 0.0] if p > 0.0 else [0.0]
    idle = item.idle_qubits if noise.p_idle > 0.0 else ()
    col = len(thr)
    thr += [noise.p_idle] * len(idle)
    thr = _frozen(np.array(thr))[0] if any(thr) else None  # None: no column can fire
    dephase = (idle, noise.p_idle) if idle else ()
    draws = (_DRAWS, tuple(depolarize), tuple(collapses), dephase, col, col + len(idle), thr) if col or idle else None
    qs, slots = _frozen(*np.array(item.expected_slots, dtype=np.int64).reshape(-1, 2).T)
    return _LAYER, qs, slots, tuple(gates), draws


def _compile_transport(steps: tuple, slots: int) -> tuple:
    """A transport's read-only slot permutation, its inverse and its step count."""
    occupant = list(range(slots))  # occupant[s]: the slot whose content is now in slot s
    for st in steps:
        for a, b in st:
            occupant[a], occupant[b] = occupant[b], occupant[a]
    # its inverse, the composed slot permutation: where something starting at slot s ends up
    perm = np.argsort(occupant)
    return (*_frozen(perm, np.argsort(perm)), len(steps))


def _transport_body(steps: tuple, slots: int, n: int, noise: NoiseModel) -> tuple:
    """A transport's body: ``(_TRANSPORT, slot permutation, its inverse, step count, dephasing or None)``.

    The dephasing is shaped like a layer's draws, under ``_DEPHASE``: a Z
    column per qubit and step.
    """
    perm, inv, n_steps = _compile_transport(steps, slots)
    dephase = None
    if noise.p_transport > 0.0 and n_steps:
        thr = _frozen(np.full(n * n_steps, noise.p_transport))[0]
        dephase = (_DEPHASE, (), (), (tuple(range(n)) * n_steps, noise.p_transport), 0, n * n_steps, thr)
    return _TRANSPORT, perm, inv, n_steps, dephase


class _Segment(NamedTuple):
    """A guard segment's work: its head's, done once, then its ops in order for its active rows.

    Its transport runs under the segment's transport guard, which holds on
    every active row: ``perm``, ``steps`` and the dephasing draws in
    ``draws`` reach every row where it holds.
    """

    marks: int  # block marks, counted as skipped on the inactive rows
    zone_qubits: np.ndarray | None  # every layer's expected (qubit, slot), the slot mapped back
    zone_slots: np.ndarray | None  # through the transport before it to the placement at the head
    zone: tuple  # per layer (qubits, planned slots, slot permutation before it or None), for the message
    perm: np.ndarray | None  # composed slot permutation of the segment's transport
    steps: int  # transport steps
    gates: int
    ops: tuple
    state: bool  # some op touches the state
    # per draw op, in item order, its body: a layer's draws (_DRAWS), for the active rows, or a transport's
    # dephasing (_DEPHASE), for the rows where the transport guard holds
    draws: tuple
    starts: tuple  # per draw op, the uniforms per active row and per transported row before it
    suffixes: tuple  # per draw op, the suffix of its run from its place or None at the run's end; () if none fires
    row_width: int  # uniforms per active row, over the layers' draws
    moved_width: int  # uniforms per row where the transport guard holds, over the dephasings
    # None when no draw can fire a noise event, else the largest threshold and, read-only, (active-row
    # starts, transported-row starts, widths) per draw op, each op's first threshold and every column's
    plan: tuple | None
    # None when the segment draws nothing, else (4, draw ops, 1), read-only: per draw op its starts as in
    # ``starts``, then its uniforms per active row and per transported row (one of them 0), for ``_draw``
    layout: np.ndarray | None


def _segment(parts: tuple, n: int) -> _Segment:
    """Build a segment from its items' bodies, in order.

    Unitaries run as late as the next measurement or reset, or the segment's
    end, so those layers fuse into one op: one matrix, or above MATRIX_QUBITS
    their gates in order. Noise draws do not cut a run. Each noise op keeps
    its position k in its run and, up to MATRIX_QUBITS, the run's suffix
    from k (``_Run.suffix``), through which the walk carries an event past the
    rest of the run; above it, a noise op ends the run and flushes its
    events at once. Classical items and outputs do not touch the state.
    """
    marks = steps = gates = 0
    perm = inv = None
    zone, zone_slots, ops, run = [], [], [], []
    draws, starts, pending, suffixes = [], [], [], {}  # pending: (draw index, place) of the open run's noise ops
    row_width = moved_width = plain = 0  # plain: classical items and outputs, which do not touch the state
    fires = False

    def cut():  # end the open run: its unitary, and its noise ops' suffixes
        if run:
            layers = tuple(run)
            gate_run = BODIES.get((_RUN, n, layers), _Run, layers, n)
            ops.append((_MATRIX if n <= MATRIX_QUBITS else _GROUPS, gate_run.unitary))
            # one S per place k inside the run, shared by its noise ops and by every segment that has this run;
            # none above MATRIX_QUBITS, where noise cuts the run
            suffixes.update((d, gate_run.suffix(k)) for d, k in pending if k < len(run))
            run.clear()
        pending.clear()

    for part in parts:
        tag = part[0]
        if tag == _MARK:
            marks += 1
        elif tag == _TRANSPORT:
            _, t, t_inv, n_steps, dephase = part
            perm, inv = (t, t_inv) if perm is None else _frozen(t[perm], inv[t_inv])
            steps += n_steps
            if dephase:
                pending.append((len(draws), len(run)))
                draws.append(dephase)
                starts.append((row_width, moved_width))
                moved_width += dephase[5]
                fires = True
                if n > MATRIX_QUBITS:
                    cut()
                    ops.append((_FLUSH, len(draws)))
        elif tag == _LAYER:
            _, qs, planned, layer_gates, layer_draws = part
            gates += len(layer_gates)
            if len(qs):
                zone.append((qs, planned, perm))
                zone_slots.append(planned if inv is None else inv[planned])
            if layer_gates:
                run.append(layer_gates)
            if layer_draws:
                _, depolarize, collapses, idle, _col, width, thr = layer_draws
                if depolarize or idle:  # noise ops
                    pending.append((len(draws), len(run)))
                draws.append(layer_draws)
                starts.append((row_width, moved_width))
                row_width += width
                fires = fires or thr is not None
                if collapses:
                    cut()
                    ops.append((_COLLAPSE, len(draws) - 1, collapses))
                elif n > MATRIX_QUBITS:
                    cut()
                    ops.append((_FLUSH, len(draws)))
        else:
            ops.append(part)
            plain += 1
    cut()
    zq = zs = None
    if len(zone) == 1:
        zq, zs = _frozen(zone[0][0], zone_slots[0])
    elif zone:
        zq, zs = _frozen(np.concatenate([z[0] for z in zone]), np.concatenate(zone_slots))
    plan = layout = None
    if draws:
        widths = [(0, d[5]) if d[0] == _DEPHASE else (d[5], 0) for d in draws]
        layout = _frozen(np.array([(*start, *w) for start, w in zip(starts, widths)]).T[:, :, None])[0]
    if fires:
        thr = np.concatenate([np.zeros(d[5]) if d[6] is None else d[6] for d in draws])
        at = np.array([(*start, d[5]) for start, d in zip(starts, draws)]).T
        plan = (float(thr.max()), *_frozen(at, np.cumsum(at[2]) - at[2], thr))
    return _Segment(marks, zq, zs, tuple(zone), perm, steps, gates, tuple(ops), len(ops) > plain, tuple(draws),
                    tuple(starts), tuple(map(suffixes.get, range(len(draws)))) if fires else (), row_width,
                    moved_width, plan, layout)


@dataclass
class _Runtime:
    n_qubits: int
    n_results: int
    n_regs: int  # 1 + the largest register index the program names, not the register file's size
    n_outputs: int
    reg_dtype: type
    canonical: tuple[int, ...]
    noise: NoiseModel
    segments: list  # per guard segment: (guard, transport guard, index of its first item, _Segment, classical instructions)


# Runtime bodies memoized across programs (hash-consing: Filliâtre and
# Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006): layers,
# transports, outputs and classical items by value, segments by their bodies'
# identities. A later program with an equal body gets the same object back,
# so an equal segment is found by identity too. A segment entry holds the
# bodies its key names, so none of those ids can be reused while the entry is
# there. Keys are tagged by kind; the memo is cleared whole when it reaches
# MAX_BODIES entries.
BODIES = Memo(MAX_BODIES)


def _compile_runtime(prog: ExecProgram, noise: NoiseModel) -> _Runtime:
    n = prog.n_qubits
    if SHOT_BATCH << n > MAX_BATCH_AMPLITUDES:
        most = (MAX_BATCH_AMPLITUDES // SHOT_BATCH).bit_length() - 1
        raise IonflowError(f"program declares {n} qubits; the emulator runs at most {most}")
    # Each body comes from the caches above. Lowering shares a layer's ops
    # tuple between its repeats, so within the program a layer is looked up
    # first by that tuple's identity (its items hold it alive), and only then
    # by the value of the op fields it reads. A segment's classical
    # instructions stay out of its body, which names them by position.
    layers, transports = {}, {}
    guards = {}  # by identity too: a register's hash is a Python call
    classical = []  # classical[j]: the body of a segment's j-th classical item
    opened = []  # per segment: its guard, its transport guard, first item, item bodies and classical instructions
    n_outputs = 0
    floats = False
    conditional = prog.conditional_transport
    unset = object()  # the transport guard of a segment with no transport yet, equal to no compiled guard
    seg_guard, closed = None, True
    tg, reads, written = unset, set(), set()  # the open segment's transport guard, registers read and registers written
    top = -1  # the largest register index a guard or classical instruction names
    for k, item in enumerate(prog.items):
        kind = type(item)
        gid = id(item.guard)
        if gid not in guards:
            cg = guards[gid] = _cguard(item.guard)
            top = max(top, cg if type(cg) is int else max(cg or (-1,)))
        g = guards[gid] if conditional or kind is not TransportItem else None
        # a segment's first transport sets its transport guard: its own guard, or another one that an open
        # register-guarded segment takes on when no earlier classical item of the segment wrote its registers
        if kind is TransportItem and tg is unset and not closed and (
                g == seg_guard or seg_guard is not None and _reads(g).isdisjoint(written)):
            tg = opened[-1][1] = g
            reads |= _reads(g)
        elif closed or g != (tg if kind is TransportItem else seg_guard):
            # a segment runs on while the guard stays the same, its transport stays under one guard, and no
            # classical item writes a register that either guard reads; a transport opens a segment under its own
            parts, instrs = [], []
            tg = g if kind is TransportItem else unset
            reads, written = _reads(g), set()
            opened.append([g, tg, k, parts, instrs])
            seg_guard, closed = g, False
        if kind is LayerItem:
            lk = (id(item.ops), item.expected_slots, item.idle_qubits)
            body = layers.get(lk)
            if body is None:
                ops = tuple((op.kind, op.name, op.qubits, op.angle, op.slot) for op in item.ops)
                vk = (_LAYER, n, noise, ops, item.expected_slots, item.idle_qubits)
                body = layers[lk] = BODIES.get(vk, _compile_layer, item, n, noise)
            parts.append(body)
        elif kind is MarkItem:
            parts.append(_MARK_BODY)
        elif kind is TransportItem:
            body = transports.get(item.steps)
            if body is None:
                tk = (_TRANSPORT, n, noise, item.steps, prog.trap.slots)
                body = transports[item.steps] = BODIES.get(tk, _transport_body, item.steps, prog.trap.slots, n, noise)
            parts.append(body)
        elif kind is ClassicalItem:
            if len(instrs) == len(classical):
                body = (_CLASSICAL, len(instrs))
                classical.append(BODIES.get(body, lambda: body))
            parts.append(classical[len(instrs)])
            instrs.append(item.instrs)
            for ins in item.instrs:  # plain loops, not a generator per item: this runs for every classical item
                floats |= type(ins) in (BinOp, Select) and float in (type(ins.a), type(ins.b))
                written.add(ins.dst.index)
                for v in vars(ins).values():
                    if type(v) is PReg and v.index > top:
                        top = v.index
            closed = not reads.isdisjoint(written)
        elif kind is OutputItem:
            body = (_OUTPUT, _CODE.get(item.kind), item.slot, n_outputs)
            parts.append(BODIES.get(body, lambda: body))
            n_outputs += 1
        else:  # pragma: no cover
            raise TypeError(f"cannot compile {item!r}")
    for count, what in ((prog.n_results, "result slots"), (top + 1, "registers")):
        if SHOT_BATCH * count > MAX_BATCH_AMPLITUDES:
            raise IonflowError(f"program uses {count} {what}; the emulator runs at most {MAX_BATCH_AMPLITUDES // SHOT_BATCH}")
    segments = []
    for seg_guard, tg, first, parts, instrs in opened:
        parts = tuple(parts)
        seg = BODIES.get((_SEGMENT, tuple(map(id, parts))), lambda: (parts, _segment(parts, n)))[1]
        segments.append((seg_guard, seg_guard if tg is unset else tg, first, seg, tuple(instrs)))
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


def _walk(rt: _Runtime, b: _Batch, rngs: tuple | None, start: tuple[int, int] = (0, 0),
          max_rows: int = 0) -> tuple[int, int] | None:
    """Run every row of ``b`` from op ``start[1]`` of segment ``start[0]`` to the end of the program.

    At a segment's head (op 0) its guard and its transport guard become row
    masks; an active row where the transport guard fails raises
    ``ZoneViolation``. Its inactive rows count its marks as skipped; its zone
    checks read the head's placement of its active rows, which get its gate
    count; every row where the transport guard holds gets its steps and its
    composed slot permutation. With RNGs, ``rngs[i]`` being the generator of
    rows ``i * SHOT_BATCH`` on (a stream batch), one ``random`` call per
    stream batch then draws every uniform of the segment, in its draw ops'
    order: a layer's (active rows, width) and a dephasing's (rows where the
    transport guard holds, width), each row-major, so every uniform keeps the
    value and place a draw per op would give it; ``_draw`` interleaves the
    batches' blocks op by op into the same layout. One threshold test over
    the block finds the noise events (``_events``); a dephasing event on an
    inactive row applies in ``b.state`` at once.

    Its ops then run in order on the active rows' states, gathered once and
    scattered back at its end. Before each collapse, and at the end, the
    events of the draw ops before it apply in draw order, each carried
    through its run's suffix (``_fire``); an op with no event costs nothing.
    With RNGs every measurement and reset outcome comes from its layer's
    uniforms. Without them (noiseless enumeration) a row with two live
    outcomes forks; the copy is an active row of the same segment and has
    the head's work already.
    Returns None at the end, or the (segment, op) to resume from once the
    batch has grown past ``max_rows`` rows.
    """
    segments = rt.segments
    s, j = start
    while s < len(segments):
        if max_rows and len(b.weight) > max_rows:
            return s, j
        g, t, first, seg, instrs = segments[s]
        R, c = _ALL, len(b.weight)  # the active rows (every row, their indices or None for none) and their count
        if g is not None:
            m = _holds(b.regs, g)
            c = np.count_nonzero(m)
            if c < len(m):
                R = m.nonzero()[0] if c else None
                if seg.marks and j == 0:
                    b.skipped += ~m * seg.marks if c else seg.marks
        T = R  # the rows where the transport guard holds, in the same form; every active row is among them
        if t != g:
            T = _ALL
            if t is not None:
                h = _holds(b.regs, t)
                n_h = np.count_nonzero(h)
                if n_h < len(h):
                    if j == 0 and c and (m > h).any():
                        raise ZoneViolation(f"row {(m > h).argmax()} runs the segment at item {first} "
                                            f"but not its chain's transport")
                    T = h.nonzero()[0] if n_h else None
        if T is None:  # no row runs anything here
            s, j = s + 1, 0
            continue
        if j == 0:
            if c:
                place = b.place if R is _ALL else b.place[R]  # the placement at the head
                if seg.zone_qubits is not None and (place[:, seg.zone_qubits] != seg.zone_slots).any():
                    _zone_violation(place, seg.zone)
                if seg.gates:
                    b.gates[R] += seg.gates
            if seg.steps:
                b.transport[T] += seg.steps
                b.place[T] = seg.perm[place if T is R else b.place[T]]
        u = events = None
        if rngs is not None and seg.draws:
            moved = c if T is R else len(b.weight) if T is _ALL else len(T)
            rows = (c, moved)
            total = c * seg.row_width + moved * seg.moved_width
            if total:
                u = rngs[0].random(total) if len(rngs) == 1 else _draw(rngs, seg, R, T, len(b.weight))
                if seg.plan:
                    events = _events(b, seg, u, rows, R, T, m if T is not R else None)
        ops = seg.ops if c else ()
        st = (b.state if R is _ALL else b.state[R]) if seg.state and c else None
        for i in range(j, len(ops)):
            op = ops[i]
            tag = op[0]
            if tag == _MATRIX:
                st = st @ op[1]
                if R is _ALL:
                    b.state = st
            elif tag == _COLLAPSE:
                d = op[1]
                if events:
                    _flush(st, seg, u, rows, events, d + 1)
                ul = None
                if u is not None:  # the layer's (rows, width) uniforms
                    o, width = c * seg.starts[d][0] + moved * seg.starts[d][1], seg.draws[d][5]
                    ul = u[o:o + c * width].reshape(c, width)
                for cop in op[2]:
                    st, R = _collapse(b, R, st, cop, ul)
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
            elif events:  # _FLUSH, above MATRIX_QUBITS
                _flush(st, seg, u, rows, events, op[1])
        if events:  # the last run's events
            if st is None:
                st = b.state if R is _ALL else b.state[R]
            _flush(st, seg, u, rows, events, len(seg.draws))
        if st is not None and R is not _ALL:
            b.state[R] = st
        s, j = s + 1, 0
    return None


def _per_batch(rows, n: int, k: int) -> np.ndarray:
    """How many of ``rows``, in the walk's form (every one of n, their indices or None for none), each of k
    stream batches holds."""
    if rows is _ALL:
        return np.minimum(n - SHOT_BATCH * np.arange(k), SHOT_BATCH)
    if rows is None:
        return np.zeros(k, np.int64)
    return np.bincount(rows // SHOT_BATCH, minlength=k)


def _draw(rngs: tuple, seg: _Segment, R, T, n: int) -> np.ndarray:
    """A segment's uniforms for a block of stream batches, in the layout one batch of all its rows would draw.

    Batch i draws its own block from ``rngs[i]``, for its active rows and its
    rows where the transport guard holds, as it would walked alone; a batch
    with neither draws nothing. Op d's uniforms are then each batch's op-d
    block in batch order, which is the rows' order.
    """
    c = _per_batch(R, n, len(rngs))
    moved = c if T is R else _per_batch(T, n, len(rngs))
    totals = c * seg.row_width + moved * seg.moved_width
    drawn = np.concatenate([rng.random(t) for rng, t in zip(rngs, totals.tolist()) if t])
    row_start, moved_start, row_width, moved_width = seg.layout  # columns: (draw op, 1) each
    size = (row_width * c + moved_width * moved).ravel()  # (draw op, batch), op-major
    src = row_start * c + moved_start * moved + (np.cumsum(totals) - totals)
    dst = np.cumsum(size) - size
    return drawn[np.repeat(src.ravel() - dst, size) + np.arange(len(drawn))]


def _events(b: _Batch, seg: _Segment, u: np.ndarray, rows: tuple[int, int], R, T, m) -> list:
    """The noise events that a segment's uniforms ``u`` fire, as groups ``(draw index, rows of st, rows of its draw)``.

    ``rows`` is (active rows, rows where the transport guard holds); ``m``
    is the guard's row mask when those differ, else None. The groups are in
    reverse draw order, for ``_flush`` to pop. A dephasing event on an
    inactive row applies here, in ``b.state`` and with no suffix: those rows
    run none of the segment's layers.
    """
    pmax, (row_start, moved_start, width), thr_start, thr = seg.plan
    cand = np.flatnonzero(u < pmax)
    if not len(cand):
        return []
    c, moved = rows
    start = c * row_start + moved * moved_start
    d = start.searchsorted(cand, "right") - 1  # the draw op of each candidate
    rel = cand - start[d]
    w = width[d]
    row = rel // w
    hit = u[cand] < thr[thr_start[d] + rel - row * w]
    groups = []
    for k, fired in itertools.groupby(zip(d[hit].tolist(), row[hit].tolist()), key=operator.itemgetter(0)):
        src = np.array(list(dict.fromkeys(r for _k, r in fired)))  # a row may fire several columns of one op
        dst = src
        if m is not None and seg.draws[k][0] == _DEPHASE:  # drawn for the rows where the transport guard holds
            real = src if T is _ALL else T[src]
            act = m[real]
            if not act.all():
                _fire(b.state, seg, k, u, rows, real[~act], src[~act], None)
                src, real = src[act], real[act]
            dst = R.searchsorted(real) if len(real) else real  # R is None when no row is active
        if len(dst):
            groups.append((k, dst, src))
    return groups[::-1]


def _flush(st: np.ndarray, seg: _Segment, u: np.ndarray, rows: tuple[int, int], events: list, end: int) -> None:
    """Apply to ``st``, in draw order, the event groups of ``events`` whose draw index is below ``end``."""
    while events and events[-1][0] < end:
        k, dst, src = events.pop()
        _fire(st, seg, k, u, rows, dst, src, seg.suffixes[k])


def _fire(st: np.ndarray, seg: _Segment, k: int, u: np.ndarray, rows: tuple[int, int], dst: np.ndarray,
          src: np.ndarray, suffix: np.ndarray | None) -> None:
    """Draw op k's noise on rows ``dst`` of ``st``, from rows ``src`` of its uniforms in the segment's ``u``.

    With a suffix S the rows are at the end of their run: the Paulis apply
    at the op's place in it as ``x @ S⁻¹``, the Paulis, ``@ S``.
    """
    tag, depolarize, _collapses, dephase, col, width, _thr = seg.draws[k]
    c, moved = rows
    n_rows = moved if tag == _DEPHASE else c
    o = c * seg.starts[k][0] + moved * seg.starts[k][1]
    ud = u[o:o + n_rows * width].reshape(n_rows, width)[src]
    x = st[dst]
    if suffix is not None:
        x = (x.conj() @ suffix.T).conj()  # x @ S⁻¹, S being unitary
    for qubits, p, j in depolarize:
        apply_depolarizing(x, qubits, p, ud[:, j])
    if dephase:
        apply_dephasing(x, *dephase, ud[:, col:])
    if suffix is not None:
        x = x @ suffix
    st[dst] = x


def _zone_violation(place: np.ndarray, zone: tuple):
    """Raise for the first layer of a segment whose ions, from the head's ``place``, miss their planned slots."""
    for qs, planned, perm in zone:
        now = place[:, qs] if perm is None else perm[place[:, qs]]
        bad = now != planned
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise ZoneViolation(f"qubit {qs[j]} at slot {now[row, j]}, plan expected {planned[j]}")
    raise AssertionError("a segment's zone check failed but none of its layers' did")  # pragma: no cover


def _collapse(b: _Batch, R, st: np.ndarray, op: tuple, u: np.ndarray | None):
    """Measure or reset one qubit in every row of ``st``; returns ``st`` and ``R`` after any forks."""
    otag, q, slot, sel, bit, flip, p_noise, col = op
    p = np.abs(st) ** 2 @ sel  # (rows, 2): weight of the |0> and |1> arms
    norm = p[:, 0] + p[:, 1]
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


def _super_batches(rt: _Runtime) -> int:
    """Stream batches walked as one row block: as many as keep rows × 2ⁿ within ``SUPER_AMPLITUDES``, and the
    register file and result slots within ``MAX_BATCH_AMPLITUDES``, at least one."""
    widest = max(rt.n_regs, rt.n_results, 1)
    return max(1, min(SUPER_AMPLITUDES >> max(rt.n_qubits, 1), MAX_BATCH_AMPLITUDES // widest) // SHOT_BATCH)


def _run_block(rt: _Runtime, master_seed: int, first: int, rows: int) -> ShotBatch:
    """``rows`` shots from stream batch ``first`` on, walked as one block, each batch on its own RNG stream."""
    b = _Batch.start(rt, rows)
    batches = range(first, first - (-rows // SHOT_BATCH))
    _walk(rt, b, tuple(np.random.Generator(np.random.PCG64(batch_seed(master_seed, i))) for i in batches))
    return ShotBatch(b.out, b.transport, b.gates, b.skipped, b.measures)


def _run_batches(args) -> ShotBatch:
    """The shots of a range of stream batches, in blocks of ``_super_batches`` batches."""
    rt, master_seed, n_shots, batches = args
    k = _super_batches(rt)
    end = min(batches.stop * SHOT_BATCH, n_shots)
    return ShotBatch.concat([_run_block(rt, master_seed, i, min(end, (i + k) * SHOT_BATCH) - i * SHOT_BATCH)
                             for i in batches[::k]])


def _run_inherited(task) -> ShotBatch:
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
) -> ShotBatch:
    """n_shots independent shots, as columns; identical results for any jobs value.

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
    return ShotBatch.concat(done)


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
        leaves.extend(map(ExecLeaf, b.weight.tolist(), map(_record, b.out.tolist()), b.state, b.transport.tolist()))
    return leaves


def enumerate_outcomes(prog: ExecProgram) -> dict[tuple, float]:
    """Exact output distribution of a lowered program (noiseless)."""
    return distribution(enumerate_exec_leaves(prog))
