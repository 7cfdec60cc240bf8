"""Reference enumeration semantics, independent of the compiled fast path.

One interpreter, noiseless and exact: ``enumerate_module`` walks the IR
directly (blocks, branches, phis, calls, even counted loops) and branches
depth-first on every measurement outcome, producing the exact distribution
over recorded outputs. ``enumerate_guarded`` walks the if-converted linear
form with the same walker, as the CFG it stands for: each guarded block's
prelude runs, then a branch on its guard enters the body or skips it.

The walker is deliberately written against the plain matrix embedding from
``gates`` rather than the emulator's in-place kernels, so the oracle and the
emulator's single compiled-form interpreter share no simulation code.

Each enumeration first lowers every function of the module into a numbered
form, once: block labels become indices, and every register and literal
operand a slot of a per-frame list, so a path's registers are a list copied
on fork. A register reads False until it is written. Each phi set becomes
one parallel copy per incoming edge, read in full before any write; a phi
with no incoming from the edge's source reads False. A gate whose qubits and
angle are literals keeps its ``gates.embed`` matrix. The walker, ``_run``,
runs only that form and hands measurements and resets to ``_branch``. An
outcome is live when the weight of its own amplitudes exceeds ``PRUNE_EPS``;
two live outcomes fork the path, within ``MAX_BRANCH_EVENTS`` per path. A
reset collapses like a measurement; when both collapse branches land on the
same post-reset state (the common unentangled case) they are merged so path
counts stay small.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates as G
from .ir import (
    OUTPUT_TOKEN,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Cmp,
    Function,
    IonflowError,
    Jump,
    Measure,
    Module,
    Output,
    QGate,
    ReadResult,
    Reset,
    Return,
    Select,
    Vreg,
)
from .passes import _eval_binop, _eval_cmp
from .predication import GuardedFunction, OrVal
from .regalloc import PReg

# An outcome whose amplitude weight is below this is rounding noise, not an arm.
PRUNE_EPS = 1e-12
# Branching measurement or reset events one path may take in exact enumeration.
MAX_BRANCH_EVENTS = 20


class TooManyBranches(IonflowError):
    """A path needs more branching measurement or reset events than the budget allows."""


@dataclass
class Leaf:
    prob: float
    outputs: tuple
    state: np.ndarray
    slots: tuple[int, ...]


def distribution(leaves) -> dict[tuple, float]:
    """The output distribution of ``leaves``: each output record's probability, summed in leaf order."""
    dist: dict[tuple, float] = {}
    for leaf in leaves:
        dist[leaf.outputs] = dist.get(leaf.outputs, 0.0) + leaf.prob
    return dist


@functools.cache
def _outcome_masks(size: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 weights over ``size`` amplitudes: those whose bit ``q`` is 0, then those where it is 1."""
    one = ((np.arange(size) >> q) & 1).astype(float)
    zero = 1.0 - one
    zero.flags.writeable = one.flags.writeable = False
    return zero, one


def _branch(st, q: int, slot: int | None, n: int, resume) -> bool:
    """Measure (``slot`` set) or reset (``slot`` None) qubit ``q`` of path ``st``.

    With one live outcome, or a reset whose two outcomes leave the same state,
    ``st`` continues in place and this returns False. Otherwise every live
    outcome goes to ``resume`` as a copy of ``st`` and this returns True.
    """
    arms = []
    for o, mask in enumerate(_outcome_masks(st.state.size, q)):
        kept = st.state * mask
        p = np.vdot(kept, kept).real.item()
        if p > PRUNE_EPS:
            s = kept / math.sqrt(p)
            arms.append((o, p, s if slot is not None or o == 0 else G.embed("x", (q,), None, n) @ s))
    if len(arms) == 2 and slot is None and G.equal_up_to_phase(arms[0][2], arms[1][2]):
        arms.pop()
    if len(arms) == 1:
        o, _p, st.state = arms[0]
        if slot is not None:
            st.slots[slot] = o
        return False
    if st.branch_events + 1 > MAX_BRANCH_EVENTS:
        raise TooManyBranches(f"more than {MAX_BRANCH_EVENTS} branching measurement events on one path")
    for o, p, s in arms:
        child = st.copy()
        child.state = s
        if slot is not None:
            child.slots[slot] = o
        child.prob *= p
        child.branch_events += 1
        resume(child)
    return True


# ---------------------------------------------------------------------------
# The numbered form, built once per enumeration, and its walker
# ---------------------------------------------------------------------------

# Op kinds: each op is a tuple led by its kind, whose operands are slots.
_GATE, _CALC, _SELECT, _READ, _OUTPUT, _COLLAPSE, _GATE_VAR, _CALL = range(8)
_REGISTERS = (Vreg, PReg)


@dataclass
class _Code:
    """A function in numbered form. A new frame's registers are a copy of
    ``template``: False for each register, and each literal operand's value.
    ``blocks[i]`` is block i's ops and terminator: None for a return, else
    ``(cond, then_edge, else_edge)`` with ``cond`` None for a jump, a slot,
    or an ``OrVal``'s tuple of slots. An edge, like ``entry``, is the target
    block's index and its phis as one parallel copy ``(dsts, srcs)``, or None."""

    template: list = field(default_factory=list)
    params: tuple[int, ...] = ()
    entry: tuple = ()
    blocks: list = field(default_factory=list)


def _lower(module: Module, n: int) -> _Code:
    """The entry function of ``module`` in numbered form, each function lowered once."""
    codes = {f.name: _Code() for f in module.functions}
    for name, code in codes.items():
        _lower_function(code, module.function(name), n, codes)
    return codes[module.entry]


def _lower_function(code: _Code, fn: Function, n: int, codes: dict[str, _Code]) -> None:
    template, slot_of = code.template, {}

    def slot(v) -> int:
        # a literal is keyed by its type and repr, so that True and 1, or 0.0 and -0.0, stay apart
        key = v if type(v) in _REGISTERS else (type(v), repr(v))
        if key not in slot_of:
            slot_of[key] = len(template)
            template.append(False if key is v else v)
        return slot_of[key]

    index = {b.label: i for i, b in enumerate(fn.blocks)}  # the last block of a label, as ``Function.block``

    def edge(src: str | None, target: str) -> tuple:
        phis = fn.blocks[index[target]].phis
        srcs = [slot(next((v for v, l in phi.incomings if l == src), False)) for phi in phis]
        return index[target], (tuple(slot(phi.dst) for phi in phis), tuple(srcs)) if phis else None

    code.params = tuple(slot(pv) for pv, _t in fn.params)
    code.entry = edge(None, fn.blocks[0].label)
    for b in fn.blocks:
        ops = []
        for ins in b.body:
            t = type(ins)
            if t is QGate and all(type(q) is int for q in ins.qubits) and type(ins.angle) not in _REGISTERS:
                ops.append((_GATE, G.embed(ins.name, ins.qubits, ins.angle, n)))
            elif t is QGate:
                ops.append((_GATE_VAR, ins.name, tuple(map(slot, ins.qubits)), slot(ins.angle)))
            elif t is BinOp or t is Cmp:
                calc = _eval_binop if t is BinOp else _eval_cmp
                ops.append((_CALC, slot(ins.dst), calc, ins.op, slot(ins.a), slot(ins.b)))
            elif t is Select:
                ops.append((_SELECT, slot(ins.dst), slot(ins.cond), slot(ins.a), slot(ins.b)))
            elif t is ReadResult:
                ops.append((_READ, slot(ins.dst), ins.slot))
            elif t is Output:
                ops.append((_OUTPUT, ins.slot, None if ins.kind == "result" else OUTPUT_TOKEN[ins.kind]))
            elif t is Measure or t is Reset:
                ops.append((_COLLAPSE, slot(ins.qubit), ins.slot if t is Measure else None))
            elif t is Call:
                ops.append((_CALL, codes[ins.callee], tuple(map(slot, ins.args))))
            else:  # pragma: no cover
                raise TypeError(f"cannot interpret {ins!r}")
        term = b.terminator
        if type(term) is Jump:
            term = (None, edge(b.label, term.target), None)
        elif type(term) is Branch:  # on a guard value in the guarded form
            c = tuple(map(slot, term.cond.parts)) if type(term.cond) is OrVal else slot(term.cond)
            term = (c, edge(b.label, term.then_target), edge(b.label, term.else_target))
        else:  # a return
            term = None
        code.blocks.append((ops, term))


def _copy_phis(regs: list, copy: tuple) -> None:
    """Run the parallel copy ``copy`` on ``regs``: every source is read before any write."""
    dsts, srcs = copy
    for d, v in zip(dsts, [regs[s] for s in srcs]):
        regs[d] = v


def _enter(code: _Code, regs: list) -> list:
    """A new frame of ``code`` with registers ``regs``, at its entry block."""
    block, copy = code.entry
    if copy is not None:
        _copy_phis(regs, copy)
    return [code, regs, block, 0]


@dataclass
class _Path:
    """One path: its state, result slots and outputs so far, and its call
    frames, each ``[code, registers, block index, op index]``."""

    state: np.ndarray
    slots: list[int]
    outputs: list
    prob: float
    frames: list[list]
    branch_events: int

    def copy(self) -> "_Path":
        frames = [[code, regs[:], b, i] for code, regs, b, i in self.frames]
        return _Path(self.state.copy(), self.slots[:], self.outputs[:], self.prob, frames, self.branch_events)


def enumerate_module_leaves(module: Module) -> list[Leaf]:
    """All terminal trajectories of a module with exact probabilities."""
    n = module.required_qubits
    init = np.zeros(1 << max(n, 1), dtype=complex)
    init[0] = 1.0
    entry = _lower(module, n)
    start = _Path(init, [0] * module.required_results, [], 1.0, [_enter(entry, entry.template[:])], 0)
    leaves: list[Leaf] = []
    _run(start, n, leaves)
    return leaves


def _run(st: _Path, n: int, leaves: list[Leaf]) -> None:
    """Walk path ``st`` to its end and append its leaves; a fork walks each arm in turn."""
    resume = functools.partial(_run, n=n, leaves=leaves)
    frames = st.frames
    while frames:
        fr = frames[-1]
        code, regs, b, i = fr
        ops, term = code.blocks[b]
        end = len(ops)
        while i < end:
            op = ops[i]
            i += 1
            k = op[0]
            if k == _GATE:
                st.state = op[1] @ st.state
            elif k == _CALC:
                regs[op[1]] = op[2](op[3], regs[op[4]], regs[op[5]])
            elif k == _SELECT:
                regs[op[1]] = regs[op[3]] if regs[op[2]] else regs[op[4]]
            elif k == _READ:
                regs[op[1]] = bool(st.slots[op[2]])
            elif k == _OUTPUT:
                st.outputs.append(st.slots[op[1]] if op[2] is None else op[2])
            elif k == _COLLAPSE:
                q = regs[op[1]]
                if type(q) is not int:  # a bool is not a qubit index
                    raise IonflowError(f"unresolved qubit operand {q!r}")
                fr[3] = i
                if _branch(st, q, op[2], n, resume):
                    return  # every arm handled recursively
            elif k == _GATE_VAR:
                qubits = tuple(map(regs.__getitem__, op[2]))
                for q in qubits:
                    if type(q) is not int:
                        raise IonflowError(f"unresolved qubit operand {q!r}")
                st.state = G.embed(op[1], qubits, regs[op[3]], n) @ st.state
            else:  # _CALL
                callee = op[1]
                args = callee.template[:]
                for p, a in zip(callee.params, op[2]):
                    args[p] = regs[a]
                fr[3] = i
                frames.append(_enter(callee, args))
                break
        else:
            if term is None:
                frames.pop()
                continue
            c, then, other = term
            taken = c is None or (regs[c] if type(c) is int else any(map(regs.__getitem__, c)))
            fr[2], copy = then if taken else other
            fr[3] = 0
            if copy is not None:
                _copy_phis(regs, copy)
    leaves.append(Leaf(st.prob, tuple(st.outputs), st.state, tuple(st.slots)))


def enumerate_module(module: Module) -> dict[tuple, float]:
    """Exact output distribution of a module; probabilities sum to 1."""
    return distribution(enumerate_module_leaves(module))


# ---------------------------------------------------------------------------
# Guarded form, walked as the CFG it stands for
# ---------------------------------------------------------------------------

def _guarded_cfg(gf: GuardedFunction) -> Function:
    """``gf`` as a function: block ``p{i}`` runs guarded block ``i``'s prelude
    and branches on its guard into ``g{i}``, the body, or past it to
    ``p{i+1}``; ``p{len(gf.blocks)}`` returns. A literal guard or an empty
    body needs no branch. Labels come from indices, so no block label of
    ``gf`` can collide with them. A branch condition may be any guard value:
    the walker reads a register's or an ``OrVal``'s truth."""
    blocks = []
    for i, b in enumerate(gf.blocks):
        nxt = f"p{i + 1}"
        if b.guard is False or not b.body:
            blocks.append(BasicBlock(f"p{i}", (), b.prelude, Jump(nxt)))
        elif b.guard is True:
            blocks.append(BasicBlock(f"p{i}", (), b.prelude + b.body, Jump(nxt)))
        else:
            blocks.append(BasicBlock(f"p{i}", (), b.prelude, Branch(b.guard, f"g{i}", nxt)))
            blocks.append(BasicBlock(f"g{i}", (), b.body, Jump(nxt)))
    blocks.append(BasicBlock(f"p{len(gf.blocks)}", (), (), Return()))
    return Function(gf.name, (), tuple(blocks))


def enumerate_guarded(gf: GuardedFunction, n_qubits: int, n_results: int) -> dict[tuple, float]:
    return distribution(enumerate_guarded_leaves(gf, n_qubits, n_results))


def enumerate_guarded_leaves(gf: GuardedFunction, n_qubits: int, n_results: int) -> list[Leaf]:
    fn = _guarded_cfg(gf)
    return enumerate_module_leaves(Module(gf.name, (fn,), fn.name, n_qubits, n_results))
