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

It runs every instruction other than control flow and calls through one
helper, ``_step``, which hands measurements and resets to ``_branch``. An
outcome is live when the weight of its own amplitudes exceeds ``PRUNE_EPS``;
two live outcomes fork the path, within ``MAX_BRANCH_EVENTS`` per path. A
reset collapses like a measurement; when both collapse branches land on the
same post-reset state (the common unentangled case) they are merged so path
counts stay small.

The walker dispatches on exact types, the most frequent first, and
``_branch`` takes its outcome masks from a cache keyed by state size and
qubit; neither changes anything the oracle computes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    Instruction,
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
    Value,
    Vreg,
)
from .passes import _eval_binop, _eval_cmp
from .predication import GuardedFunction, GuardVal, OrVal
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


def _resolve(v: Value, env: dict) -> Value:
    t = type(v)
    if t is PReg or t is Vreg:
        return env.get(v, False)
    return v


def _qubit_index(q, env: dict[Vreg, Value]) -> int:
    if type(q) is Vreg:
        q = env.get(q)
    if type(q) is not int:  # a bool is not a qubit index
        raise IonflowError(f"unresolved qubit operand {q!r}")
    return q


def _step(st, ins: Instruction, env: dict, n: int, resume) -> bool:
    """Run one non-control instruction on path ``st`` with registers ``env``.

    Returns True when a measurement or reset forked the path, every arm of
    which ``_branch`` has handed to ``resume``.
    """
    t = type(ins)  # exact types, the most frequent first
    if t is BinOp:
        env[ins.dst] = _eval_binop(ins.op, _resolve(ins.a, env), _resolve(ins.b, env))
    elif t is Output:
        st.outputs.append(st.slots[ins.slot] if ins.kind == "result" else OUTPUT_TOKEN[ins.kind])
    elif t is QGate:
        qubits = tuple(_qubit_index(q, env) for q in ins.qubits)
        st.state = G.embed(ins.name, qubits, _resolve(ins.angle, env), n) @ st.state
    elif t is ReadResult:
        env[ins.dst] = bool(st.slots[ins.slot])
    elif t is Measure:
        return _branch(st, _qubit_index(ins.qubit, env), ins.slot, n, resume)
    elif t is Reset:
        return _branch(st, _qubit_index(ins.qubit, env), None, n, resume)
    elif t is Cmp:
        env[ins.dst] = _eval_cmp(ins.op, _resolve(ins.a, env), _resolve(ins.b, env))
    elif t is Select:
        env[ins.dst] = _resolve(ins.a if _resolve(ins.cond, env) else ins.b, env)
    else:  # pragma: no cover
        raise TypeError(f"cannot interpret {ins!r}")
    return False


# ---------------------------------------------------------------------------
# Module-level interpreter
# ---------------------------------------------------------------------------

@dataclass
class _Frame:
    fn: Function
    env: dict[Vreg, Value]
    label: str
    prev_label: str | None
    idx: int
    phis_done: bool


@dataclass
class _MState:
    state: np.ndarray
    slots: list[int]
    outputs: list
    prob: float
    frames: list[_Frame]
    branch_events: int

    def copy(self) -> "_MState":
        return _MState(
            state=self.state.copy(),
            slots=self.slots[:],
            outputs=self.outputs[:],
            prob=self.prob,
            frames=[_Frame(f.fn, dict(f.env), f.label, f.prev_label, f.idx, f.phis_done) for f in self.frames],
            branch_events=self.branch_events,
        )


def enumerate_module_leaves(module: Module) -> list[Leaf]:
    """All terminal trajectories of a module with exact probabilities."""
    n = module.required_qubits
    init = np.zeros(1 << max(n, 1), dtype=complex)
    init[0] = 1.0
    entry = module.entry_function
    start = _MState(
        state=init,
        slots=[0] * module.required_results,
        outputs=[],
        prob=1.0,
        frames=[_Frame(entry, {}, entry.blocks[0].label, None, 0, False)],
        branch_events=0,
    )
    leaves: list[Leaf] = []
    _run_module(module, start, leaves)
    return leaves


def _run_module(module: Module, ms: _MState, leaves: list[Leaf]) -> None:
    n = module.required_qubits

    def resume(child: _MState) -> None:
        _run_module(module, child, leaves)

    while ms.frames:
        fr = ms.frames[-1]
        block = fr.fn.block(fr.label)
        if not fr.phis_done:
            if block.phis:
                vals = []
                for phi in block.phis:
                    match = [v for v, l in phi.incomings if l == fr.prev_label]
                    vals.append(_resolve(match[0], fr.env) if match else False)
                for phi, v in zip(block.phis, vals):
                    fr.env[phi.dst] = v
            fr.phis_done = True
        while fr.idx < len(block.body):
            instr = block.body[fr.idx]
            fr.idx += 1
            if type(instr) is Call:
                callee = module.function(instr.callee)
                env = {pv: _resolve(a, fr.env) for (pv, _t), a in zip(callee.params, instr.args)}
                ms.frames.append(_Frame(callee, env, callee.blocks[0].label, None, 0, False))
                break
            if _step(ms, instr, fr.env, n, resume):
                return  # every arm handled recursively
        else:
            term = block.terminator
            if type(term) is Jump:
                fr.prev_label, fr.label, fr.idx, fr.phis_done = fr.label, term.target, 0, False
            elif type(term) is Branch:
                cond = eval_guard_val(term.cond, fr.env)
                target = term.then_target if cond else term.else_target
                fr.prev_label, fr.label, fr.idx, fr.phis_done = fr.label, target, 0, False
            else:
                ms.frames.pop()
    leaves.append(Leaf(ms.prob, tuple(ms.outputs), ms.state, tuple(ms.slots)))


def enumerate_module(module: Module) -> dict[tuple, float]:
    """Exact output distribution of a module; probabilities sum to 1."""
    return distribution(enumerate_module_leaves(module))


# ---------------------------------------------------------------------------
# Guarded form, walked as the CFG it stands for
# ---------------------------------------------------------------------------

def eval_guard_val(gv: GuardVal, regs: dict) -> bool:
    t = type(gv)  # exact types, the most frequent first
    if t is PReg or t is Vreg:
        return bool(regs.get(gv, False))
    if t is OrVal:  # flat: its parts are registers or bools
        for p in gv.parts:
            if (p if type(p) is bool else regs.get(p, False)):
                return True
        return False
    if t is bool:
        return gv
    raise TypeError(f"bad guard value {gv!r}")


def _guarded_cfg(gf: GuardedFunction) -> Function:
    """``gf`` as a function: block ``p{i}`` runs guarded block ``i``'s prelude
    and branches on its guard into ``g{i}``, the body, or past it to
    ``p{i+1}``; ``p{len(gf.blocks)}`` returns. A literal guard or an empty
    body needs no branch. Labels come from indices, so no block label of
    ``gf`` can collide with them. A branch condition may be any guard value:
    the walker reads it through ``eval_guard_val``."""
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
