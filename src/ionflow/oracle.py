"""Reference enumeration semantics, independent of the compiled fast path.

Two interpreters, both noiseless and exact:

* ``enumerate_module`` walks the IR directly (blocks, branches, phis, calls,
  even counted loops) and branches depth-first on every measurement outcome,
  producing the exact distribution over recorded outputs.
* ``enumerate_guarded`` does the same for the if-converted linear form.

These are deliberately written against the plain matrix embedding from
``gates`` rather than the emulator's in-place kernels, so the oracle and the
emulator's single compiled-form interpreter share no simulation code.

Both walkers hand every measurement and reset to one helper, ``_branch``. An
outcome is live when the weight of its own amplitudes exceeds ``PRUNE_EPS``;
two live outcomes fork the path, within a per-path branching budget. A reset
collapses like a measurement; when both collapse branches land on the same
post-reset state (the common unentangled case) they are merged so path
counts stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates as G
from .ir import (
    OUTPUT_TOKEN,
    BinOp,
    Branch,
    Call,
    Cmp,
    Function,
    Jump,
    Measure,
    Module,
    Output,
    QGate,
    ReadResult,
    Reset,
    Value,
    Vreg,
)
from .passes import _eval_binop, _eval_cmp
from .predication import GuardedFunction, GuardVal, OrVal, Select
from .regalloc import PReg

# An outcome whose amplitude weight is below this is rounding noise, not an arm.
PRUNE_EPS = 1e-12


class TooManyBranches(Exception):
    """A path needs more branching measurement or reset events than the budget allows."""


@dataclass
class Leaf:
    prob: float
    outputs: tuple
    state: np.ndarray
    slots: tuple[int, ...]


def _apply_gate(state: np.ndarray, name: str, qubits: tuple[int, ...], angle, n: int) -> np.ndarray:
    return G.embed(name, qubits, angle, n) @ state


def _branch(st, q: int, slot: int | None, n: int, cap: int, resume) -> bool:
    """Measure (``slot`` set) or reset (``slot`` None) qubit ``q`` of path ``st``.

    With one live outcome, or a reset whose two outcomes leave the same state,
    ``st`` continues in place and this returns False. Otherwise every live
    outcome goes to ``resume`` as a copy of ``st`` and this returns True.
    """
    bit = (np.arange(st.state.size) >> q) & 1
    arms = []
    for o in (0, 1):
        kept = np.where(bit == o, st.state, 0.0)
        p = float(np.sum(np.abs(kept) ** 2))
        if p > PRUNE_EPS:
            s = kept / np.sqrt(p)
            arms.append((o, p, s if slot is not None or o == 0 else _apply_gate(s, "x", (q,), None, n)))
    if len(arms) == 2 and slot is None and G.equal_up_to_phase(arms[0][2], arms[1][2]):
        arms.pop()
    if len(arms) == 1:
        o, _p, st.state = arms[0]
        if slot is not None:
            st.slots[slot] = o
        return False
    if st.branch_events + 1 > cap:
        raise TooManyBranches(f"more than {cap} branching measurement events on one path")
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


def _resolve(v: Value, env: dict) -> Value:
    if isinstance(v, (Vreg, PReg)):
        return env.get(v, False)
    return v


def _qubit_index(q, env: dict[Vreg, Value]) -> int:
    if isinstance(q, Vreg):
        q = env.get(q)
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"unresolved qubit operand {q!r}")
    return q


def enumerate_module_leaves(module: Module, max_branch_events: int = 20) -> list[Leaf]:
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
    _run_module(module, start, leaves, max_branch_events)
    return leaves


def _run_module(module: Module, ms: _MState, leaves: list[Leaf], cap: int) -> None:
    n = module.required_qubits
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
            if isinstance(instr, QGate):
                qubits = tuple(_qubit_index(q, fr.env) for q in instr.qubits)
                angle = _resolve(instr.angle, fr.env) if instr.angle is not None else None
                ms.state = _apply_gate(ms.state, instr.name, qubits, angle, n)
            elif isinstance(instr, (Measure, Reset)):
                q = _qubit_index(instr.qubit, fr.env)
                slot = instr.slot if isinstance(instr, Measure) else None
                if _branch(ms, q, slot, n, cap, lambda child: _run_module(module, child, leaves, cap)):
                    return  # every arm handled recursively
            elif isinstance(instr, ReadResult):
                fr.env[instr.dst] = bool(ms.slots[instr.slot])
            elif isinstance(instr, BinOp):
                fr.env[instr.dst] = _eval_binop(instr.op, _resolve(instr.a, fr.env), _resolve(instr.b, fr.env))
            elif isinstance(instr, Cmp):
                fr.env[instr.dst] = _eval_cmp(instr.op, _resolve(instr.a, fr.env), _resolve(instr.b, fr.env))
            elif isinstance(instr, Output):
                _record_output(ms.outputs, instr, ms.slots)
            elif isinstance(instr, Call):
                callee = module.function(instr.callee)
                env = {pv: _resolve(a, fr.env) for (pv, _t), a in zip(callee.params, instr.args)}
                ms.frames.append(_Frame(callee, env, callee.blocks[0].label, None, 0, False))
                break
            else:  # pragma: no cover
                raise TypeError(f"cannot interpret {instr!r}")
        else:
            term = block.terminator
            if isinstance(term, Jump):
                fr.prev_label, fr.label, fr.idx, fr.phis_done = fr.label, term.target, 0, False
            elif isinstance(term, Branch):
                cond = _resolve(term.cond, fr.env)
                target = term.then_target if cond else term.else_target
                fr.prev_label, fr.label, fr.idx, fr.phis_done = fr.label, target, 0, False
            else:
                ms.frames.pop()
    leaves.append(Leaf(ms.prob, tuple(ms.outputs), ms.state, tuple(ms.slots)))


def _record_output(outputs: list, instr: Output, slots: list[int]) -> None:
    outputs.append(slots[instr.slot] if instr.kind == "result" else OUTPUT_TOKEN[instr.kind])


def enumerate_module(module: Module, max_branch_events: int = 20) -> dict[tuple, float]:
    """Exact output distribution of a module; probabilities sum to 1."""
    dist: dict[tuple, float] = {}
    for leaf in enumerate_module_leaves(module, max_branch_events):
        dist[leaf.outputs] = dist.get(leaf.outputs, 0.0) + leaf.prob
    return dist


# ---------------------------------------------------------------------------
# Guarded-form interpreter
# ---------------------------------------------------------------------------

@dataclass
class _GState:
    state: np.ndarray
    slots: list[int]
    outputs: list
    prob: float
    regs: dict[Vreg, Value]
    block_idx: int
    in_body: bool
    instr_idx: int
    branch_events: int

    def copy(self) -> "_GState":
        return _GState(
            self.state.copy(), self.slots[:], self.outputs[:], self.prob,
            dict(self.regs), self.block_idx, self.in_body, self.instr_idx, self.branch_events,
        )


def eval_guard_val(gv: GuardVal, regs: dict) -> bool:
    if isinstance(gv, bool):
        return gv
    if isinstance(gv, (Vreg, PReg)):
        return bool(regs.get(gv, False))
    if isinstance(gv, OrVal):
        return any(eval_guard_val(p, regs) for p in gv.parts)
    raise TypeError(f"bad guard value {gv!r}")


def enumerate_guarded(gf: GuardedFunction, n_qubits: int, n_results: int, max_branch_events: int = 20) -> dict[tuple, float]:
    dist: dict[tuple, float] = {}
    for leaf in enumerate_guarded_leaves(gf, n_qubits, n_results, max_branch_events):
        dist[leaf.outputs] = dist.get(leaf.outputs, 0.0) + leaf.prob
    return dist


def enumerate_guarded_leaves(
    gf: GuardedFunction, n_qubits: int, n_results: int, max_branch_events: int = 20
) -> list[Leaf]:
    init = np.zeros(1 << max(n_qubits, 1), dtype=complex)
    init[0] = 1.0
    start = _GState(init, [0] * n_results, [], 1.0, {}, 0, False, 0, 0)
    leaves: list[Leaf] = []
    _run_guarded(gf, n_qubits, start, leaves, max_branch_events)
    return leaves


def _run_guarded(gf: GuardedFunction, n: int, gs: _GState, leaves: list[Leaf], cap: int) -> None:
    while gs.block_idx < len(gf.blocks):
        block = gf.blocks[gs.block_idx]
        if not gs.in_body:
            for k in range(gs.instr_idx, len(block.prelude)):
                ins = block.prelude[k]
                if isinstance(ins, Select):
                    cond = _resolve(ins.cond, gs.regs)
                    gs.regs[ins.dst] = _resolve(ins.a if cond else ins.b, gs.regs)
                elif isinstance(ins, BinOp):
                    gs.regs[ins.dst] = _eval_binop(ins.op, _resolve(ins.a, gs.regs), _resolve(ins.b, gs.regs))
                elif isinstance(ins, Cmp):
                    gs.regs[ins.dst] = _eval_cmp(ins.op, _resolve(ins.a, gs.regs), _resolve(ins.b, gs.regs))
                elif isinstance(ins, ReadResult):
                    gs.regs[ins.dst] = bool(gs.slots[ins.slot])
                else:  # pragma: no cover
                    raise TypeError(f"prelude cannot hold {ins!r}")
            gs.in_body = True
            gs.instr_idx = 0
            if not eval_guard_val(block.guard, gs.regs):
                gs.block_idx += 1
                gs.in_body = False
                continue
        while gs.instr_idx < len(block.body):
            instr = block.body[gs.instr_idx]
            gs.instr_idx += 1
            if isinstance(instr, QGate):
                qubits = tuple(q for q in instr.qubits)
                angle = _resolve(instr.angle, gs.regs) if instr.angle is not None else None
                gs.state = _apply_gate(gs.state, instr.name, qubits, angle, n)
            elif isinstance(instr, (Measure, Reset)):
                slot = instr.slot if isinstance(instr, Measure) else None
                if _branch(gs, instr.qubit, slot, n, cap, lambda child: _run_guarded(gf, n, child, leaves, cap)):
                    return
            elif isinstance(instr, ReadResult):
                gs.regs[instr.dst] = bool(gs.slots[instr.slot])
            elif isinstance(instr, BinOp):
                gs.regs[instr.dst] = _eval_binop(instr.op, _resolve(instr.a, gs.regs), _resolve(instr.b, gs.regs))
            elif isinstance(instr, Cmp):
                gs.regs[instr.dst] = _eval_cmp(instr.op, _resolve(instr.a, gs.regs), _resolve(instr.b, gs.regs))
            elif isinstance(instr, Output):
                _record_output(gs.outputs, instr, gs.slots)
            else:  # pragma: no cover
                raise TypeError(f"guarded body cannot hold {instr!r}")
        gs.block_idx += 1
        gs.in_body = False
        gs.instr_idx = 0
    leaves.append(Leaf(gs.prob, tuple(gs.outputs), gs.state, tuple(gs.slots)))
