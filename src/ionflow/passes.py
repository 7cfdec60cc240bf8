"""Target-independent simplification passes.

Three passes, all module-to-module and deterministic:

* ``fold_constants`` — literal arithmetic/comparison folding with copy
  propagation, constant-branch folding (a branch on any literal jumps to
  the arm its truthiness picks), unreachable-block removal, phi pruning and
  dead pure-definition cleanup. Functions fold independently, each in one
  pass to its own fixpoint (the pessimistic one: a phi with two live
  incomings stays a phi). Only all-literal operations fold; no identity
  simplifications are attempted.
* ``flatten`` — makes the entry function call-free and acyclic. Every
  function is first settled once: folded, its counted loops from the
  ``repeat`` sugar unrolled (one serialized body copy per trip), and folded
  again if a loop was unrolled. Each round then inlines one level of calls
  into the entry by procedure cloning: a callee is specialized (literal
  arguments substituted, then settled) once per literal-argument key and
  cloned at each call with that key, so recursions guarded by a literal
  depth bottom out; the entry folds once, after the last round. Each return
  site of an inlined callee gets its own copy of the call continuation
  unless a definition in it escapes (a phi, or a block other than its own,
  reads it; one escape set per round), which is what makes the recursive
  program shape expand into a branching tree.
* ``peephole`` — within-block rewriting of gate pairs on one qubit tuple from
  one table, ``PAIR_RULES``, whose entries are checked unitarily equivalent
  by dense matrices once per process, before first use.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass, fields

from . import gates as G
from .ir import (
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Cfg,
    Cmp,
    Function,
    Instruction,
    IonflowError,
    Jump,
    Module,
    Phi,
    QGate,
    QUANTUM_OPS,
    ROTATION_GATES,
    TWO_QUBIT_GATES,
    ReadResult,
    Return,
    Terminator,
    Value,
    Vreg,
    instr_defs,
    instr_uses,
    map_instr,
    retarget,
    targets,
    wrap_i64,
)


class BudgetExceeded(IonflowError):
    """Loop trip count, recursion depth or entry size exceeded the flatten budgets."""


# Blocks the entry may reach by inlining. Recursion that calls itself twice
# doubles the entry every round: RUS recursion 10 ends at 7,162 blocks, and
# its last round is the largest at 8,186 before folding.
MAX_ENTRY_BLOCKS = 8192


@dataclass(frozen=True)
class FlattenConfig:
    max_inline_depth: int = 64
    max_unroll: int = 1024

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if type(v) is not int or v < 0:
                raise IonflowError(f"flatten budget {f.name}={v!r} is not an int >= 0")


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

_BIT_OPS = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}
_ARITH_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_CMP_OPS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def _eval_binop(op: str, a: Value, b: Value) -> Value:
    bit_op = _BIT_OPS.get(op)
    if bit_op is not None:
        if isinstance(a, bool) and isinstance(b, bool):
            return bit_op(a, b)
        return wrap_i64(bit_op(int(a), int(b)))
    v = _ARITH_OPS[op](a, b)
    return v if isinstance(a, float) or isinstance(b, float) else wrap_i64(v)


def _eval_cmp(op: str, a: Value, b: Value) -> bool:
    return _CMP_OPS[op](a, b)


def _branch_on(cond: Value, then_target: str, else_target: str) -> Branch | Jump:
    """A branch on a literal is a jump to the arm its truthiness picks."""
    if isinstance(cond, Vreg):
        return Branch(cond, then_target, else_target)
    return Jump(then_target if cond else else_target)


def _fold_function(fn: Function) -> Function:
    """Fold ``fn`` to its fixpoint in one call.

    The substitution env and the live edges grow together until the env
    stops growing. An edge is live when it leaves a reachable block and is
    not the arm that a branch on a literal skips; a BinOp or Cmp on two
    literals folds, and a phi with exactly one live incoming, other than
    itself, is a copy. The reachable blocks are then rebuilt once, and pure
    definitions (phi, BinOp, Cmp, ReadResult) are dropped by use count; a
    drop releases its operands, so dead cycles stay.
    """
    env: dict[Vreg, Value] = {}

    def resolve(v: Value) -> Value:
        while isinstance(v, Vreg) and v in env:
            v = env[v]
        return v

    def terminator(b: BasicBlock) -> Terminator:
        t = b.terminator
        return _branch_on(resolve(t.cond), t.then_target, t.else_target) if isinstance(t, Branch) else t

    while True:
        preds: dict[str, set[str]] = {fn.blocks[0].label: set()}  # live predecessors of reachable blocks
        work = [fn.blocks[0].label]
        while work:
            src = work.pop()
            for s in targets(terminator(fn.by_label[src])) if src in fn.by_label else ():
                if s not in preds:
                    preds[s] = set()
                    work.append(s)
                preds[s].add(src)
        size = len(env)
        for b in fn.blocks:
            live = preds.get(b.label)
            if live is None:
                continue
            for phi in b.phis:
                incs = [v for v, l in phi.incomings if l in live]
                if phi.dst not in env and len(incs) == 1 and (v := resolve(incs[0])) != phi.dst:
                    env[phi.dst] = v
            for i in b.body:
                if isinstance(i, (BinOp, Cmp)) and i.dst not in env:
                    x, y = resolve(i.a), resolve(i.b)
                    if not isinstance(x, Vreg) and not isinstance(y, Vreg):
                        env[i.dst] = (_eval_binop if isinstance(i, BinOp) else _eval_cmp)(i.op, x, y)
        if len(env) == size:
            break

    # rebuild, counting each vreg's uses and noting each pure definition's operands
    blocks = []
    uses: Counter[Vreg] = Counter()
    operands: dict[Vreg, tuple[Vreg, ...]] = {}
    for b in fn.blocks:
        live = preds.get(b.label)
        if live is None:
            continue
        phis = [
            Phi(p.dst, tuple((resolve(v), l) for v, l in p.incomings if l in live)) for p in b.phis if p.dst not in env
        ]
        for p in phis:
            operands[p.dst] = tuple(v for v, _l in p.incomings if isinstance(v, Vreg))
            uses.update(operands[p.dst])
        body = [i for i in b.body if not (isinstance(i, (BinOp, Cmp)) and i.dst in env)]
        for k, i in enumerate(body):
            used = instr_uses(i)
            if not env.keys().isdisjoint(used):  # only an instruction with a substituted operand is rebuilt
                body[k] = i = map_instr(i, resolve)
                used = instr_uses(i)
            if isinstance(i, (BinOp, Cmp, ReadResult)):
                operands[i.dst] = used
            uses.update(used)
        t = terminator(b)
        if isinstance(t, Branch):
            uses[t.cond] += 1
        blocks.append(BasicBlock(b.label, tuple(phis), tuple(body), t))

    dead = [d for d in operands if not uses[d]]
    while dead:
        for u in operands[dead.pop()]:
            uses[u] -= 1
            if not uses[u] and u in operands:
                dead.append(u)
    # a pure definition left with no use is dropped
    kept = (
        BasicBlock(
            b.label,
            tuple(p for p in b.phis if uses[p.dst]),
            tuple(i for i in b.body if not isinstance(i, (BinOp, Cmp, ReadResult)) or uses[i.dst]),
            b.terminator,
        )
        for b in blocks
    )
    return Function(fn.name, fn.params, tuple(kept))


def fold_constants(module: Module) -> Module:
    """Fold literal arithmetic to a fixpoint (64-bit wrap, no re-association).

    Functions fold independently, each to its own fixpoint in one pass.
    """
    fns = tuple(_fold_function(fn) for fn in module.functions)
    return Module(module.name, fns, module.entry, module.required_qubits, module.required_results)


# ---------------------------------------------------------------------------
# Flattening: loop unrolling + call inlining
# ---------------------------------------------------------------------------

def _clone_block(b: BasicBlock, ren: dict[Vreg, Value], relabel: dict[str, str]) -> BasicBlock:
    """A copy of ``b`` with its vregs renamed once through ``ren`` (callee or
    loop-body names to caller values; never followed as a chain) and its
    labels through ``relabel``."""

    def rename(v: Value) -> Value:
        return ren.get(v, v)

    phis = tuple(Phi(rename(p.dst), tuple((rename(v), relabel.get(l, l)) for v, l in p.incomings)) for p in b.phis)
    body = tuple(map_instr(i, rename) for i in b.body)
    t = b.terminator
    if isinstance(t, Jump):
        t = Jump(relabel.get(t.target, t.target))
    elif isinstance(t, Branch):
        t = _branch_on(
            rename(t.cond),
            relabel.get(t.then_target, t.then_target),
            relabel.get(t.else_target, t.else_target),
        )
    return BasicBlock(relabel.get(b.label, b.label), phis, body, t)


def _collect_defs(blocks: list[BasicBlock] | tuple[BasicBlock, ...]) -> set[Vreg]:
    out: set[Vreg] = set()
    for b in blocks:
        out.update(p.dst for p in b.phis)
        for i in b.body:
            out.update(instr_defs(i))
    return out


@dataclass
class _CountedLoop:
    header: str
    latch: str
    entries: list[str]  # the header's predecessors outside the loop
    counter: Vreg
    counter_next: Vreg
    cond: Vreg  # the header's counter < limit
    init: int
    limit: int
    body_entry: str
    exit_target: str
    body_labels: list[str]  # excludes header, includes latch


def _match_counted_loop(fn: Function) -> _CountedLoop | None:
    cfg = Cfg.from_function(fn)
    for h in fn.blocks:
        if len(h.phis) != 1 or len(h.body) != 1:
            continue
        phi = h.phis[0]
        cmp = h.body[0]
        if not isinstance(cmp, Cmp) or cmp.op != "lt" or cmp.a != phi.dst or isinstance(cmp.b, Vreg):
            continue
        t = h.terminator
        if not isinstance(t, Branch) or t.cond != cmp.dst:
            continue
        latch_incs = [(v, l) for v, l in phi.incomings if isinstance(v, Vreg)]
        lit_incs = [(v, l) for v, l in phi.incomings if not isinstance(v, Vreg)]
        if len(latch_incs) != 1 or not lit_incs:
            continue
        counter_next, latch_label = latch_incs[0]
        init_vals = {v for v, _l in lit_incs}
        if len(init_vals) != 1:
            continue
        init = next(iter(init_vals))
        if not isinstance(init, int) or isinstance(init, bool):
            continue
        latch = fn.by_label.get(latch_label)
        if latch is None or latch.phis or len(latch.body) != 1:
            continue
        add = latch.body[0]
        if not (isinstance(add, BinOp) and add.op == "add" and add.dst == counter_next and add.a == phi.dst and add.b == 1):
            continue
        if not isinstance(latch.terminator, Jump) or latch.terminator.target != h.label:
            continue
        # natural loop body: blocks that reach the latch without passing the header
        body: set[str] = {latch_label}
        work = [latch_label]
        while work:
            n = work.pop()
            for p in cfg.predecessors(n):
                if p != h.label and p not in body:
                    body.add(p)
                    work.append(p)
        if t.then_target not in body or t.else_target in body:
            continue
        # reject loops whose body phis mention the header/latch machinery
        clean = True
        for lbl in body:
            for p in fn.block(lbl).phis:
                if any(l in (h.label,) for _v, l in p.incomings):
                    clean = False
        if not clean:
            continue
        order = [b.label for b in fn.blocks if b.label in body]
        return _CountedLoop(
            header=h.label,
            latch=latch_label,
            entries=[l for _v, l in lit_incs],
            counter=phi.dst,
            counter_next=counter_next,
            cond=cmp.dst,
            init=init,
            limit=int(cmp.b),
            body_entry=t.then_target,
            exit_target=t.else_target,
            body_labels=order,
        )
    return None


def _unroll_loop(fn: Function, loop: _CountedLoop, max_unroll: int) -> Function:
    trips = max(0, loop.limit - loop.init)
    if trips > max_unroll:
        raise BudgetExceeded(f"loop at '{loop.header}' needs {trips} trips, budget is {max_unroll}")
    body = set(loop.body_labels)
    body_blocks = [fn.block(l) for l in loop.body_labels]
    body_defs = _collect_defs(body_blocks)

    copies: list[list[BasicBlock]] = []
    entry_of_copy: list[str] = []
    rens: list[dict[Vreg, Value]] = []
    for k in range(trips):
        relabel = {l: f"{l}.u{k}" for l in loop.body_labels}
        ren: dict[Vreg, Value] = {v: Vreg(f"{v.name}.u{k}") for v in body_defs}
        ren[loop.counter] = loop.init + k
        ren[loop.cond] = True
        rens.append(ren)
        copies.append([_clone_block(b, ren, relabel) for b in body_blocks])
        entry_of_copy.append(relabel[loop.body_entry])
    # each copy's back edge (only the latch jumps to the header) goes to the
    # next copy, the last one to the loop exit
    for k in range(trips):
        nxt = entry_of_copy[k + 1] if k + 1 < trips else loop.exit_target
        copies[k] = [retarget(b, loop.header, nxt) for b in copies[k]]

    # A phi outside the loop that names the header now names what reaches the
    # exit in its place: the last latch copy, or with no trips the header's
    # outside predecessors; there the counter is init + trips and the loop
    # condition false. One that names a body block names it in every copy,
    # with that copy's renaming.
    exits = [f"{loop.latch}.u{trips - 1}"] if trips else loop.entries
    exit_ren: dict[Vreg, Value] = {loop.counter: loop.init + trips, loop.cond: False}

    def incomings(v: Value, l: str) -> list[tuple[Value, str]]:
        if l == loop.header:
            return [(exit_ren.get(v, v), e) for e in exits]
        if l in body:
            return [(ren.get(v, v), f"{l}.u{k}") for k, ren in enumerate(rens)]
        return [(v, l)]

    first_target = entry_of_copy[0] if trips else loop.exit_target
    out: list[BasicBlock] = []
    for b in fn.blocks:
        if b.label == loop.header:
            for copy in copies:
                out.extend(copy)
        elif b.label not in body:
            phis = tuple(Phi(p.dst, tuple(x for v, l in p.incomings for x in incomings(v, l))) for p in b.phis)
            out.append(retarget(BasicBlock(b.label, phis, b.body, b.terminator), loop.header, first_target))
    return Function(fn.name, fn.params, tuple(out))


def _settle(fn: Function, max_unroll: int) -> Function:
    """Fold, unroll the counted loops, and fold again if a loop was unrolled."""
    fn = _fold_function(fn)
    unrolled = False
    while (loop := _match_counted_loop(fn)) is not None:
        fn = _unroll_loop(fn, loop, max_unroll)
        unrolled = True
    return _fold_function(fn) if unrolled else fn


def _escaping(fn: Function) -> set[Vreg]:
    """The values that a phi of ``fn`` reads, or a block other than their defining one."""
    home = {d: b.label for b in fn.blocks for i in b.body for d in instr_defs(i)}
    out = {v for b in fn.blocks for p in b.phis for v, _l in p.incomings if isinstance(v, Vreg)}
    for b in fn.blocks:
        reads = [u for i in b.body for u in instr_uses(i)]
        if isinstance(b.terminator, Branch):
            reads.append(b.terminator.cond)
        out.update(u for u in reads if home.get(u) != b.label)
    return out


class _Inliner:
    def __init__(self, callees: dict[str, Function], max_unroll: int):
        self.callees = callees
        self.max_unroll = max_unroll
        self.counter = 0
        self.specs: dict[tuple, tuple[Function, set[Vreg]]] = {}  # with the values each one defines
        # a block that ends in a call hands its terminator to continuation
        # copies; successor phis must then take their incoming from those
        # copies instead of the original label
        self.redirects: dict[str, list[str]] = {}
        self.escaping = functools.cache(set)  # of the round's entry, built on first need

    def inline_level(self, entry: Function) -> Function:
        """Inline every call currently present in ``entry``, one level."""
        self.redirects = {}
        self.escaping = functools.cache(functools.partial(_escaping, entry))
        out: list[BasicBlock] = []
        for block in entry.blocks:
            out.extend(self._expand_block(block))
        return Function(entry.name, entry.params, tuple(self._apply_phi_redirects(out)))

    def _specialize(self, call: Call) -> tuple[Function, set[Vreg]]:
        """The settled callee with ``call``'s literal arguments substituted and
        settled again (a loop whose trip count was an argument unrolls here),
        and the values it defines.

        Memoized per callee and literal-argument key. Literals are keyed by
        type and repr, since 1, 1.0 and true compare equal but fold apart.
        """
        key = (call.callee, tuple(None if isinstance(a, Vreg) else (type(a), repr(a)) for a in call.args))
        if key not in self.specs:
            callee = self.callees[call.callee]
            lits: dict[Vreg, Value] = {p: a for (p, _ty), a in zip(callee.params, call.args) if not isinstance(a, Vreg)}
            blocks = tuple(_clone_block(b, lits, {}) for b in callee.blocks)
            spec = _settle(Function(callee.name, callee.params, blocks), self.max_unroll)
            self.specs[key] = spec, _collect_defs(spec.blocks)
        return self.specs[key]

    def _expand_block(self, block: BasicBlock) -> list[BasicBlock]:
        call_idx = next((i for i, ins in enumerate(block.body) if isinstance(ins, Call)), None)
        if call_idx is None:
            return [block]
        call = block.body[call_idx]
        assert isinstance(call, Call)
        callee = self.callees[call.callee]
        spec, spec_defs = self._specialize(call)
        sfx = f".c{self.counter}"
        self.counter += 1

        relabel = {b.label: f"{b.label}{sfx}" for b in spec.blocks}
        ren: dict[Vreg, Value] = {}
        for (pv, _ty), arg in zip(spec.params, call.args):
            ren[pv] = arg
        for v in spec_defs:
            ren[v] = Vreg(f"{v.name}{sfx}")

        # continuations are numbered, and shared or not, by the settled
        # callee's returns, so a return the specialization pruned keeps its number
        ret_labels = [b.label for b in callee.blocks if isinstance(b.terminator, Return)]
        tail_body = block.body[call_idx + 1 :]
        tail_defs = _collect_defs([BasicBlock("", (), tail_body, Return())])
        # a continuation copy's renamed definitions are read only inside it,
        # so they escape no more than the ones they copy
        duplicate = len(ret_labels) <= 1 or not tail_defs or self.escaping().isdisjoint(tail_defs)

        cont_labels: dict[str, str] = {}
        cont_blocks: list[BasicBlock] = []
        if duplicate:
            for j, rl in enumerate(ret_labels):
                cl = f"{block.label}{sfx}.cont{j}"
                cont_labels[rl] = cl
                ren_tail: dict[Vreg, Value] = (
                    {v: Vreg(f"{v.name}{sfx}.k{j}") for v in tail_defs} if j > 0 else {}
                )
                cont_blocks.append(_clone_block(BasicBlock(cl, (), tail_body, block.terminator), ren_tail, {}))
        else:
            cl = f"{block.label}{sfx}.cont0"
            for rl in ret_labels:
                cont_labels[rl] = cl
            cont_blocks.append(BasicBlock(cl, (), tail_body, block.terminator))

        wired = []
        for b in spec.blocks:
            nb = _clone_block(b, ren, relabel)
            if isinstance(nb.terminator, Return):
                wired.append(BasicBlock(nb.label, nb.phis, nb.body, Jump(cont_labels[b.label])))
            else:
                wired.append(nb)

        head = BasicBlock(block.label, block.phis, block.body[:call_idx], Jump(relabel[spec.blocks[0].label]))
        live = {cont_labels[b.label] for b in spec.blocks if isinstance(b.terminator, Return)}
        self.redirects[block.label] = [c.label for c in cont_blocks if c.label in live]
        # continuations may themselves contain further calls from this round; a
        # dead one is expanded too, and dropped, so that call numbering does
        # not depend on which returns a specialization pruned
        expanded_conts: list[BasicBlock] = []
        for c in cont_blocks:
            expanded = self._expand_block(c)
            if c.label in live:
                expanded_conts.extend(expanded)
        return [head, *wired, *expanded_conts]

    def _apply_phi_redirects(self, blocks: list[BasicBlock]) -> list[BasicBlock]:
        out = []
        for b in blocks:
            phis = []
            for phi in b.phis:
                inc = list(phi.incomings)
                while any(l in self.redirects for _v, l in inc):
                    nxt = []
                    for v, l in inc:
                        if l in self.redirects:
                            nxt.extend((v, nl) for nl in self.redirects[l])
                        else:
                            nxt.append((v, l))
                    inc = nxt
                phis.append(Phi(phi.dst, tuple(inc)))
            out.append(BasicBlock(b.label, tuple(phis), b.body, b.terminator))
        return out


def flatten(module: Module, config: FlattenConfig = FlattenConfig()) -> Module:
    """Remove calls and loops from the entry function; result is single-function.

    Every function is settled once; each round then inlines one level of
    calls into the entry, cloning one specialization per callee and
    literal-argument key, and the entry folds once after the last round.
    Raises BudgetExceeded when a loop needs more trips than ``max_unroll``,
    calls remain after ``max_inline_depth`` rounds, or a round would grow the
    entry past ``MAX_ENTRY_BLOCKS`` (counted from the settled callees).
    """
    settled = {fn.name: _settle(fn, config.max_unroll) for fn in module.functions}
    inliner = _Inliner(settled, config.max_unroll)
    entry = settled[module.entry]
    rounds = 0
    while calls := [i for b in entry.blocks for i in b.body if isinstance(i, Call)]:
        if rounds >= config.max_inline_depth:
            raise BudgetExceeded(f"calls remain after {config.max_inline_depth} inline rounds")
        # each call adds its callee's blocks and one continuation block
        grown = len(entry.blocks) + sum(len(settled[c.callee].blocks) + 1 for c in calls)
        if grown > MAX_ENTRY_BLOCKS:
            raise BudgetExceeded(f"inlining would grow the entry to {grown} blocks, budget is {MAX_ENTRY_BLOCKS}")
        entry = inliner.inline_level(entry)
        rounds += 1
    # Specializations are settled, so the entry only needs one fold, which
    # drops the definitions whose only uses a specialization pruned.
    if rounds:
        entry = _fold_function(entry)
    return Module(module.name, (entry,), module.entry, module.required_qubits, module.required_results)


# ---------------------------------------------------------------------------
# Peephole rewriting
# ---------------------------------------------------------------------------

# Two gates on one qubit tuple that rewrite to at most one gate on it: the
# pairwise cancellations and rotation merges of Nam et al., "Automated
# optimization of large quantum circuits with continuous parameters" (2018).
# A rotation in a replacement takes the sum of the pair's angles.
PAIR_RULES: dict[tuple[str, str], tuple[str, ...]] = {
    ("h", "h"): (),
    ("x", "x"): (),
    ("z", "z"): (),
    ("t", "t"): ("s",),
    ("s", "s"): ("z",),
    ("t", "tdg"): (),
    ("s", "sdg"): (),
    ("rz", "rz"): ("rz",),
    ("cx", "cx"): (),
}


def check_rule(pair: tuple[str, str], replacement: tuple[str, ...]) -> None:
    """Raise ValueError unless ``pair`` equals ``replacement`` up to global phase.

    Dense unitaries are compared at two sample angle sets: the pair's gates
    take the angles a and b, the replacement's a + b (gates without an angle
    ignore theirs).
    """
    qubits = (0, 1) if pair[0] in TWO_QUBIT_GATES else (0,)
    for a in (0.37, 1.91):
        b = 2.0 * a + 0.11
        up = G.sequence_unitary([(pair[0], qubits, a), (pair[1], qubits, b)], len(qubits))
        ur = G.sequence_unitary([(name, qubits, a + b) for name in replacement], len(qubits))
        if not G.equal_up_to_phase(up, ur):
            raise ValueError(f"rule {pair} -> {replacement} is not unitarily equivalent")


@functools.cache  # the table is fixed; it is matrix-checked once per process, before first use
def _check_pair_rules() -> None:
    for pair, replacement in PAIR_RULES.items():
        check_rule(pair, replacement)


def _rewrite_once(body: list[Instruction]) -> list[Instruction] | None:
    """``body`` with the first matching window rewritten, or None if no rule matches."""
    for i, g1 in enumerate(body):
        if not isinstance(g1, QGate):
            continue
        q1 = set(g1.qubits)
        for j in range(i + 1, len(body)):
            if isinstance(body[j], QUANTUM_OPS) and not q1.isdisjoint(body[j].qubits):
                break
        else:
            continue
        g2 = body[j]
        if not isinstance(g2, QGate) or g2.qubits != g1.qubits:
            continue  # the next instruction on these qubits is no gate, or not on the same qubit tuple
        replacement = PAIR_RULES.get((g1.name, g2.name))
        arity = 2 if g1.name in TWO_QUBIT_GATES else 1
        if replacement is None or not len(q1) == len(g1.qubits) == arity:
            continue  # no rule, or a malformed gate: wrong arity or a repeated qubit
        rotation = g1.name in ROTATION_GATES
        if rotation and not all(isinstance(a, (int, float)) and not isinstance(a, bool) for a in (g1.angle, g2.angle)):
            continue  # only int and float literal angles merge
        angle = float(g1.angle) + float(g2.angle) if rotation else None
        return body[:i] + [QGate(name, g1.qubits, angle) for name in replacement] + body[i + 1 : j] + body[j + 1 :]
    return None


def peephole(module: Module) -> Module:
    """Rewrite gate pairs from ``PAIR_RULES`` within each block until none matches."""
    _check_pair_rules()
    fns = []
    for fn in module.functions:
        blocks = []
        for b in fn.blocks:
            body = list(b.body)
            while (rewritten := _rewrite_once(body)) is not None:
                body = rewritten
            blocks.append(BasicBlock(b.label, b.phis, tuple(body), b.terminator))
        fns.append(Function(fn.name, fn.params, tuple(blocks)))
    return Module(module.name, tuple(fns), module.entry, module.required_qubits, module.required_results)
