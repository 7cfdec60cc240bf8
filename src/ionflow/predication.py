"""If-conversion: flatten an acyclic CFG into guard-predicated linear blocks.

Blocks are emitted in topological order. Each block carries a predicate built
from the branch conditions along its incoming edges:

    guard(entry) = true
    guard(B)     = OR over incoming edges (P -> B) of AND(guard(P), edge cond)

One boolean register is materialized per conditional edge; unconditional
edges reuse the predecessor's guard and OR-joins stay symbolic until some
later edge needs them as an operand. All guard arithmetic is emitted as
plain instructions executed unconditionally *before* the block it feeds —
a false guard masks whatever stale values skipped code left behind. Phi
nodes become ``ir.Select`` instructions over the incoming edge guards,
keeping every register single-assignment; ``textir`` formats them like any
other instruction.

The same walk over the same in-edges also builds each block's guard as a
symbolic formula. The backend compares those (conjunction containment) to
decide where ion placement may flow from one block to the next without a
reconciliation checkpoint. This is the if-conversion of Allen, Kennedy,
Porterfield and Warren, "Conversion of control dependence to data
dependence" (POPL 1983).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .ir import (
    BinOp,
    Branch,
    Call,
    Cfg,
    Function,
    Instruction,
    IonflowError,
    Select,
    TRUE_ARM,
    UNCOND,
    Value,
    Vreg,
    instr_defs,
    topo_sort,
)
from .textir import _fmt_instr, _fmt_value


class NonSSA(IonflowError):
    """A vreg is defined twice."""


# Symbolic guards, used for implication reasoning -----------------------------

@dataclass(frozen=True)
class STrue:
    pass


@dataclass(frozen=True)
class SRef:
    vreg: Vreg


@dataclass(frozen=True)
class SNot:
    inner: "SymGuard"


@dataclass(frozen=True)
class SAnd:
    left: "SymGuard"
    right: "SymGuard"


@dataclass(frozen=True)
class SOr:
    disjuncts: tuple["SymGuard", ...]


SymGuard = Union[STrue, SRef, SNot, SAnd, SOr]


def sym_implies(g: SymGuard, h: SymGuard) -> bool:
    """Conservative syntactic implication g => h (sound, not complete): an
    ``SAnd`` implies ``h`` if either side does, an ``SOr`` if every disjunct
    does. ``if_convert`` builds each distinct formula once, so a part equals
    ``h`` only if it is ``h``. Guards nest one level per chained branch, so
    the walk keeps its own stack; it stops at the first part that settles
    its frame, in the order of the parts."""
    if isinstance(h, STrue):
        return True
    stack: list[tuple[bool, Iterator[SymGuard]]] = []  # (settled by a True?, parts left)
    node = g
    while True:
        if node is h:
            res: bool | None = True
        elif isinstance(node, SAnd):
            stack.append((True, iter((node.left, node.right))))
            res = None
        elif isinstance(node, SOr):
            stack.append((False, iter(node.disjuncts)))
            res = None
        else:
            res = False
        while True:  # settle frames until one has a part to walk next
            if not stack:
                return res
            any_of, parts = stack[-1]
            if res is not any_of:
                node = next(parts, None)
                if node is not None:
                    break
                res = not any_of
            stack.pop()


# Materialized guard values ----------------------------------------------------

@dataclass(frozen=True)
class OrVal:
    """A not-yet-materialized OR join, flat: its parts are bools and Vregs (PRegs after regalloc)."""

    parts: tuple


GuardVal = Union[bool, Vreg, OrVal]


def guard_vregs(gv: GuardVal) -> tuple[Vreg, ...]:
    return tuple(p for p in (gv.parts if isinstance(gv, OrVal) else (gv,)) if isinstance(p, Vreg))


@dataclass(frozen=True)
class GuardedBlock:
    label: str
    prelude: tuple[Instruction, ...]  # unconditional guard/phi bookkeeping
    guard: GuardVal
    symbolic: SymGuard
    body: tuple[Instruction, ...]


@dataclass(frozen=True)
class GuardedFunction:
    name: str
    blocks: tuple[GuardedBlock, ...]
    new_vregs: int


class _Materializer:
    def __init__(self, taken_names: set[str]):
        self.taken = taken_names
        self.count = 0
        self.new_vregs = 0

    def fresh(self, stem: str) -> Vreg:
        while True:
            name = f"{stem}{self.count}"
            self.count += 1
            if name not in self.taken:
                self.taken.add(name)
                self.new_vregs += 1
                return Vreg(name)


def if_convert(fn: Function) -> GuardedFunction:
    """Linearize an acyclic, SSA, call-free function into guarded blocks."""
    seen_defs: set[Vreg] = set()
    for b in fn.blocks:
        for phi in b.phis:
            if phi.dst in seen_defs:
                raise NonSSA(str(phi.dst))
            seen_defs.add(phi.dst)
        for ins in b.body:
            if isinstance(ins, Call):
                raise IonflowError(f"function @{fn.name} still contains calls")
            for d in instr_defs(ins):
                if d in seen_defs:
                    raise NonSSA(str(d))
                seen_defs.add(d)

    cfg = Cfg.from_function(fn)
    order = topo_sort(cfg)  # raises CycleDetected

    mat = _Materializer({v.name for v in seen_defs} | {v.name for v, _t in fn.params})
    guard_val: dict[str, GuardVal] = {}
    sym: dict[str, SymGuard] = {}
    edge_val: dict[tuple[str, str, str], GuardVal] = {}
    # the two arm guards of one branch OR back to the branch block's own
    # guard; joins matching such a pair reuse that value instead of a fresh OR
    complement: dict[frozenset, GuardVal] = {}
    # each distinct symbolic guard is built once, keyed by its parts'
    # identities (a register by its name), so equal guards are one object
    formulas: dict[tuple, SymGuard] = {}

    def formula(cls, *parts) -> SymGuard:
        key = (cls, *(p if isinstance(p, Vreg) else id(p) for p in parts))
        f = formulas.get(key)
        if f is None:
            f = formulas[key] = cls(parts) if cls is SOr else cls(*parts)
        return f

    out_blocks: list[GuardedBlock] = []

    def materialize(gv: GuardVal, prelude: list[Instruction]) -> bool | Vreg:
        if not isinstance(gv, OrVal):
            return gv
        acc: Value = gv.parts[0]
        for p in gv.parts[1:]:
            dst = mat.fresh("g")
            prelude.append(BinOp("or", dst, acc, p))
            acc = dst
        return acc  # type: ignore[return-value]

    for label in order:
        block = fn.block(label)
        prelude: list[Instruction] = []
        in_edges = cfg.in_edges(label)

        def edge_value(e) -> GuardVal:
            key = (e.src, e.dst, e.condition)
            if key in edge_val:
                return edge_val[key]
            if e.condition == UNCOND:
                v = guard_val[e.src]
                edge_val[key] = v
                return v
            term = fn.block(e.src).terminator
            assert isinstance(term, Branch)
            cond = term.cond
            base = materialize(guard_val[e.src], prelude)
            sibling = (e.src, term.then_target, TRUE_ARM)
            if e.condition == TRUE_ARM:
                if base is True:
                    v: GuardVal = cond
                else:
                    v = mat.fresh("g")
                    prelude.append(BinOp("and", v, base, cond))
            else:
                if base is True:
                    if sibling not in edge_val:
                        edge_val[sibling] = cond
                    v = mat.fresh("g")
                    prelude.append(BinOp("xor", v, cond, True))
                else:
                    # ef = base xor et needs the true-arm value first
                    if sibling not in edge_val:
                        et = mat.fresh("g")
                        prelude.append(BinOp("and", et, base, cond))
                        edge_val[sibling] = et
                    v = mat.fresh("g")
                    prelude.append(BinOp("xor", v, base, edge_val[sibling]))
                complement[frozenset((edge_val[sibling], v))] = base
            edge_val[key] = v
            return v

        if not in_edges:
            gv: GuardVal = True
            sym[label] = formula(STrue)
        else:
            # per in-edge: its guard value, flattened into the join's parts,
            # and its symbolic guard, AND(guard(src), edge cond)
            parts: list[GuardVal] = []
            sym_parts: list[SymGuard] = []
            for e in in_edges:
                v = edge_value(e)
                parts.extend(v.parts if isinstance(v, OrVal) else (v,))
                base = sym[e.src]
                if e.condition != UNCOND:
                    ref = formula(SRef, fn.block(e.src).terminator.cond)
                    cond = ref if e.condition == TRUE_ARM else formula(SNot, ref)
                    base = cond if isinstance(base, STrue) else formula(SAnd, base, cond)
                sym_parts.append(base)
            sym[label] = sym_parts[0] if len(sym_parts) == 1 else formula(SOr, *sym_parts)
            if len(parts) == 1:
                gv = parts[0]
            elif len(parts) == 2 and frozenset(parts) in complement:
                gv = complement[frozenset(parts)]
            elif len(parts) <= 3:
                gv = OrVal(tuple(parts))
            else:
                # wide joins (merge fans of inlined trees) are materialized at
                # the merge itself so the edge registers can die here instead
                # of staying live into every later consumer
                gv = materialize(OrVal(tuple(parts)), prelude)
        guard_val[label] = gv

        # phi -> select chain over incoming edge guards, written to the phi's
        # own register so single assignment is preserved
        edges_by_src: dict[str, list] = {}
        for e in in_edges:
            edges_by_src.setdefault(e.src, []).append(e)
        for phi in block.phis:
            incoming = list(phi.incomings)
            if not incoming:
                continue
            if len(incoming) == 1:
                prelude.append(Select(phi.dst, True, incoming[0][0], incoming[0][0]))
                continue
            acc_val: Value = incoming[-1][0]
            rest = incoming[:-1]
            for idx, (v, src) in enumerate(reversed(rest)):
                conds = tuple(materialize(edge_value(e), prelude) for e in edges_by_src[src])
                sel = materialize(OrVal(conds), prelude)
                outermost = idx == len(rest) - 1
                dst = phi.dst if outermost else mat.fresh("sel")
                prelude.append(Select(dst, sel, v, acc_val))
                acc_val = dst

        out_blocks.append(GuardedBlock(label, tuple(prelude), gv, sym[label], block.body))

    return GuardedFunction(fn.name, tuple(out_blocks), mat.new_vregs)


# ---------------------------------------------------------------------------
# Textual dump of the guarded form (inspection and golden tests)
# ---------------------------------------------------------------------------

def format_guard(gv) -> str:
    if isinstance(gv, OrVal):
        return "(" + " | ".join(map(_fmt_value, gv.parts)) + ")"
    return _fmt_value(gv)


def format_guarded(gf: GuardedFunction) -> str:
    lines = [f"guarded @{gf.name}"]
    for b in gf.blocks:
        lines.append(f"block {b.label}: guard {format_guard(b.guard)}")
        for ins in b.prelude:
            lines.append(f"  pre  {_fmt_instr(ins)}")
        for ins in b.body:
            lines.append(f"  body {_fmt_instr(ins)}")
    return "\n".join(lines) + "\n"
