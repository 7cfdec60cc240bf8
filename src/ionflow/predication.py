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

The result also keeps a symbolic guard per block. The backend compares
those symbolically (conjunction containment) to decide where ion placement
may flow from one block to the next without a reconciliation checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .ir import (
    BinOp,
    Branch,
    Call,
    Cfg,
    FALSE_ARM,
    Function,
    Instruction,
    Select,
    TRUE_ARM,
    UNCOND,
    Value,
    Vreg,
    instr_defs,
    topo_sort,
)
from .textir import _fmt_instr, _fmt_value


class NonSSA(Exception):
    pass


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
    """Conservative syntactic implication g => h (sound, not complete)."""
    if isinstance(h, STrue) or g == h:
        return True
    if isinstance(g, SAnd):
        return sym_implies(g.left, h) or sym_implies(g.right, h)
    if isinstance(g, SOr):
        return all(sym_implies(d, h) for d in g.disjuncts)
    return False


# Materialized guard values ----------------------------------------------------

@dataclass(frozen=True)
class OrVal:
    """A not-yet-materialized OR join of guard values."""

    parts: tuple["GuardVal", ...]


GuardVal = Union[bool, Vreg, OrVal]


def guard_vregs(gv: GuardVal) -> tuple[Vreg, ...]:
    if isinstance(gv, Vreg):
        return (gv,)
    if isinstance(gv, OrVal):
        out: list[Vreg] = []
        for p in gv.parts:
            out.extend(guard_vregs(p))
        return tuple(out)
    return ()


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
    branch_count: int
    phi_count: int


def compute_guards(cfg: Cfg, fn: Function) -> dict[str, SymGuard]:
    """Symbolic guard per block; linear size via per-block reuse.

    Raises CycleDetected on back edges.
    """
    order = topo_sort(cfg)
    guards: dict[str, SymGuard] = {}
    for label in order:
        in_edges = cfg.in_edges(label)
        if not in_edges:
            guards[label] = STrue()
            continue
        parts: list[SymGuard] = []
        for e in in_edges:
            base = guards[e.src]
            if e.condition == TRUE_ARM or e.condition == FALSE_ARM:
                term = fn.block(e.src).terminator
                assert isinstance(term, Branch)
                cond: SymGuard = SRef(term.cond)
                if e.condition == FALSE_ARM:
                    cond = SNot(cond)
                parts.append(cond if isinstance(base, STrue) else SAnd(base, cond))
            else:
                parts.append(base)
        guards[label] = parts[0] if len(parts) == 1 else SOr(tuple(parts))
    return guards


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
    for b in fn.blocks:
        for ins in b.body:
            if isinstance(ins, Call):
                raise ValueError(f"function @{fn.name} still contains calls")
    seen_defs: set[Vreg] = set()
    for b in fn.blocks:
        for phi in b.phis:
            if phi.dst in seen_defs:
                raise NonSSA(str(phi.dst))
            seen_defs.add(phi.dst)
        for ins in b.body:
            for d in instr_defs(ins):
                if d in seen_defs:
                    raise NonSSA(str(d))
                seen_defs.add(d)

    cfg = Cfg.from_function(fn)
    order = topo_sort(cfg)  # raises CycleDetected
    sym = compute_guards(cfg, fn)

    mat = _Materializer({v.name for v in seen_defs} | {v.name for v, _t in fn.params})
    guard_val: dict[str, GuardVal] = {}
    edge_val: dict[tuple[str, str, str], GuardVal] = {}
    # the two arm guards of one branch OR back to the branch block's own
    # guard; joins matching such a pair reuse that value instead of a fresh OR
    complement: dict[frozenset, GuardVal] = {}
    branch_count = sum(1 for b in fn.blocks if isinstance(b.terminator, Branch))
    phi_count = sum(len(b.phis) for b in fn.blocks)

    out_blocks: list[GuardedBlock] = []

    def materialize(gv: GuardVal, prelude: list[Instruction]) -> bool | Vreg:
        if isinstance(gv, (bool, Vreg)):
            return gv
        parts = [materialize(p, prelude) for p in gv.parts]
        if any(p is True for p in parts):
            # or with a true arm never happens on real CFGs; keep it exact anyway
            return True
        acc: Value = parts[0]
        for p in parts[1:]:
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
        else:
            vals = [edge_value(e) for e in in_edges]
            parts: list[GuardVal] = []
            for v in vals:
                parts.extend(v.parts if isinstance(v, OrVal) else (v,))
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
                conds = [materialize(edge_value(e), prelude) for e in edges_by_src[src]]
                cond: Value = conds[0]
                for extra in conds[1:]:
                    joined = mat.fresh("g")
                    prelude.append(BinOp("or", joined, cond, extra))
                    cond = joined
                outermost = idx == len(rest) - 1
                dst = phi.dst if outermost else mat.fresh("sel")
                prelude.append(Select(dst, cond, v, acc_val))
                acc_val = dst

        out_blocks.append(
            GuardedBlock(
                label=label,
                prelude=tuple(prelude),
                guard=gv,
                symbolic=sym[label],
                body=block.body,
            )
        )

    return GuardedFunction(
        name=fn.name,
        blocks=tuple(out_blocks),
        new_vregs=mat.new_vregs,
        branch_count=branch_count,
        phi_count=phi_count,
    )


# ---------------------------------------------------------------------------
# Textual dump of the guarded form (inspection and golden tests)
# ---------------------------------------------------------------------------

def format_guard(gv) -> str:
    if isinstance(gv, bool):
        return "true" if gv else "false"
    if isinstance(gv, OrVal):
        return "(" + " | ".join(format_guard(p) for p in gv.parts) + ")"
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
