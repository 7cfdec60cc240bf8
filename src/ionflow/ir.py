"""Core IR: a small SSA-form hybrid quantum/classical program representation.

A module holds functions made of basic blocks. Blocks carry phi nodes, a body
of straight-line instructions (gates, measurements, classical ops, output
recording, calls) and exactly one terminator (jump / conditional branch /
return). Profile validation enforces the machine-executable subset: acyclic
control flow, SSA discipline, in-range qubit/result indices, known gates,
finite literal angles, 64-bit int literals in classical operands, and (in
strict mode) no remaining calls and constant rotation angles.

Values are either Python literals (bool / int / float) or `Vreg` references.
Qubit operands are literal indices into the global qubit register, or
qubit-typed parameter vregs inside functions that take qubits as arguments.
IR objects are immutable; transforms build new modules.

This module alone knows where each instruction keeps its operands:
``instr_uses``, ``instr_defs`` and ``map_instr`` serve every pass, the
register allocator and the oracle. ``Select`` appears only in the guarded
form that if-conversion builds.

``IonflowError``, a ``ValueError``, is the base of every error raised for
input the library rejects (source text, configs, arguments); any other
error reports a broken invariant, which is a bug.
"""

from __future__ import annotations

import heapq
import json
import sys
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Union

GATE_SET = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "cx")
ROTATION_GATES = ("rx", "ry", "rz")
TWO_QUBIT_GATES = ("cx",)

BINOPS = ("add", "sub", "mul", "and", "or", "xor")
CMPOPS = ("eq", "ne", "lt", "le", "gt", "ge")
OUTPUT_KINDS = ("array_start", "array_end", "tuple_start", "tuple_end", "result")
OUTPUT_TOKEN = {"array_start": "[", "array_end": "]", "tuple_start": "(", "tuple_end": ")"}  # "result" records its slot

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1
INT_MASK = 2**64 - 1


class IonflowError(ValueError):
    """Input the library rejects; the CLI prints it as one ``error:`` line."""


class CycleDetected(IonflowError):
    """Raised when an operation requiring an acyclic CFG meets a back edge."""


def config_from_json(cls, text: str):
    """``cls(**data)`` for the JSON object ``data`` in ``text``: its keys are fields of the
    dataclass ``cls``, including each one without a default, and ``cls`` checks the values."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # malformed, an int past the digit limit, or nested too deeply
        raise IonflowError(str(e)) from None
    if not isinstance(data, dict):
        raise IonflowError(f"{cls.__name__} JSON must be an object")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise IonflowError(f"unknown {cls.__name__} key(s): {unknown}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise IonflowError(f"{cls.__name__} JSON lacks key(s) {missing}")
    return cls(**data)


@dataclass(frozen=True)
class Vreg:
    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"


Value = Union[Vreg, bool, int, float]
QubitRef = Union[int, Vreg]


@dataclass(frozen=True)
class QGate:
    name: str
    qubits: tuple[QubitRef, ...]
    angle: Value | None = None


@dataclass(frozen=True)
class Measure:
    qubit: QubitRef
    slot: int

    @property
    def qubits(self) -> tuple[QubitRef, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class Reset:
    qubit: QubitRef

    @property
    def qubits(self) -> tuple[QubitRef, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class ReadResult:
    dst: Vreg
    slot: int


@dataclass(frozen=True)
class BinOp:
    op: str
    dst: Vreg
    a: Value
    b: Value


@dataclass(frozen=True)
class Cmp:
    op: str
    dst: Vreg
    a: Value
    b: Value


@dataclass(frozen=True)
class Select:
    """dst = cond ? a : b; if-conversion turns each phi into selects."""

    dst: Vreg
    cond: Value
    a: Value
    b: Value


@dataclass(frozen=True)
class Output:
    kind: str
    slot: int | None = None


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple[Value, ...] = ()


Instruction = Union[QGate, Measure, Reset, ReadResult, BinOp, Cmp, Select, Output, Call]
QUANTUM_OPS = (QGate, Measure, Reset)  # the instructions that act on qubits, each with ``qubits``


@dataclass(frozen=True)
class Jump:
    target: str


@dataclass(frozen=True)
class Branch:
    cond: Vreg
    then_target: str
    else_target: str


@dataclass(frozen=True)
class Return:
    pass


Terminator = Union[Jump, Branch, Return]


@dataclass(frozen=True)
class Phi:
    dst: Vreg
    incomings: tuple[tuple[Value, str], ...]


@dataclass(frozen=True)
class BasicBlock:
    label: str
    phis: tuple[Phi, ...]
    body: tuple[Instruction, ...]
    terminator: Terminator


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[tuple[Vreg, str], ...]  # (vreg, type) with type in {"int", "bool", "float", "qubit"}
    blocks: tuple[BasicBlock, ...]

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    @cached_property
    def by_label(self) -> dict[str, BasicBlock]:
        return {b.label: b for b in self.blocks}

    def block(self, label: str) -> BasicBlock:
        return self.by_label[label]


@dataclass(frozen=True)
class Module:
    name: str
    functions: tuple[Function, ...]
    entry: str
    required_qubits: int
    required_results: int

    @cached_property
    def _by_name(self) -> dict[str, Function]:
        return {f.name: f for f in self.functions}

    def function(self, name: str) -> Function:
        return self._by_name[name]

    @property
    def entry_function(self) -> Function:
        return self.function(self.entry)


def wrap_i64(v: int) -> int:
    """Wrap a Python int to signed 64-bit two's-complement."""
    return ((v - INT_MIN) & INT_MASK) + INT_MIN


# The operand helpers run once per instruction in every pass, validation,
# liveness and the rewrite, so they dispatch on the exact type: no IR class
# is subclassed, and a bool operand is a literal, never a ``Vreg``.
_DEFINERS = frozenset((BinOp, Cmp, ReadResult, Select))


def instr_defs(instr: Instruction) -> tuple[Vreg, ...]:
    return (instr.dst,) if type(instr) in _DEFINERS else ()


def instr_uses(instr: Instruction) -> tuple[Vreg, ...]:
    """The vregs ``instr`` reads, in operand order: qubits before the angle."""
    t = type(instr)
    if t is QGate:
        uses = [q for q in instr.qubits if type(q) is Vreg]
        if type(instr.angle) is Vreg:
            uses.append(instr.angle)
        return tuple(uses)
    if t is BinOp or t is Cmp:
        return tuple([v for v in (instr.a, instr.b) if type(v) is Vreg])
    if t is Measure or t is Reset:
        return (instr.qubit,) if type(instr.qubit) is Vreg else ()
    if t is Select:
        return tuple([v for v in (instr.cond, instr.a, instr.b) if type(v) is Vreg])
    if t is Call:
        return tuple([a for a in instr.args if type(a) is Vreg])
    return ()


def map_instr(instr: Instruction, f: Callable[[Value], Value]) -> Instruction:
    """``instr`` with ``f`` applied to every vreg it uses or defines; ``f``
    also sees the literal operands (and a missing angle, None) and must
    return them unchanged."""
    t = type(instr)
    if t is QGate:
        return QGate(instr.name, tuple(map(f, instr.qubits)), f(instr.angle))
    if t is BinOp or t is Cmp:
        return t(instr.op, f(instr.dst), f(instr.a), f(instr.b))
    if t is Measure:
        return Measure(f(instr.qubit), instr.slot)
    if t is Reset:
        return Reset(f(instr.qubit))
    if t is ReadResult:
        return ReadResult(f(instr.dst), instr.slot)
    if t is Select:
        return Select(f(instr.dst), f(instr.cond), f(instr.a), f(instr.b))
    if t is Call:
        return Call(instr.callee, tuple(map(f, instr.args)))
    return instr


def targets(t: Terminator) -> tuple[str, ...]:
    """The labels a terminator can go to, the true arm first."""
    if isinstance(t, Jump):
        return (t.target,)
    if isinstance(t, Branch):
        return (t.then_target, t.else_target)
    return ()


def retarget(block: BasicBlock, old: str, new: str) -> BasicBlock:
    """The block with every terminator target ``old`` replaced by ``new``."""
    t = block.terminator
    if isinstance(t, Jump) and t.target == old:
        t = Jump(new)
    elif isinstance(t, Branch):
        then_t = new if t.then_target == old else t.then_target
        else_t = new if t.else_target == old else t.else_target
        t = Branch(t.cond, then_t, else_t)
    return BasicBlock(block.label, block.phis, block.body, t)


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------

UNCOND = "uncond"
TRUE_ARM = "true"
FALSE_ARM = "false"


@dataclass(frozen=True)
class CfgEdge:
    src: str
    dst: str
    condition: str  # UNCOND | TRUE_ARM | FALSE_ARM


@dataclass(frozen=True)
class Cfg:
    nodes: tuple[str, ...]  # in source order
    edges: tuple[CfgEdge, ...]
    # per-node out- and in-edge lists in edge order, built once at construction
    _out: dict[str, list[CfgEdge]] = field(init=False, repr=False, compare=False)
    _in: dict[str, list[CfgEdge]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out: dict[str, list[CfgEdge]] = {n: [] for n in self.nodes}
        inn: dict[str, list[CfgEdge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
            inn.setdefault(e.dst, []).append(e)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inn)

    @staticmethod
    def from_function(fn: Function) -> "Cfg":
        nodes = tuple(b.label for b in fn.blocks)
        edges: list[CfgEdge] = []
        for b in fn.blocks:
            t = b.terminator
            if isinstance(t, Jump):
                edges.append(CfgEdge(b.label, t.target, UNCOND))
            elif isinstance(t, Branch):
                edges.append(CfgEdge(b.label, t.then_target, TRUE_ARM))
                edges.append(CfgEdge(b.label, t.else_target, FALSE_ARM))
        return Cfg(nodes, tuple(edges))

    def successors(self, label: str) -> list[str]:
        return [e.dst for e in self._out.get(label, ())]

    def predecessors(self, label: str) -> list[str]:
        return [e.src for e in self._in.get(label, ())]

    def in_edges(self, label: str) -> list[CfgEdge]:
        return list(self._in.get(label, ()))


def topo_sort(cfg: Cfg) -> list[str]:
    """Topological order of CFG nodes; among ready nodes, source order wins.

    Raises CycleDetected when the graph has a back edge.
    """
    order_index = {n: i for i, n in enumerate(cfg.nodes)}
    indeg = {n: len(cfg.in_edges(n)) for n in cfg.nodes}
    ready = [i for i, n in enumerate(cfg.nodes) if indeg[n] == 0]  # ascending, so already a heap
    out: list[str] = []
    while ready:
        n = cfg.nodes[heapq.heappop(ready)]
        out.append(n)
        for m in cfg.successors(n):
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, order_index[m])
    if len(out) != len(cfg.nodes):
        raise CycleDetected(f"back edge among blocks {sorted(set(cfg.nodes) - set(out))}")
    return out


# ---------------------------------------------------------------------------
# Profile validation
# ---------------------------------------------------------------------------

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    code: str
    message: str
    location: str = ""

    def __str__(self) -> str:
        loc = f" [{self.location}]" if self.location else ""
        return f"{self.severity}: {self.code}: {self.message}{loc}"


def diagnostics_ok(diags: list[Diagnostic]) -> bool:
    return not any(d.severity == ERROR for d in diags)


def _dominators(cfg: Cfg, order: list[str]) -> dict[str, set[str]]:
    """Dominator sets in one pass over a topological order; the entry is the
    first node in source order, and unreachable blocks dominate nothing.

    On an acyclic graph every predecessor's set is final before the block
    is reached, and the dominator equations have exactly one solution.
    """
    entry = cfg.nodes[0]
    dom: dict[str, set[str]] = {}
    for n in order:
        ps = cfg.predecessors(n)
        if n == entry:
            dom[n] = {n}
        elif ps:
            dom[n] = set.intersection(*(dom[p] for p in ps)) | {n}
        else:
            dom[n] = {n}  # unreachable; treat as self-dominated
    return dom


def validate_profile(module: Module, strict: bool = True) -> list[Diagnostic]:
    """Check a module against the executable profile.

    Lenient mode (``strict=False``) is meant for pre-flattening input: calls to
    defined functions are allowed and back edges only warn. Strict mode is the
    contract the backend relies on: acyclic CFG, no calls, literal rotation
    angles, literal qubit operands in the entry function.
    """
    diags: list[Diagnostic] = []
    problems: list[tuple[str, str]] = []  # one site's (code, message) pairs, until _report locates them
    fn_names = {f.name for f in module.functions}

    if module.entry not in fn_names:
        diags.append(Diagnostic(ERROR, "NO_ENTRY", f"entry function @{module.entry} not defined"))
        return diags

    for fn in module.functions:
        loc_fn = f"@{fn.name}"
        labels = [b.label for b in fn.blocks]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            diags.append(Diagnostic(ERROR, "DUP_LABEL", f"duplicate block labels {dupes}", loc_fn))
            continue
        if not fn.blocks:
            diags.append(Diagnostic(ERROR, "EMPTY_FUNC", "function has no blocks", loc_fn))
            continue

        cfg = Cfg.from_function(fn)
        label_set = set(labels)
        bad_edges = [e for e in cfg.edges if e.dst not in label_set]
        for e in bad_edges:
            diags.append(Diagnostic(ERROR, "BAD_TARGET", f"branch target '{e.dst}' does not exist", f"{loc_fn}:{e.src}"))
        if bad_edges:
            continue

        try:
            order: list[str] | None = topo_sort(cfg)
        except CycleDetected:
            order = None
            sev = ERROR if strict else WARNING
            diags.append(Diagnostic(sev, "BACK_EDGE", "control-flow graph has a back edge", loc_fn))

        # SSA: single definition, and (on acyclic graphs) dominance of uses.
        defs: dict[Vreg, str] = {}
        param_types = dict(fn.params)
        for v, _ty in fn.params:
            if v in defs:
                diags.append(Diagnostic(ERROR, "NON_SSA", f"parameter {v} redefined", loc_fn))
            defs[v] = "<param>"
        for b in fn.blocks:
            for phi in b.phis:
                if phi.dst in defs:
                    diags.append(Diagnostic(ERROR, "NON_SSA", f"{phi.dst} defined more than once", f"{loc_fn}:{b.label}"))
                defs[phi.dst] = b.label
            for instr in b.body:
                for d in instr_defs(instr):
                    if d in defs:
                        diags.append(Diagnostic(ERROR, "NON_SSA", f"{d} defined more than once", f"{loc_fn}:{b.label}"))
                    defs[d] = b.label

        def check_use(v: Vreg, using_block: str, dom: dict[str, set[str]] | None) -> None:
            if v not in defs:
                problems.append(("USE_BEFORE_DEF", f"{v} used but never defined"))
                return
            def_block = defs[v]
            if def_block == "<param>" or dom is None:
                return
            if def_block != using_block:
                if def_block not in dom.get(using_block, set()):
                    problems.append(("USE_BEFORE_DEF", f"{v} not dominated by its definition"))

        dom = _dominators(cfg, order) if order is not None else None
        for b in fn.blocks:
            seen_local: set[Vreg] = {p.dst for p in b.phis}
            # phi incoming labels must be exactly the CFG predecessors
            preds = sorted(cfg.predecessors(b.label))
            for phi in b.phis:
                inc_labels = sorted(l for _v, l in phi.incomings)
                if inc_labels != preds:
                    diags.append(
                        Diagnostic(
                            ERROR,
                            "PHI_PREDS",
                            f"phi {phi.dst} incomings {inc_labels} != predecessors {preds}",
                            f"{loc_fn}:{b.label}",
                        )
                    )
                _check_int_literals((v for v, _l in phi.incomings), problems)
                for v, from_label in phi.incomings:
                    if isinstance(v, Vreg):
                        # a phi use happens at the end of the incoming edge
                        check_use(v, from_label, dom)
                if problems:
                    _report(problems, diags, f"{loc_fn}:{b.label}(phi)")
            for idx, instr in enumerate(b.body):
                for v in instr_uses(instr):
                    if defs.get(v) == b.label and v not in seen_local:
                        problems.append(("USE_BEFORE_DEF", f"{v} used before local definition"))
                    else:
                        check_use(v, b.label, dom)
                for d in instr_defs(instr):
                    seen_local.add(d)
                _validate_instr(module, instr, problems, fn_names, strict, param_types)
                if problems:
                    _report(problems, diags, f"{loc_fn}:{b.label}#{idx}")
            if isinstance(b.terminator, Branch):
                check_use(b.terminator.cond, b.label, dom)
                if problems:
                    _report(problems, diags, f"{loc_fn}:{b.label}(br)")

    entry_fn = module.entry_function
    if strict and entry_fn.params:
        diags.append(Diagnostic(ERROR, "ENTRY_PARAMS", "entry function must take no parameters", f"@{entry_fn.name}"))
    return diags


def _report(problems: list[tuple[str, str]], diags: list[Diagnostic], loc: str) -> None:
    """Move each (code, message) problem found at ``loc`` into ``diags`` as an
    error. Validation collects a site's problems first and builds its location
    text only when there are any."""
    for code, message in problems:
        diags.append(Diagnostic(ERROR, code, message, loc))
    problems.clear()


def _check_int_literals(values, problems: list[tuple[str, str]]) -> None:
    """An int literal must fit the 64-bit registers that classical ops run in."""
    for v in values:
        if type(v) is int and not INT_MIN <= v <= INT_MAX:
            problems.append(("INT_RANGE", f"int literal outside [{INT_MIN}, {INT_MAX}]"))


def _check_qubit(q: QubitRef, module: Module, param_types: dict[Vreg, str], strict: bool, problems: list) -> None:
    if isinstance(q, Vreg):
        if param_types.get(q) != "qubit":
            problems.append(("QUBIT_OPERAND", f"{q} is not a qubit-typed parameter"))
        elif strict:
            problems.append(("QUBIT_OPERAND", f"unresolved qubit operand {q}"))
    elif type(q) is not int:
        problems.append(("QUBIT_OPERAND", f"{q!r} is not a qubit index"))
    elif not (0 <= q < module.required_qubits):
        problems.append(("QUBIT_RANGE", f"qubit index {q} out of range [0, {module.required_qubits})"))


def _check_slot(slot: int, module: Module, problems: list) -> None:
    if not (0 <= slot < module.required_results):
        problems.append(("RESULT_RANGE", f"result slot {slot} out of range [0, {module.required_results})"))


def _validate_instr(
    module: Module,
    instr: Instruction,
    problems: list[tuple[str, str]],
    fn_names: set[str],
    strict: bool,
    param_types: dict[Vreg, str],
) -> None:
    if isinstance(instr, QGate):
        if instr.name not in GATE_SET:
            problems.append(("UNKNOWN_GATE", f"unknown gate '{instr.name}'"))
            return
        want = 2 if instr.name in TWO_QUBIT_GATES else 1
        if len(instr.qubits) != want:
            problems.append(("GATE_ARITY", f"{instr.name} takes {want} qubit(s)"))
        if want == 2 and len(instr.qubits) == 2 and instr.qubits[0] == instr.qubits[1]:
            problems.append(("DUP_QUBIT", f"{instr.name} operands must be distinct"))
        if instr.name in ROTATION_GATES:
            if instr.angle is None:
                problems.append(("ANGLE_MISSING", f"{instr.name} requires an angle operand"))
            elif strict and isinstance(instr.angle, Vreg):
                problems.append(("ANGLE_NONCONST", f"{instr.name} angle must be a literal after folding"))
            elif type(instr.angle) is bool:
                problems.append(("ANGLE_TYPE", f"{instr.name} angle {instr.angle!r} is not a number"))
            elif not isinstance(instr.angle, Vreg) and not abs(instr.angle) <= sys.float_info.max:
                # NaN, the infinities and ints too large for a float all fail this
                problems.append(("ANGLE_NONFINITE", f"{instr.name} angle {instr.angle!r} is not finite"))
        elif instr.angle is not None:
            problems.append(("ANGLE_UNEXPECTED", f"{instr.name} takes no angle"))
        for q in instr.qubits:
            _check_qubit(q, module, param_types, strict, problems)
    elif isinstance(instr, Measure):
        _check_qubit(instr.qubit, module, param_types, strict, problems)
        _check_slot(instr.slot, module, problems)
    elif isinstance(instr, Reset):
        _check_qubit(instr.qubit, module, param_types, strict, problems)
    elif isinstance(instr, ReadResult):
        _check_slot(instr.slot, module, problems)
    elif isinstance(instr, BinOp):
        if instr.op not in BINOPS:
            problems.append(("BAD_OP", f"unknown binop '{instr.op}'"))
        _check_int_literals((instr.a, instr.b), problems)
    elif isinstance(instr, Cmp):
        if instr.op not in CMPOPS:
            problems.append(("BAD_OP", f"unknown comparison '{instr.op}'"))
        _check_int_literals((instr.a, instr.b), problems)
    elif isinstance(instr, Output):
        if instr.kind not in OUTPUT_KINDS:
            problems.append(("BAD_OUTPUT", f"unknown output kind '{instr.kind}'"))
        elif instr.kind == "result":
            if instr.slot is None:
                problems.append(("BAD_OUTPUT", "output result needs a slot"))
            else:
                _check_slot(instr.slot, module, problems)
    elif isinstance(instr, Call):
        _check_int_literals(instr.args, problems)
        if instr.callee not in fn_names:
            problems.append(("UNRESOLVED_CALL", f"call to undefined @{instr.callee}"))
        elif strict:
            problems.append(("CALL_IN_PROFILE", f"call to @{instr.callee} must be flattened"))
        else:
            callee = module.function(instr.callee)
            if len(callee.params) != len(instr.args):
                problems.append(("CALL_ARITY", f"@{instr.callee} takes {len(callee.params)} args"))

