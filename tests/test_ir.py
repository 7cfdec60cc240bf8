import dataclasses
import typing

import pytest

from ionflow import ir, textir
from ionflow.ir import (
    QUANTUM_OPS,
    BinOp,
    Branch,
    Call,
    Cmp,
    Measure,
    Output,
    QGate,
    ReadResult,
    Reset,
    Select,
    Cfg,
    CycleDetected,
    Instruction,
    Jump,
    Vreg,
    diagnostics_ok,
    instr_defs,
    instr_uses,
    map_instr,
    topo_sort,
    validate_profile,
)
from ionflow.toolchain import CompileError, compile_module


def parse(body: str, qubits: int = 3, results: int = 3):
    src = f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{body}\n}}\n"
    return textir.parse(src)


DIAMOND = """
block entry:
  h q0
  mz q0 -> r0
  %m = read_result r0
  br %m, then, else
block then:
  x q1
  jmp merge
block else:
  y q1
  jmp merge
block merge:
  ret
"""


def test_self_loop_is_back_edge():
    m = parse("block a:\n  jmp a")
    diags = validate_profile(m, strict=True)
    assert any(d.code == "BACK_EDGE" and d.severity == "error" for d in diags)


def test_back_edge_warns_when_lenient():
    m = parse("block a:\n  jmp a")
    diags = validate_profile(m, strict=False)
    assert any(d.code == "BACK_EDGE" and d.severity == "warning" for d in diags)
    assert diagnostics_ok(diags)


def test_diamond_is_clean():
    m = parse(DIAMOND)
    assert validate_profile(m, strict=True) == []


def test_validation_is_idempotent():
    m = parse(DIAMOND)
    assert validate_profile(m) == validate_profile(m) == []


def test_bad_target_does_not_stop_checks_of_later_functions():
    src = """module t
attrs required_qubits=1 required_results=1
func @f() {
block a:
  jmp nowhere
}
func @main() {
block e:
  %x = add %y, 1
  ret
}
"""
    codes = [(d.code, d.location) for d in validate_profile(textir.parse(src), strict=False)]
    assert codes == [("BAD_TARGET", "@f:a"), ("USE_BEFORE_DEF", "@main:e#0")]


def test_qubit_range_checked():
    m = parse("block a:\n  h q5\n  ret")
    assert any(d.code == "QUBIT_RANGE" for d in validate_profile(m))


def test_result_range_checked():
    m = parse("block a:\n  mz q0 -> r9\n  ret")
    assert any(d.code == "RESULT_RANGE" for d in validate_profile(m))


def test_double_definition_rejected():
    m = parse("block a:\n  %x = add 1, 2\n  %x = add 3, 4\n  ret")
    assert any(d.code == "NON_SSA" for d in validate_profile(m))


def test_use_before_def_rejected():
    m = parse("block a:\n  %y = add %x, 1\n  ret")
    assert any(d.code == "USE_BEFORE_DEF" for d in validate_profile(m))


def test_use_not_dominated_rejected():
    body = """
block entry:
  mz q0 -> r0
  %m = read_result r0
  br %m, then, else
block then:
  %v = add 1, 2
  jmp merge
block else:
  jmp merge
block merge:
  %w = add %v, 1
  ret
"""
    m = parse(body)
    assert any(d.code == "USE_BEFORE_DEF" for d in validate_profile(m))


def test_cx_needs_distinct_qubits():
    m = parse("block a:\n  cx q0, q0\n  ret")
    assert any(d.code == "DUP_QUBIT" for d in validate_profile(m))


def test_rotation_angle_required_by_grammar():
    with pytest.raises(textir.ParseError):
        parse("block a:\n  rz q0\n  ret")


def _one_gate_module(gate: QGate) -> ir.Module:
    """A hand-built module whose entry block holds only ``gate``: text cannot spell what the parser refuses."""
    block = ir.BasicBlock("e", (), (gate,), ir.Return())
    return ir.Module("t", (ir.Function("main", (), (block,)),), "main", 1, 0)


@pytest.mark.parametrize("gate, code, message", [
    (QGate("foo", (0,), None), "UNKNOWN_GATE", "unknown gate 'foo'"),
    (QGate("rz", (0,), None), "ANGLE_MISSING", "rz requires an angle operand"),
])
def test_a_gate_the_parser_refuses_is_reported_on_a_built_module(gate, code, message):
    m = _one_gate_module(gate)
    for strict in (False, True):
        assert validate_profile(m, strict=strict) == [ir.Diagnostic("error", code, message, "@main:e#0")]
    with pytest.raises(CompileError, match=f"^error: {code}: {message} \\[@main:e#0\\]$"):
        compile_module(m)


def test_strict_rejects_calls_lenient_allows():
    body = "block a:\n  call @f()\n  ret"
    src = f"module t\nattrs required_qubits=1 required_results=1\nfunc @main() {{\n{body}\n}}\nfunc @f() {{\nblock e:\n  ret\n}}\n"
    m = textir.parse(src)
    assert diagnostics_ok(validate_profile(m, strict=False))
    assert any(d.code == "CALL_IN_PROFILE" for d in validate_profile(m, strict=True))


def test_unresolved_call_is_error_even_lenient():
    m = parse("block a:\n  call @nope()\n  ret")
    assert any(d.code == "UNRESOLVED_CALL" for d in validate_profile(m, strict=False))


INT_OPERANDS = {
    "binop": "block a:\n  %x = add 1, {v}\n  ret",
    "cmp": "block a:\n  %x = cmp lt {v}, 2\n  ret",
    "phi": "block a:\n  h q0\n  mz q0 -> r0\n  %m = read_result r0\n  br %m, b, c\nblock b:\n  jmp c\n"
    "block c:\n  %p = phi [{v}, a], [0, b]\n  ret",
    "call": "block a:\n  call @f({v})\n  ret\n}}\nfunc @f(%k: int) {{\nblock e:\n  ret",
}


@pytest.mark.parametrize("where", list(INT_OPERANDS))
def test_int_literal_operands_must_fit_64_bits(where):
    for v, fits in ((ir.INT_MIN, True), (ir.INT_MAX, True), (True, True), (ir.INT_MIN - 1, False), (ir.INT_MAX + 1, False)):
        m = parse(INT_OPERANDS[where].format(v=str(v).lower()))
        for strict in (False, True):
            codes = [d.code for d in validate_profile(m, strict=strict) if d.severity == "error"]
            assert ("INT_RANGE" not in codes) == fits, (v, strict, codes)


# -- topo sort ---------------------------------------------------------------

def test_topo_diamond_source_order_tiebreak():
    m = parse(DIAMOND)
    cfg = Cfg.from_function(m.entry_function)
    assert topo_sort(cfg) == ["entry", "then", "else", "merge"]


def test_topo_single_block():
    m = parse("block only:\n  ret")
    assert topo_sort(Cfg.from_function(m.entry_function)) == ["only"]


def test_topo_chain():
    m = parse("block a:\n  jmp b\nblock b:\n  jmp c\nblock c:\n  ret")
    assert topo_sort(Cfg.from_function(m.entry_function)) == ["a", "b", "c"]


def test_topo_cycle_raises():
    m = parse("block a:\n  jmp b\nblock b:\n  jmp a")
    with pytest.raises(CycleDetected):
        topo_sort(Cfg.from_function(m.entry_function))


def test_topo_is_permutation_respecting_edges():
    m = parse(DIAMOND)
    cfg = Cfg.from_function(m.entry_function)
    order = topo_sort(cfg)
    assert sorted(order) == sorted(cfg.nodes)
    pos = {n: i for i, n in enumerate(order)}
    assert all(pos[e.src] < pos[e.dst] for e in cfg.edges)


def test_cfg_mirrors_terminators_exactly():
    m = parse(DIAMOND)
    fn = m.entry_function
    cfg = Cfg.from_function(fn)
    for b in fn.blocks:
        outs = [(e.dst, e.condition) for e in cfg.edges if e.src == b.label]
        t = b.terminator
        if isinstance(t, Jump):
            assert outs == [(t.target, "uncond")]
        elif isinstance(t, Branch):
            assert outs == [(t.then_target, "true"), (t.else_target, "false")]
        else:
            assert outs == []


def _operand(hint, fresh):
    """A value for one field of an instruction: a fresh vreg wherever the
    field may hold one, otherwise a placeholder literal."""
    args = typing.get_args(hint)
    if hint is Vreg or Vreg in args:
        return fresh()
    if typing.get_origin(hint) is tuple:
        return (_operand(args[0], fresh), _operand(args[0], fresh))
    return {str: "x", int: 0}[args[0] if args else hint]


def _vregs(ins) -> list[Vreg]:
    out = []
    for f in dataclasses.fields(ins):
        v = getattr(ins, f.name)
        out.extend(x for x in (v if isinstance(v, tuple) else (v,)) if isinstance(x, Vreg))
    return out


@pytest.mark.parametrize("cls", typing.get_args(Instruction), ids=lambda c: c.__name__)
def test_map_instr_renames_exactly_the_uses_and_defs(cls):
    # every vreg an instruction holds is a use or a def, and map_instr renames
    # each of them: a new instruction type cannot bypass ir's operand functions
    counter = iter(range(100))
    hints = typing.get_type_hints(cls, vars(ir))
    ins = cls(**{f.name: _operand(hints[f.name], lambda: Vreg(f"v{next(counter)}")) for f in dataclasses.fields(cls)})
    held = _vregs(ins)
    assert len(set(held)) == len(held)
    assert sorted(instr_uses(ins) + instr_defs(ins), key=repr) == sorted(held, key=repr)
    renamed = map_instr(ins, lambda v: Vreg(v.name + "'") if isinstance(v, Vreg) else v)
    assert type(renamed) is cls
    assert _vregs(renamed) == [Vreg(v.name + "'") for v in held]
    if cls in QUANTUM_OPS:
        assert set(ins.qubits) <= set(held)


_A, _B, _D = Vreg("a"), Vreg("b"), Vreg("d")

# (instruction, instr_uses, instr_defs, the operands map_instr shows f, in order)
OPERAND_TABLE = [
    (QGate("rx", (_A, 1), _B), (_A, _B), (), (_A, 1, _B)),
    (QGate("cx", (0, _A), None), (_A,), (), (0, _A, None)),
    (QGate("rz", (True,), 0.5), (), (), (True, 0.5)),
    (QGate("ry", (2,), True), (), (), (2, True)),
    (QGate("rx", (1,), -0.0), (), (), (1, -0.0)),
    (Measure(_A, 0), (_A,), (), (_A,)),
    (Measure(True, 1), (), (), (True,)),
    (Reset(_A), (_A,), (), (_A,)),
    (Reset(2), (), (), (2,)),
    (ReadResult(_D, 0), (), (_D,), (_D,)),
    (BinOp("add", _D, _A, 1.5), (_A,), (_D,), (_D, _A, 1.5)),
    (BinOp("xor", _D, True, _B), (_B,), (_D,), (_D, True, _B)),
    (Cmp("lt", _D, _B, _A), (_B, _A), (_D,), (_D, _B, _A)),
    (Cmp("eq", _D, 3, False), (), (_D,), (_D, 3, False)),
    (Select(_D, _A, 2, _B), (_A, _B), (_D,), (_D, _A, 2, _B)),
    (Select(_D, True, _B, _A), (_B, _A), (_D,), (_D, True, _B, _A)),
    (Select(_D, False, 1.0, 0), (), (_D,), (_D, False, 1.0, 0)),
    (Output("result", 0), (), (), ()),
    (Output("tuple_start"), (), (), ()),
    (Call("f", (_B, True, 2, 1.0, _A)), (_B, _A), (), (_B, True, 2, 1.0, _A)),
]


@pytest.mark.parametrize("ins, uses, defs, seen", OPERAND_TABLE, ids=repr)
def test_operand_helpers_pin_each_class(ins, uses, defs, seen):
    # exact outputs and order: qubits before the angle, a before b, and a
    # bool, int or float operand is a literal, never a use
    assert instr_uses(ins) == uses and instr_defs(ins) == defs
    shown = []

    def rename(v):
        shown.append(v)
        return Vreg(v.name + "'") if type(v) is Vreg else v

    renamed = map_instr(ins, rename)
    assert [(type(v), repr(v)) for v in shown] == [(type(v), repr(v)) for v in seen]
    want = {v: Vreg(v.name + "'") for v in (_A, _B, _D)}
    assert repr(renamed) == repr(ins).replace("%a", "%a'").replace("%b", "%b'").replace("%d", "%d'")
    assert type(renamed) is type(ins) and instr_uses(renamed) == tuple(want[v] for v in uses)
