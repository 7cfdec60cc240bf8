import pytest

from conftest import max_distribution_error, random_program
from ionflow import oracle, textir
from ionflow.ir import Branch, Cfg, CycleDetected, Measure, Output, QGate, ReadResult
from ionflow.predication import (
    GuardedBlock,
    GuardedFunction,
    NonSSA,
    OrVal,
    SAnd,
    SNot,
    SOr,
    SRef,
    STrue,
    if_convert,
    sym_implies,
)
from ionflow.ir import Vreg
from ionflow.experiments import MsdConfig, RusConfig, build_msd, build_rus
from ionflow.regalloc import PReg, build_interference, color, compute_liveness, rewrite
from ionflow.toolchain import compile_module


def parse(src: str):
    return textir.parse(src)


def wrap(body: str, qubits: int = 3, results: int = 3) -> str:
    return f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{body}\n}}\n"


TRIANGLE = """
block entry:
  mz q0 -> r0
  %cond = read_result r0
  br %cond, then, merge
block then:
  x q1
  jmp merge
block merge:
  ret
"""

# the canonical nested shape: an outer conditional around a second
# measurement whose own conditional guards a rotation
NESTED = """
block entry:
  h q0
  mz q0 -> r0
  %cond = read_result r0
  br %cond, outer, els
block outer:
  h q1
  mz q1 -> r1
  %r1 = read_result r1
  br %r1, inner, join
block inner:
  rz(3.141592653589793) q1
  jmp join
block els:
  ry(3.141592653589793) q0
  jmp join
block join:
  ret
"""


def symbolic_guards(fn):
    return {b.label: b.symbolic for b in if_convert(fn).blocks}


def test_straight_line_guards_all_true():
    m = parse(wrap("block a:\n  h q0\n  jmp b\nblock b:\n  ret"))
    guards = symbolic_guards(m.entry_function)
    assert guards["a"] == STrue()
    assert guards["b"] == STrue()


def test_triangle_guards():
    guards = symbolic_guards(parse(wrap(TRIANGLE)).entry_function)
    assert guards["then"] == SRef(Vreg("cond"))
    merge = guards["merge"]
    assert set(merge.disjuncts) == {SRef(Vreg("cond")), SNot(SRef(Vreg("cond")))}


def test_nested_inner_guard_is_conjunction():
    guards = symbolic_guards(parse(wrap(NESTED)).entry_function)
    inner = guards["inner"]
    assert inner == SAnd(SRef(Vreg("cond")), SRef(Vreg("r1")))
    assert sym_implies(inner, guards["outer"])


def test_symbolic_guards_reject_cycles():
    fn = parse(wrap("block a:\n  jmp b\nblock b:\n  jmp a")).entry_function
    with pytest.raises(CycleDetected):
        symbolic_guards(fn)


def test_if_convert_single_block_identity():
    fn = parse(wrap("block only:\n  h q0\n  mz q0 -> r0\n  ret")).entry_function
    gf = if_convert(fn)
    assert len(gf.blocks) == 1
    b = gf.blocks[0]
    assert b.guard is True and b.prelude == () and b.body == fn.entry.body


def test_if_convert_rejects_non_ssa():
    fn = parse(wrap("block a:\n  %x = add 1, 2\n  jmp b\nblock b:\n  ret")).entry_function
    from ionflow.ir import BasicBlock, Function

    doubled = Function(fn.name, fn.params, (fn.blocks[0], BasicBlock("b", (), fn.blocks[0].body, fn.blocks[1].terminator)))
    with pytest.raises(NonSSA):
        if_convert(doubled)


def test_nested_program_linearizes_with_inner_last():
    fn = parse(wrap(NESTED)).entry_function
    gf = if_convert(fn)
    labels = [b.label for b in gf.blocks]
    assert labels == ["entry", "outer", "inner", "els", "join"]
    rz_blocks = [b.label for b in gf.blocks if any(isinstance(i, QGate) and i.name == "rz" for i in b.body)]
    assert rz_blocks == ["inner"]


def test_order_soundness_on_random_programs():
    for seed in range(30):
        m = random_program(seed)
        fn = m.entry_function
        gf = if_convert(fn)
        pos = {b.label: i for i, b in enumerate(gf.blocks)}
        for e in Cfg.from_function(fn).edges:
            assert pos[e.src] < pos[e.dst]
        assert len(gf.blocks) == len(fn.blocks)


def test_linear_register_overhead():
    for seed in range(30):
        fn = random_program(seed, max_branches=3).entry_function
        branches = sum(isinstance(b.terminator, Branch) for b in fn.blocks)
        phis = sum(len(b.phis) for b in fn.blocks)
        assert if_convert(fn).new_vregs <= 2 * branches + phis


def test_or_joins_are_flat():
    guarded = [if_convert(random_program(seed).entry_function) for seed in range(300)]
    # random programs nest diamonds, whose joins reuse the branch block's own
    # guard, unless a cross edge makes an else-arm an OR join; the experiment
    # programs' three-arm merges stay OR joins, checked here after register
    # allocation
    guarded += [if_convert(random_program(seed, or_joins=True).entry_function) for seed in range(100)]
    experiments = [build_msd(MsdConfig(2)), build_rus(RusConfig(3, style="loop")), build_rus(RusConfig(3, style="recursion"))]
    guarded += [compile_module(m).guarded for m in experiments]
    joins = [b.guard for gf in guarded for b in gf.blocks if isinstance(b.guard, OrVal)]
    assert joins and all(isinstance(p, (bool, Vreg, PReg)) for j in joins for p in j.parts)


def test_diamond_with_phi_distribution_equivalent():
    body = """
block entry:
  h q0
  mz q0 -> r0
  %m = read_result r0
  br %m, a, b
block a:
  x q1
  jmp merge
block b:
  h q1
  jmp merge
block merge:
  %t = phi [true, a], [false, b]
  mz q1 -> r1
  output result r0
  output result r1
  ret
"""
    m = parse(wrap(body))
    base = oracle.enumerate_module(m)
    gf = if_convert(m.entry_function)
    after = oracle.enumerate_guarded(gf, m.required_qubits, m.required_results)
    assert max_distribution_error(base, after) < 1e-12


def test_distribution_equivalence_random_sample():
    for seed in range(40):
        m = random_program(seed, max_branches=3)
        base = oracle.enumerate_module(m)
        gf = if_convert(m.entry_function)
        after = oracle.enumerate_guarded(gf, m.required_qubits, m.required_results)
        assert max_distribution_error(base, after) < 1e-12, seed


def test_msd_400_compiles():
    """Each MSD round nests the symbolic guards of later blocks one level deeper."""
    res = compile_module(build_msd(MsdConfig(400, "Z")), registers=512)
    assert res.block_count == 403


def test_sym_implies_walks_deep_guards():
    ref = SRef(Vreg("c"))
    deep = ref
    for i in range(5000):
        deep = SAnd(deep, SRef(Vreg(f"v{i}")))
    assert sym_implies(deep, ref)
    assert sym_implies(SOr((deep, SAnd(ref, deep))), ref)
    assert not sym_implies(SOr((deep, SRef(Vreg("v0")))), ref)
    assert not sym_implies(deep, SNot(ref))


# -- guard shapes the compiler rarely builds, walked by the oracle ---------------

def hand_built(*blocks) -> GuardedFunction:
    """A guarded function of (prelude, guard, body) triples."""
    return GuardedFunction("f", tuple(GuardedBlock(f"b{i}", pre, g, STrue(), body) for i, (pre, g, body) in enumerate(blocks)), 0)


def assert_distribution(got: dict, want: dict) -> None:
    assert set(got) == set(want) and max_distribution_error(got, want) < 1e-12


def test_false_guard_keeps_a_measuring_body_from_running():
    gf = hand_built(
        ((), True, (QGate("h", (0,)),)),
        ((), False, (Measure(0, 0), Output("result", 0))),
        ((), True, (Output("result", 0),)),
    )
    assert_distribution(oracle.enumerate_guarded(gf, 1, 1), {(0,): 1.0})


def test_true_guard_with_empty_body_still_runs_its_prelude():
    gf = hand_built(
        ((), True, (QGate("h", (0,)), Measure(0, 0))),
        ((ReadResult(Vreg("m"), 0),), True, ()),
        ((), Vreg("m"), (QGate("x", (1,)),)),
        ((), True, (Measure(1, 1), Output("result", 0), Output("result", 1))),
    )
    assert_distribution(oracle.enumerate_guarded(gf, 2, 2), {(0, 0): 0.5, (1, 1): 0.5})


def test_or_guards_with_literal_parts():
    measured = ((), True, (QGate("h", (0,)), Measure(0, 0)))
    read = ((ReadResult(Vreg("m"), 0),), True, ())

    def flips(guard, q):
        return ((), guard, (QGate("x", (q,)),))

    record = ((), True, tuple(Measure(q, q) for q in (1, 2, 3)) + tuple(Output("result", s) for s in range(4)))
    gf = hand_built(
        measured, read,
        flips(OrVal((Vreg("m"), True)), 1),  # always runs
        flips(OrVal((False, Vreg("m"))), 2),  # runs when m is set
        flips(OrVal((False, Vreg("never_set"))), 3),  # never runs
        record,
    )
    assert_distribution(oracle.enumerate_guarded(gf, 4, 4), {(0, 1, 0, 0): 0.5, (1, 1, 1, 0): 0.5})


def test_physical_register_guards_after_rewrite():
    body = """
block entry:
  h q0
  mz q0 -> r0
  %c = read_result r0
  br %c, a, join
block a:
  h q1
  mz q1 -> r1
  %d = read_result r1
  br %d, b, join
block b:
  x q2
  jmp join
block join:
  mz q2 -> r2
  output result r0
  output result r1
  output result r2
  ret
"""
    gf = if_convert(parse(wrap(body)).entry_function)
    rgf = rewrite(gf, color(build_interference(compute_liveness(gf)), 16))
    guards = [b.guard for b in rgf.blocks]
    assert PReg in map(type, guards) and any(isinstance(g, OrVal) and all(isinstance(p, PReg) for p in g.parts) for g in guards)
    assert_distribution(oracle.enumerate_guarded(rgf, 3, 3), {(0, 0, 0): 0.5, (1, 0, 0): 0.25, (1, 1, 1): 0.25})


def test_function_with_no_blocks_has_one_leaf():
    (leaf,) = oracle.enumerate_guarded_leaves(GuardedFunction("f", (), 0), 1, 2)
    assert (leaf.prob, leaf.outputs, leaf.slots, leaf.state.tolist()) == (1.0, (), (0, 0), [1, 0])
    assert oracle.enumerate_guarded(GuardedFunction("f", (), 0), 1, 2) == {(): 1.0}
