import itertools
import time

import pytest

from conftest import CONTINUATION_DEF_USED_LATER, TWO_CALL_BLOCK, TWO_RETURNS, max_distribution_error, random_program
from ionflow import emulator, gates, oracle, passes, textir, toolchain
from ionflow.experiments import BASES, MsdConfig, RusConfig, build_msd, build_rus
from ionflow.qccd import ALWAYS, CONDITIONAL
from ionflow.ir import (
    GATE_SET,
    ROTATION_GATES,
    TWO_QUBIT_GATES,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    Cfg,
    Cmp,
    Function,
    IonflowError,
    Module,
    QGate,
    ReadResult,
    Return,
    Vreg,
    diagnostics_ok,
    instr_uses,
    validate_profile,
)
from ionflow.passes import (
    BudgetExceeded,
    FlattenConfig,
    PAIR_RULES,
    check_rule,
    flatten,
    fold_constants,
    peephole,
)


def parse(src: str):
    return textir.parse(src)


def wrap(body: str, qubits: int = 3, results: int = 3) -> str:
    return f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{body}\n}}\n"


# -- constant folding ---------------------------------------------------------

def test_fold_literal_angle_product_into_rotation():
    atan2 = 1.1071487177940904
    m = parse(wrap(f"block e:\n  %a = mul 2.0, {atan2!r}\n  rz(%a) q2\n  ret"))
    out = fold_constants(m)
    body = out.entry_function.entry.body
    assert body == (QGate("rz", (2,), 2.214297435588181),)


def test_fold_int_add():
    m = parse(wrap("block e:\n  %c = add 2, 3\n  %d = mul %c, %c\n  mz q0 -> r0\n  ret"))
    out = fold_constants(m)
    assert all(not isinstance(i, BinOp) for i in out.entry_function.entry.body)


def test_fold_keeps_unknown_operands():
    m = parse(wrap("block e:\n  mz q0 -> r0\n  %u = read_result r0\n  %c = add %u, 0\n  %p = cmp eq %c, 1\n  br %p, a, b\nblock a:\n  ret\nblock b:\n  ret"))
    out = fold_constants(m)
    ops = [i for i in out.entry_function.entry.body if isinstance(i, BinOp)]
    assert len(ops) == 1 and ops[0].op == "add"  # no identity simplification


def test_fold_branch_and_prunes_dead_blocks():
    m = parse(wrap("block e:\n  %p = cmp lt 1, 2\n  br %p, a, b\nblock a:\n  x q0\n  ret\nblock b:\n  y q0\n  ret"))
    out = fold_constants(m)
    labels = [b.label for b in out.entry_function.blocks]
    assert labels == ["e", "a"]


def test_fold_wraps_to_signed_64_bit():
    big = 2**63 - 1
    m = parse(wrap(f"block e:\n  %c = add {big}, 1\n  %p = cmp lt %c, 0\n  br %p, a, b\nblock a:\n  ret\nblock b:\n  x q0\n  ret"))
    out = fold_constants(m)
    assert [b.label for b in out.entry_function.blocks] == ["e", "a"]


# the literal branch skips r; %q, %p, %b and %a are a dead chain through a
# phi, and %d keeps two live incomings even though both carry %m
DEAD_PHI_CHAIN = wrap("""block e:
  mz q0 -> r0
  %m = read_result r0
  %a = add %m, 1
  %k = cmp lt 1, 2
  br %k, s, r
block s:
  br %m, l, j
block l:
  %b = mul %a, 2
  jmp j
block r:
  jmp j
block j:
  %p = phi [%b, l], [%a, s], [0, r]
  %d = phi [%m, l], [%m, s], [true, r]
  %q = xor %p, 1
  br %d, x, y
block x:
  x q1
  jmp y
block y:
  output result r0
  ret""")

REPEAT_COUNTER = """module t
attrs required_qubits=1 required_results=1
func @main() {{
block entry:
  jmp lp
repeat {trips} lp {{
block body:
  %k = add %lp.i0, 1
  %c = cmp lt %k, 2
  br %c, h, next
block h:
  h q0
  jmp next
}}
block fin:
  mz q0 -> r0
  output result r0
  ret
}}
"""

CALL_BOTH_WAYS = """module t
attrs required_qubits=1 required_results=1
func @main() {
block e:
  call @f(1)
  call @f(0)
  mz q0 -> r0
  output result r0
  ret
}
func @f(%k: int) {
block a:
  %c = cmp ne %k, 0
  br %c, b, d
block b:
  x q0
  jmp d
block d:
  h q0
  ret
}
"""


def assert_folded(fn):
    """``fn`` is at fold's fixpoint: nothing left to fold, prune or drop."""
    cfg = Cfg.from_function(fn)
    reachable, work = set(), [fn.blocks[0].label]
    while work:
        if (n := work.pop()) not in reachable:
            reachable.add(n)
            work.extend(cfg.successors(n))
    assert reachable == set(cfg.nodes), fn.name
    used = [v for b in fn.blocks for p in b.phis for v, _l in p.incomings]
    used += [v for b in fn.blocks for i in b.body for v in instr_uses(i)]
    used += [b.terminator.cond for b in fn.blocks if isinstance(b.terminator, Branch)]
    for b in fn.blocks:
        assert not isinstance(b.terminator, Branch) or isinstance(b.terminator.cond, Vreg), b.label
        for p in b.phis:
            assert sorted(l for _v, l in p.incomings) == sorted(cfg.predecessors(b.label)), p
            assert len(p.incomings) != 1 or p.incomings[0][0] == p.dst, p
            assert p.dst in used, p
        for i in b.body:
            if isinstance(i, (BinOp, Cmp)):
                assert isinstance(i.a, Vreg) or isinstance(i.b, Vreg), i
            if isinstance(i, (BinOp, Cmp, ReadResult)):
                assert i.dst in used, i


def test_fold_is_idempotent_and_oracle_preserving():
    edge_cases = [DEAD_PHI_CHAIN, REPEAT_COUNTER.format(trips=3), REPEAT_COUNTER.format(trips=0), CALL_BOTH_WAYS]
    for m in [random_program(seed) for seed in range(25)] + [parse(src) for src in edge_cases]:
        once = fold_constants(m)
        assert fold_constants(once) == once
        assert max_distribution_error(oracle.enumerate_module(m), oracle.enumerate_module(once)) < 1e-12
        for fn in once.functions:
            assert_folded(fn)
    # pessimistic: a phi with two live incomings stays, even on one value
    assert [p.dst for b in fold_constants(parse(DEAD_PHI_CHAIN)).entry_function.blocks for p in b.phis] == [Vreg("d")]
    corpus = [build_msd(MsdConfig(limit)) for limit in range(9)]
    corpus += [build_rus(RusConfig(limit, style=style)) for style in ("loop", "recursion") for limit in range(1, 8)]
    for m in corpus:
        once = fold_constants(m)
        assert fold_constants(once) == once, m.name
        for fn in once.functions:
            assert_folded(fn)


# -- flattening ----------------------------------------------------------------

CALLER = """
module t
attrs required_qubits=2 required_results=1
func @main() {
block e:
  call @helper(q1)
  mz q0 -> r0
  output result r0
  ret
}
func @helper(%q: qubit) {
block e:
  h %q
  cx %q, q0
  ret
}
"""


def test_nonrecursive_call_inlined_once():
    out = flatten(parse(CALLER))
    assert len(out.functions) == 1
    assert all(not isinstance(i, Call) for b in out.entry_function.blocks for i in b.body)
    gates = [i for b in out.entry_function.blocks for i in b.body if isinstance(i, QGate)]
    assert gates[0] == QGate("h", (1,)) and gates[1] == QGate("cx", (1, 0))
    assert diagnostics_ok(validate_profile(out, strict=True))


def test_flatten_idempotent_on_flat_programs():
    m = random_program(3)
    flat = flatten(m)
    assert flatten(flat) == flat


def test_loop_unroll_block_count_affine():
    from ionflow.experiments import RusConfig, build_rus

    counts = []
    for limit in range(1, 9):
        flat = flatten(build_rus(RusConfig(limit=limit, style="loop")))
        assert diagnostics_ok(validate_profile(flat, strict=True))
        counts.append(len(flat.entry_function.blocks))
    d1 = [b - a for a, b in zip(counts, counts[1:])]
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    assert all(x == 0 for x in d2), (counts, d2)


def test_recursion_inline_block_count_superlinear():
    from ionflow.experiments import RusConfig, build_rus

    counts = []
    for limit in range(1, 9):
        flat = flatten(build_rus(RusConfig(limit=limit, style="recursion")))
        assert diagnostics_ok(validate_profile(flat, strict=True))
        counts.append(len(flat.entry_function.blocks))
    d1 = [b - a for a, b in zip(counts, counts[1:])]
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    assert all(x > 0 for x in d2), (counts, d2)


def test_unroll_budget_enforced():
    src = (
        "module t\nattrs required_qubits=1 required_results=1\n"
        "func @main() {\nblock entry:\n  jmp lp\n"
        "repeat 9 lp {\nblock body:\n  h q0\n  jmp next\n}\n"
        "block fin:\n  mz q0 -> r0\n  output result r0\n  ret\n}\n"
    )
    with pytest.raises(BudgetExceeded):
        flatten(parse(src), FlattenConfig(max_unroll=8))


def test_inline_depth_budget_enforced():
    src = (
        "module t\nattrs required_qubits=1 required_results=1\n"
        "func @main() {\nblock e:\n  call @f()\n  ret\n}\n"
        "func @f() {\nblock e:\n  call @f()\n  ret\n}\n"
    )
    with pytest.raises(BudgetExceeded):
        flatten(parse(src), FlattenConfig(max_inline_depth=5))


@pytest.mark.parametrize("budget", [-1, 1.5, True, "8"])
def test_flatten_budget_must_be_an_int_at_least_zero(budget):
    for name in ("max_inline_depth", "max_unroll"):
        with pytest.raises(IonflowError, match=f"flatten budget {name}="):
            FlattenConfig(**{name: budget})
    assert FlattenConfig(0, 0) == FlattenConfig(max_inline_depth=0, max_unroll=0)


def test_flatten_preserves_distributions():
    for seed in range(20):
        m = random_program(seed)
        flat = flatten(m)
        assert max_distribution_error(oracle.enumerate_module(m), oracle.enumerate_module(flat)) < 1e-12


def test_self_calling_entry_hits_depth_budget_quickly():
    # each round inlines one copy of the settled original, so the entry grows
    # linearly and all 64 rounds run before the budget error
    m = parse(wrap("block a:\n  call @main()\n  ret", qubits=1, results=0))
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="after 64 inline rounds"):
        flatten(m)
    assert time.perf_counter() - t0 < 1.0


def test_doubling_recursion_hits_entry_size_budget_quickly():
    # two recursive call sites double the entry every inline round, so the
    # size budget, not the depth budget, stops a deep recursion
    m = build_rus(RusConfig(30, style="recursion"))
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="blocks, budget is"):
        flatten(m)
    assert time.perf_counter() - t0 < 2.0


def test_recursion_within_entry_size_budget_compiles():
    assert toolchain.compile_module(build_rus(RusConfig(8, style="recursion"))).block_count == 1786
    # recursion 10 is the deepest that fits: its last round grows the entry to 8,186 blocks
    assert len(flatten(build_rus(RusConfig(10, style="recursion"))).functions[0].blocks) == 7162


BRANCH_ON_ARG = """module t
attrs required_qubits=1 required_results=1
func @main() {{
block e:
  call @f({arg})
  jmp fin
block fin:
  mz q0 -> r0
  output result r0
  ret
}}
func @f(%k: int) {{
block a:
  br %k, c, d
block c:
  x q0
  jmp d
block d:
  ret
}}
"""

BRANCH_ON_FOLDED = "block a:\n  %x = {op}\n  br %x, b, c\nblock b:\n  x q0\n  jmp c\nblock c:\n  mz q0 -> r0\n  output result r0\n  ret"


@pytest.mark.parametrize(
    "src",
    [
        BRANCH_ON_ARG.format(arg=3),
        BRANCH_ON_ARG.format(arg=0),
        wrap(BRANCH_ON_FOLDED.format(op="add 1, 2"), qubits=1, results=1),
        wrap(BRANCH_ON_FOLDED.format(op="sub 2, 2"), qubits=1, results=1),
    ],
    ids=["arg-3", "arg-0", "folded-3", "folded-0"],
)
def test_branch_on_int_literal_takes_the_arm_the_oracle_takes(src):
    m = parse(src)
    program = toolchain.compile_module(m).program
    expected = oracle.enumerate_module(m)
    assert len(expected) == 1
    assert max_distribution_error(expected, emulator.enumerate_outcomes(program)) < 1e-12


MISCOMPILED_CALL = """module t
attrs required_qubits=2 required_results=3
func @main() {
block e:
  x q0
  mz q0 -> r0
  %x = read_result r0
  call @f(%x)
  output array_start
  output result r0
  output result r1
  output result r2
  output array_end
  ret
}
func @f(%p: bool) {
block a:
  mz q1 -> r1
  %x = read_result r1
  %q = and %p, true
  br %x, b, c
block b:
  jmp c
block c:
  br %q, d, g
block d:
  x q1
  jmp g
block g:
  mz q1 -> r2
  ret
}
"""

ARG_NAMED_AS_PARAM = """module t
attrs required_qubits=2 required_results=2
func @main() {
block e:
  x q0
  mz q0 -> r0
  %k = read_result r0
  call @f(%k)
  output result r1
  ret
}
func @f(%k: bool) {
block a:
  %q = and %k, true
  br %q, b, c
block b:
  x q1
  jmp c
block c:
  mz q1 -> r1
  ret
}
"""

SWAPPED_ARG_NAMES = """module t
attrs required_qubits=3 required_results=3
func @main() {
block e:
  x q0
  mz q0 -> r0
  %a = read_result r0
  mz q1 -> r1
  %b = read_result r1
  call @f(%b, %a)
  output result r2
  ret
}
func @f(%a: bool, %b: bool) {
block s:
  %c = and %a, true
  br %c, t, u
block t:
  x q2
  jmp u
block u:
  %e = xor %b, false
  br %e, v, w
block v:
  h q2
  jmp w
block w:
  mz q2 -> r2
  ret
}
"""


@pytest.mark.parametrize(
    "src",
    [MISCOMPILED_CALL, ARG_NAMED_AS_PARAM, SWAPPED_ARG_NAMES],
    ids=["arg-named-as-callee-def", "arg-named-as-param", "swapped-arg-names"],
)
def test_inlining_renames_callee_names_once(src):
    # a caller value whose name the callee also uses must not be renamed a
    # second time through the callee's renaming
    m = parse(src)
    program = toolchain.compile_module(m).program
    assert max_distribution_error(oracle.enumerate_module(m), emulator.enumerate_outcomes(program)) < 1e-12


LOOP_EXIT_PHI = """module t
attrs required_qubits=1 required_results=2
func @main() {{
block entry:
  jmp lp
repeat {trips} lp {{
block body:
  h q0
  mz q0 -> r1
  %m = read_result r1
  br %m, fin, next
}}
block fin:
{phi}
  br %w, a, b
block a:
  x q0
  jmp b
block b:
  mz q0 -> r0
  output result r1
  output result r0
  ret
}}
"""

EXIT_PHIS = {
    "literal": "  %w = phi [false, lp], [true, body]",
    "body-def": "  %w = phi [false, lp], [%m, body]",
    # %lp.i0 and %lp.more0 are the counter and condition the repeat sugar
    # defines in the header
    "counter": "  %c = phi [%lp.i0, lp], [%lp.i0, body]\n  %w = cmp lt %c, 2",
    "condition": "  %w = phi [true, lp], [%lp.more0, body]",
}


@pytest.mark.parametrize("mode", [CONDITIONAL, ALWAYS])
@pytest.mark.parametrize("phi", list(EXIT_PHIS))
@pytest.mark.parametrize("trips", [0, 1, 3])
def test_phi_after_unrolled_loop_matches_oracle(trips, phi, mode):
    # an incoming from the header comes from the last latch copy (or, with no
    # trips, from the header's predecessors) with the counter at its final
    # value; an incoming from a body block comes from each of its copies
    m = parse(LOOP_EXIT_PHI.format(trips=trips, phi=EXIT_PHIS[phi]))
    program = toolchain.compile_module(m, mode=mode).program
    assert max_distribution_error(oracle.enumerate_module(m), emulator.enumerate_outcomes(program)) < 1e-12


CALL_BLOCK_FEEDS_PHI = """module t
attrs required_qubits=2 required_results=3
func @main() {
block e:
  h q1
  mz q1 -> r1
  %c = read_result r1
  br %c, x, j
block x:
  call @f()
  jmp j
block j:
  %w = phi [true, x], [false, e]
  br %w, y, z
block y:
  x q1
  jmp z
block z:
  mz q1 -> r2
  output result r0
  output result r1
  output result r2
  ret
}
""" + TWO_RETURNS


@pytest.mark.parametrize("mode", [CONDITIONAL, ALWAYS])
@pytest.mark.parametrize(
    "src, continuations",
    [(CALL_BLOCK_FEEDS_PHI, 2), (CONTINUATION_DEF_USED_LATER, 1)],
    ids=["call-block-feeds-phi", "continuation-def-used-later"],
)
def test_two_return_callee_matches_both_oracles(src, continuations, mode):
    # each return of @f gets its own continuation copy, and a later phi takes
    # its incoming from every copy; a continuation that defines a value used
    # further on is shared by both returns instead
    m = parse(src)
    flat = flatten(m)
    assert sum(".cont" in b.label for b in flat.entry_function.blocks) == continuations
    res = toolchain.compile_module(m, mode=mode)
    expected = oracle.enumerate_module(m)
    guarded = oracle.enumerate_guarded(res.guarded, m.required_qubits, m.required_results)
    assert max_distribution_error(expected, guarded) < 1e-12
    assert max_distribution_error(expected, emulator.enumerate_outcomes(res.program)) < 1e-12


def test_second_call_gets_the_same_continuations_on_both_return_paths():
    # %w, defined in the second call's continuation, is read only by its own
    # block's branch, so that continuation is copied per return of @f both in
    # the first call's continuation that keeps the original names (cont0) and
    # in the renamed one (cont1)
    m = parse(TWO_CALL_BLOCK)
    flat = flatten(m)
    labels = [b.label for b in flat.entry_function.blocks]
    assert [l for l in labels if l.startswith("e.c0.cont0.")] == ["e.c0.cont0.c1.cont0", "e.c0.cont0.c1.cont1"]
    assert [l for l in labels if l.startswith("e.c0.cont1.")] == ["e.c0.cont1.c2.cont0", "e.c0.cont1.c2.cont1"]
    assert oracle.enumerate_module(flat) == oracle.enumerate_module(m)


class _UnspecializedInliner(passes._Inliner):
    """Inlines from the settled callee itself, with a continuation for every return."""

    def _specialize(self, call):
        fn = self.callees[call.callee]
        return fn, passes._collect_defs(fn.blocks)


def reference_flatten(module, config=FlattenConfig()):
    """Flattening without specializations: each round inlines from the settled
    callees, substituting arguments only in the clone, and settles the whole entry."""
    settled = {fn.name: passes._settle(fn, config.max_unroll) for fn in module.functions}
    inliner = _UnspecializedInliner(settled, config.max_unroll)
    entry = settled[module.entry]
    for _ in range(config.max_inline_depth):
        if not any(isinstance(i, Call) for b in entry.blocks for i in b.body):
            break
        entry = passes._settle(inliner.inline_level(entry), config.max_unroll)
    return Module(module.name, (entry,), module.entry, module.required_qubits, module.required_results)


FLATTEN_CORPUS = {
    "msd": lambda: [build_msd(MsdConfig(limit, basis)) for basis in BASES for limit in range(9)],
    "rus-loop": lambda: [build_rus(RusConfig(limit, basis, "loop")) for basis in BASES for limit in range(1, 9)],
    "rus-recursion": lambda: [build_rus(RusConfig(limit, basis, "recursion")) for basis in BASES for limit in range(1, 8)],
    "random": lambda: [random_program(seed) for seed in range(300)],
}


@pytest.mark.parametrize("family", list(FLATTEN_CORPUS))
def test_flatten_matches_reference_on_corpus(family):
    for m in FLATTEN_CORPUS[family]():
        m = fold_constants(m)
        assert textir.emit(flatten(m)) == textir.emit(reference_flatten(m)), m.name


FOLD_CORPUS = {**FLATTEN_CORPUS, "random-or-joins": lambda: [random_program(seed, or_joins=True) for seed in range(300)]}


@pytest.mark.parametrize("family", list(FOLD_CORPUS))
def test_run_passes_needs_no_fold_before_flatten(family):
    # run_passes skips a fold right before flatten, whose first step folds every function
    for m in FOLD_CORPUS[family]():
        for fn in m.functions:
            once = passes._fold_function(fn)
            assert passes._fold_function(once) == once, (m.name, fn.name)
        assert toolchain.run_passes(m) == passes.peephole(flatten(fold_constants(m))), m.name
        assert toolchain.run_passes(m, ("fold", "peephole")) == passes.peephole(fold_constants(m)), m.name


# the specialization for %k = 0 prunes @f's only use of %p, which leaves %x
# and %a without a use in the entry
DEAD_ARGUMENT = """module t
attrs required_qubits=1 required_results=1
func @main() {
block e:
  mz q0 -> r0
  %a = read_result r0
  %x = add %a, 1
  call @f(%x, 0)
  ret
}
func @f(%p: int, %k: int) {
block e:
  %c = cmp eq %k, 1
  br %c, y, n
block y:
  %q = cmp eq %p, 2
  br %q, z, n
block z:
  x q0
  jmp n
block n:
  ret
}
"""

# the specialization for %k = 0 keeps only @f's second return, whose
# continuation is still the second: e.c0.cont1, defining %a.c0.k1; the call
# in it is still the third, @f's blocks there still end in .c2
PRUNED_RETURN = """module t
attrs required_qubits=2 required_results=1
func @main() {
block e:
  call @f(0)
  call @f(1)
  mz q1 -> r0
  %a = read_result r0
  br %a, t, u
block t:
  x q1
  jmp u
block u:
  output result r0
  ret
}
func @f(%k: int) {
block a:
  %c = cmp eq %k, 1
  br %c, b, c
block b:
  x q0
  ret
block c:
  h q0
  ret
}
"""

# literals that compare equal but fold differently get their own specializations
LITERAL_KEYS = """module t
attrs required_qubits=1 required_results=0
func @main() {
block e:
  call @f(1)
  call @f(1.0)
  call @f(true)
  call @f(-0.0)
  call @f(0.0)
  ret
}
func @f(%k: float) {
block e:
  %a = and %k, %k
  %b = mul %k, 1
  rz(%a) q0
  rz(%b) q0
  ret
}
"""

# @f's loop bound is its parameter, so the loop unrolls only in @f's
# specialization, and only then do the calls in its body see literal arguments
LOOP_BOUND_ARGUMENT = """module t
attrs required_qubits=1 required_results=1
func @main() {
block e:
  call @f(2)
  mz q0 -> r0
  output result r0
  ret
}
func @f(%n: int) {
block e:
  jmp h
block h:
  %i = phi [0, e], [%j, l]
  %c = cmp lt %i, %n
  br %c, b, x
block b:
  call @g(%i)
  jmp l
block l:
  %j = add %i, 1
  jmp h
block x:
  ret
}
func @g(%k: int) {
block e:
  h q0
  %z = cmp gt %k, 0
  br %z, r, d
block r:
  %k1 = sub %k, 1
  call @g(%k1)
  jmp d
block d:
  ret
}
"""


@pytest.mark.parametrize(
    "src",
    [DEAD_ARGUMENT, PRUNED_RETURN, LITERAL_KEYS],
    ids=["dead-argument", "pruned-return", "literal-keys"],
)
def test_flatten_matches_reference_on_edge_cases(src):
    m = parse(src)
    assert textir.emit(flatten(m)) == textir.emit(reference_flatten(m))


def test_loop_bound_argument_unrolls_in_the_specialization():
    # the reference unrolls the loop after cloning, so only the order of the
    # name suffixes differs: b.u0.c0 here, b.c0.u0 there
    m = parse(LOOP_BOUND_ARGUMENT)
    flat = flatten(m)
    assert "block b.u1.c0:" in textir.emit(flat)
    assert len(flat.entry_function.blocks) == len(reference_flatten(m).entry_function.blocks)
    assert max_distribution_error(oracle.enumerate_module(m), oracle.enumerate_module(flat)) < 1e-12


def test_each_literal_argument_key_folds_once(monkeypatch):
    folds = []
    fold = passes._fold_function

    def counting_fold(fn):
        binops = [i for b in fn.blocks for i in b.body if isinstance(i, BinOp)]
        folds.append((fn.name, binops[0].a if fn.name == "attempt" else None))
        return fold(fn)

    monkeypatch.setattr(passes, "_fold_function", counting_fold)
    flatten(build_rus(RusConfig(5, style="recursion")))
    # each function settles once, @attempt specializes once per literal depth
    # 5..1 (its two recursive calls share a key), and the entry folds once
    # after the five rounds
    assert folds == [("main", None), ("attempt", Vreg("k"))] + [("attempt", k) for k in (5, 4, 3, 2, 1)] + [("main", None)]


# -- peephole -------------------------------------------------------------------

def count_gates(m):
    return sum(1 for b in m.entry_function.blocks for i in b.body if isinstance(i, QGate))


def test_hh_cancels():
    m = parse(wrap("block e:\n  h q0\n  h q0\n  ret"))
    assert count_gates(peephole(m)) == 0


def test_tt_becomes_s():
    m = parse(wrap("block e:\n  t q0\n  t q0\n  ret"))
    out = peephole(m)
    assert [i for b in out.entry_function.blocks for i in b.body] == [QGate("s", (0,))]


def test_rz_angles_merge():
    m = parse(wrap("block e:\n  rz(0.25) q0\n  rz(0.5) q0\n  ret"))
    out = peephole(m)
    assert out.entry_function.entry.body == (QGate("rz", (0,), 0.75),)


def test_disjoint_gate_between_pair_still_matches():
    m = parse(wrap("block e:\n  h q0\n  x q1\n  h q0\n  ret"))
    out = peephole(m)
    assert out.entry_function.entry.body == (QGate("x", (1,)),)


def test_blocking_gate_prevents_match():
    m = parse(wrap("block e:\n  h q0\n  x q0\n  h q0\n  ret"))
    assert count_gates(peephole(m)) == 3


def test_measure_blocks_matching():
    m = parse(wrap("block e:\n  h q0\n  mz q0 -> r0\n  h q0\n  ret"))
    assert count_gates(peephole(m)) == 2


def test_cx_cx_cancels_only_same_operands():
    m = parse(wrap("block e:\n  cx q0, q1\n  cx q0, q1\n  cx q1, q0\n  ret"))
    out = peephole(m)
    assert out.entry_function.entry.body == (QGate("cx", (1, 0)),)


def test_gate_count_never_increases_and_fixpoint():
    for seed in range(30):
        m = random_program(seed)
        out = peephole(m)
        assert count_gates(out) <= count_gates(m)
        assert peephole(out) == out


def test_peephole_preserves_distributions():
    for seed in range(25):
        m = random_program(seed)
        out = peephole(m)
        assert max_distribution_error(oracle.enumerate_module(m), oracle.enumerate_module(out)) < 1e-12


def test_unsound_rule_rejected_at_registration():
    with pytest.raises(ValueError, match="not unitarily equivalent"):
        check_rule(("h", "t"), ())


def test_default_rules_all_register():
    assert len(PAIR_RULES) == 9
    for pair, replacement in PAIR_RULES.items():
        check_rule(pair, replacement)


def _gate_instances():
    """Every gate of ``GATE_SET`` on every qubit order of q0, q1, including
    repeated qubits, with int, float, bool and vreg angles on rotations."""
    for name in GATE_SET:
        orders = [(a, b) for a in (0, 1) for b in (0, 1)] if name in TWO_QUBIT_GATES else [(0,), (1,)]
        angles = (3, 0.7, -1.25, True, Vreg("a")) if name in ROTATION_GATES else (None,)
        for qubits in orders:
            for angle in angles:
                yield QGate(name, qubits, angle)


def _unitary(body):
    return gates.sequence_unitary([(g.name, g.qubits, g.angle) for g in body], 3)


def test_every_gate_pair_keeps_unitary_and_never_grows():
    # q2 is disjoint from every instance, so a gate on it may sit between the pair
    instances = list(_gate_instances())
    for g1, g2 in itertools.product(instances, repeat=2):
        for between in ((), (QGate("x", (2,)),)):
            body = (g1, *between, g2)
            m = Module("t", (Function("main", (), (BasicBlock("e", (), body, Return()),)),), "main", 3, 0)
            out = peephole(m).entry_function.entry.body
            assert len(out) <= len(body)
            if any(isinstance(g.angle, Vreg) or len(set(g.qubits)) < len(g.qubits) for g in body):
                assert out == body  # no unitary to keep: nothing may be rewritten
            else:
                assert gates.equal_up_to_phase(_unitary(body), _unitary(out)), (body, out)
