import pytest

from conftest import random_program
from ionflow import emulator, memo, qccd
from ionflow.emulator import H1E_LIKE, NOISELESS, enumerate_exec_leaves, run_shots
from ionflow.qccd import ALWAYS, CONDITIONAL
from ionflow.toolchain import compile_module


def test_memo_bounds_clears_and_refuses():
    built = []

    def build(x):
        built.append(x)
        return x * 10

    # a count bound: the third entry clears the memo first
    counted = memo.Memo(2)
    assert [counted.get(k, build, k) for k in (1, 2, 1)] == [10, 20, 10] and built == [1, 2]
    assert counted.get(3, build, 3) == 30 and counted.entries == {3: 30} and counted.held == 1
    assert counted.get(1, build, 1) == 10 and built == [1, 2, 3, 1]

    # a size bound: entries sized by their value
    sized = memo.Memo(10)
    for k in (2, 3, 4):
        sized.get(k, lambda k: "x" * k, k, size=len)
    assert sized.held == 9 and len(sized.entries) == 3
    assert sized.get(5, lambda: "y" * 5, size=len) == "yyyyy"  # 9 + 5 > 10: cleared, then held
    assert sized.entries == {5: "yyyyy"} and sized.held == 5

    # a value larger than the bound is returned uncached, and clears what would not fit beside it
    assert sized.get(6, lambda: "z" * 11, size=len) == "z" * 11
    assert sized.entries == {} and sized.held == 0

    # a build that raises caches nothing
    def failing():
        raise ValueError("no")

    sized.get(7, lambda: "ok", size=len)
    with pytest.raises(ValueError, match="no"):
        sized.get(8, failing)
    assert sized.entries == {7: "ok"} and sized.held == 2

    # clear_all reaches every instance, the modules' own included
    counted.get(4, build, 4)
    memo.clear_all()
    for m in (counted, sized):
        assert m.entries == {} and m.held == 0
    assert emulator.BODIES.entries == {} and qccd.PLANS.entries == {}


PROGRAMS = [(seed, mode) for seed in range(60) for mode in (CONDITIONAL, ALWAYS)]


def _outputs(seed, mode, cold):
    """A random program's exec JSON, its shots noiselessly and under H1E_LIKE, and its exact leaves; with
    ``cold`` the compile and each runtime start on empty memos."""
    if cold:
        memo.clear_all()
    prog = compile_module(random_program(seed), mode=mode).program
    out = [prog.to_json()]
    for noise in (NOISELESS, H1E_LIKE):
        if cold:
            memo.clear_all()
        out.append(run_shots(prog, noise, 300, 3))
    leaves = enumerate_exec_leaves(prog)  # on the noiseless runtime the shots built
    return [*out, [(l.prob, l.outputs, l.state.tobytes(), l.executed_transport_steps) for l in leaves]]


def test_warm_memos_give_the_outputs_of_cold_ones_on_random_programs():
    # plans and runtime bodies memoized by value serve later programs: forward, then in reverse with every
    # program's entries warm, each program must compile and run as it does on empty memos
    cold = {p: _outputs(*p, cold=True) for p in PROGRAMS}
    memo.clear_all()
    for p in [*PROGRAMS, *PROGRAMS[::-1]]:
        assert _outputs(*p, cold=False) == cold[p], p
