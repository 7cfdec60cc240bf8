import bisect
import dataclasses
import gc
import hashlib
import math
import os
import random
import time
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from conftest import max_distribution_error, random_program
from ionflow import gates as G
from ionflow import emulator, memo, oracle, textir
from ionflow.emulator import (
    H1E_LIKE,
    MATRIX_QUBITS,
    NOISELESS,
    SHOT_BATCH,
    NoiseModel,
    ZoneViolation,
    apply_unitary,
    apply_depolarizing,
    apply_dephasing,
    enumerate_exec_leaves,
    enumerate_outcomes,
    run_shots,
)
from ionflow.experiments import BASES, MsdConfig, RusConfig, build_msd, build_rus
from ionflow.ir import BinOp, IonflowError, ReadResult
from ionflow.predication import OrVal
from ionflow.qccd import ALWAYS, CONDITIONAL, ClassicalItem, LayerItem, MarkItem, TrapLayout, TransportItem
from ionflow.regalloc import PReg
from ionflow.toolchain import compile_module


def compile_src(body: str, qubits=2, results=2, **kw):
    src = f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{body}\n}}\n"
    return compile_module(textir.parse(src), **kw)


# -- gate application (batched: one state per row) --------------------------------

def test_h_on_zero_gives_plus():
    states = np.array([[1, 0], [0, 1]], dtype=complex)
    apply_unitary(states, G.H, (0,), 1)
    assert np.allclose(states, [[1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]])


def test_cx_flips_target_when_control_set():
    # |10> in little-endian (qubit0=0, qubit1=1) is index 2; cx q1, q0 maps it to index 3
    res = compile_src("block e:\n  x q1\n  cx q1, q0\n  ret")
    (leaf,) = enumerate_exec_leaves(res.program)
    expect = np.zeros(4)
    expect[3] = 1
    assert np.allclose(leaf.state, expect)


def test_rz_phase_convention():
    theta = 0.83
    states = np.array([[1, 0], [0, 1]], dtype=complex)
    apply_unitary(states, G.rz(theta), (0,), 1)
    assert np.allclose(states[0, 0], np.exp(-1j * theta / 2))
    assert np.allclose(states[1, 1], np.exp(+1j * theta / 2))


def test_gate_norm_preserved():
    gates = [("ry", (0,), 0.3), ("rx", (1,), 1.1), ("h", (2,), None), ("ry", (2,), 0.7), ("cx", (1, 2), None)]
    body = "  ry(0.3) q0\n  rx(1.1) q1\n  h q2\n  ry(0.7) q2\n  cx q1, q2"
    res = compile_src(f"block e:\n{body}\n  ret", qubits=3)
    (leaf,) = enumerate_exec_leaves(res.program)
    assert abs(np.linalg.norm(leaf.state) - 1.0) < 1e-9
    assert G.equal_up_to_phase(leaf.state, G.sequence_unitary(gates, 3)[:, 0])


def test_embed_returns_a_shared_read_only_matrix():
    u = G.embed("rx", (1,), 0.3, 2)
    assert np.allclose(u, np.kron(G.rx(0.3), G.I2))
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0
    assert G.embed("rx", (1,), 0.3, 2) is u


def test_zone_check_raises_on_bad_placement():
    prog = compile_src("block e:\n  h q0\n  cx q0, q1\n  mz q0 -> r0\n  output result r0\n  ret").program
    k, layer = next((k, it) for k, it in enumerate(prog.items) if isinstance(it, LayerItem) and it.expected_slots)
    (q, slot), *rest = layer.expected_slots
    bad = dataclasses.replace(layer, expected_slots=((q, slot + 1), *rest))
    prog = dataclasses.replace(prog, items=prog.items[:k] + (bad,) + prog.items[k + 1:])
    with pytest.raises(ZoneViolation):
        run_shots(prog, NOISELESS, 1, 0)
    with pytest.raises(ZoneViolation):
        enumerate_outcomes(prog)


# -- guard segments: runs of items under one guard that the walk masks once -------

# block a runs where r0 = 1; its items share the guard R0 and form one segment
BRANCHY = """block e:
  h q0
  mz q0 -> r0
  %c = read_result r0
  br %c, a, b
block a:
  x q1
  mz q1 -> r1
  output result r0
  output result r1
  jmp b
block b:
  h q1
  mz q1 -> r1
  output result r1
  ret"""


def _insert_after(prog, k: int, *new):
    return dataclasses.replace(prog, items=prog.items[: k + 1] + new + prog.items[k + 1:])


def _segment_items(prog):
    """Index of block a's mark and of its x layer, and a's guard."""
    mark = next(k for k, it in enumerate(prog.items) if isinstance(it, MarkItem) and it.label == "a")
    assert isinstance(prog.items[mark + 1], LayerItem) and prog.items[mark + 1].guard == prog.items[mark].guard
    return mark, mark + 1, prog.items[mark].guard


def _segment_of(rt, prog, k: int):
    """The first item, the end and the body of the guard segment that holds item k."""
    firsts = [first for _guard, _transport_guard, first, _seg, _instrs in rt.segments] + [len(prog.items)]
    i = bisect.bisect_right(firsts, k) - 1
    return firsts[i], firsts[i + 1], rt.segments[i][3]


def _guards_of(rt, k: int):
    """The guard and the transport guard of the guard segment that holds item k."""
    i = bisect.bisect_right([first for _guard, _transport_guard, first, _seg, _instrs in rt.segments], k) - 1
    return rt.segments[i][:2]


def _dephasings(seg) -> int:
    """The number of transport dephasing draws of a segment."""
    return sum(draw[0] == emulator._DEPHASE for draw in seg.draws)


def test_classical_item_clearing_its_guard_ends_the_segment():
    # block a clears its own guard register after its x gate: for those rows
    # the rest of a (a measurement, two outputs and a second mark) must not run
    prog = compile_src(BRANCHY).program
    _mark, x_layer, g = _segment_items(prog)
    clear = ClassicalItem(g, (BinOp("xor", g, g, g),))
    prog = _insert_after(prog, x_layer, clear, MarkItem(g, "a.rest"))
    assert enumerate_outcomes(prog) == pytest.approx({(0,): 0.5, (1,): 0.5}, abs=1e-12)
    shots = run_shots(prog, NOISELESS, 300, 5)
    took_a = [s.executed_gates == 3 for s in shots]  # h, x, h; rows that skip a run h, h
    assert 50 < sum(took_a) < 250
    for s, a in zip(shots, took_a):
        assert len(s.outputs) == 1
        assert s.measures_per_qubit == (1, 1)  # block a's measurement of q1 never ran
        assert s.skipped_blocks == (1 if a else 2)  # a.rest is skipped in every shot


def test_fork_inside_a_segment_keeps_marks_and_weights():
    # two adjacent blocks under one guard, the first forking on a measurement:
    # the copy is an active row of the segment, so neither counts the second mark
    prog = compile_src(BRANCHY.replace("  x q1\n", "  h q1\n")).program
    mark, _h_layer, g = _segment_items(prog)
    measure = mark + 2
    assert prog.items[measure].ops[0].kind == "measure"
    prog = _insert_after(prog, measure, MarkItem(g, "a2"))
    rt = emulator._compile_runtime(prog, NOISELESS)
    first, end, seg = _segment_of(rt, prog, mark)
    assert first == mark and end > measure + 1 and seg.marks == 2  # mark, h, measure and a2 are one segment
    b = emulator._Batch.start(rt, 1)
    assert emulator._walk(rt, b, None) is None
    # r0 = 0 skips a and a2; r0 = 1 forks on q1 in block a; block b forks every row
    assert sorted(zip(b.weight.round(12).tolist(), b.skipped.tolist())) == [(0.125, 0)] * 4 + [(0.25, 2)] * 2
    assert sorted(l.prob for l in enumerate_exec_leaves(prog)) == pytest.approx([0.125] * 4 + [0.25] * 2, abs=1e-12)
    shots = run_shots(prog, NOISELESS, 300, 3)
    assert {(s.executed_gates, s.skipped_blocks) for s in shots} == {(2, 2), (3, 0)}


def test_zone_check_raises_inside_a_segment():
    # the bad layer is block a's measurement, the third item of its segment
    prog = compile_src(BRANCHY).program
    mark, _x_layer, _g = _segment_items(prog)
    k = mark + 2
    layer = prog.items[k]
    (q, slot), *rest = layer.expected_slots
    bad = dataclasses.replace(layer, expected_slots=((q, slot + 1), *rest))
    prog = dataclasses.replace(prog, items=prog.items[:k] + (bad,) + prog.items[k + 1:])
    first, end, _seg = _segment_of(emulator._compile_runtime(prog, NOISELESS), prog, mark)
    assert first == mark and end > k + 1
    with pytest.raises(ZoneViolation):
        run_shots(prog, NOISELESS, 300, 0)
    with pytest.raises(ZoneViolation):
        enumerate_outcomes(prog)


def _moving_segment(prog, x_slot=2, measure_slot=3, second_step=((2, 3),), second_guard=None):
    """BRANCHY with block a's ion q1 moved in its own segment: slot 1 to 2
    before the x layer, 2 to 3 before the measurement, and back after it.
    The second move is under a's guard, or under ``second_guard``."""
    mark, x_layer, g = _segment_items(prog)
    x, measure = prog.items[x_layer], prog.items[x_layer + 1]
    assert x.expected_slots == measure.expected_slots == ((1, 1),)
    moved = (
        TransportItem(g, (((1, 2),),)),
        dataclasses.replace(x, expected_slots=((1, x_slot),)),
        TransportItem(g if second_guard is None else second_guard, (second_step,)),
        dataclasses.replace(measure, expected_slots=((1, measure_slot),)),
        TransportItem(g, (((2, 3),), ((1, 2),))),
    )
    items = prog.items[: mark + 1] + moved + prog.items[x_layer + 2:]
    return dataclasses.replace(prog, items=items), mark


def test_hoisted_zone_checks_follow_the_segment_transport():
    prog = compile_src(BRANCHY).program
    moved, mark = _moving_segment(prog)
    rt = emulator._compile_runtime(moved, NOISELESS)
    first, end, seg = _segment_of(rt, moved, mark)
    assert (first, end) == (mark, mark + 8)  # the mark, three transports, two layers and two outputs
    assert seg.steps == 4 and seg.gates == 1 and len(seg.zone) == 2
    assert enumerate_outcomes(moved) == pytest.approx(enumerate_outcomes(prog), abs=1e-12)
    shots = run_shots(moved, NOISELESS, 300, 0)
    assert [s.outputs for s in shots] == [s.outputs for s in run_shots(prog, NOISELESS, 300, 0)]
    took_a = [len(s.outputs) == 3 for s in shots]
    assert 50 < sum(took_a) < 250
    assert [s.executed_transport_steps for s in shots] == [4 if a else 0 for a in took_a]


@pytest.mark.parametrize("case", ["bad-layer-after-transport", "corrupted-transport-step"])
def test_hoisted_zone_check_names_the_slot_after_the_transport(case):
    # q1 starts the segment in slot 1; the message gives its slot at the bad
    # layer, after the segment's transport before it, and the planned slot
    prog = compile_src(BRANCHY).program
    if case == "bad-layer-after-transport":
        bad, _mark = _moving_segment(prog, measure_slot=2)
        message = "qubit 1 at slot 3, plan expected 2"
    else:
        bad, _mark = _moving_segment(prog, second_step=((0, 1),))
        message = "qubit 1 at slot 2, plan expected 3"
    with pytest.raises(ZoneViolation, match=message):
        run_shots(bad, NOISELESS, 300, 0)
    with pytest.raises(ZoneViolation, match=message):
        enumerate_outcomes(bad)


# -- shared transport: transport every row runs, inside the guarded segment around it --

def _corpus_programs(mode):
    for limit in range(5):
        yield f"msd-{limit}", compile_module(build_msd(MsdConfig(limit=limit)), mode=mode).program
    for style in ("loop", "recursion"):
        for limit in range(1, 5):
            yield f"rus-{style}-{limit}", compile_module(build_rus(RusConfig(limit=limit, style=style)), mode=mode).program


@pytest.mark.parametrize("noise", [NOISELESS, H1E_LIKE], ids=["noiseless", "noisy"])
def test_always_mode_executes_every_planned_step(noise):
    for name, prog in _corpus_programs(ALWAYS):
        steps = {s.executed_transport_steps for s in run_shots(prog, noise, 300, 6)}
        assert steps == {prog.planned_transport_steps}, name


@pytest.mark.parametrize("noise", [NOISELESS, H1E_LIKE], ids=["noiseless", "noisy"])
def test_every_msd_shot_executes_the_same_transport_in_conditional_mode(noise):
    # MSD's rounds share one chain under an always-true entry guard
    for limit in range(5):
        prog = compile_module(build_msd(MsdConfig(limit=limit))).program
        assert len({s.executed_transport_steps for s in run_shots(prog, noise, 300, 6)}) == 1, limit


def _segment_count(program) -> int:
    return len(emulator._compile_runtime(program, NOISELESS).segments)


def test_segment_counts_with_shared_transport():
    # shared transport joins the guarded segment around it, so each MSD round is about one segment
    for mode in (CONDITIONAL, ALWAYS):
        msd = compile_module(build_msd(MsdConfig(limit=8)), mode=mode).program
        assert _segment_count(msd) <= 19, mode
    # covered transport, a chain's transport under its entry guard, joins its member blocks' segments,
    # so conditional mode walks as many segments as always mode, where every transport is shared
    for style in ("loop", "recursion"):
        for limit in range(1, 7):
            module = build_rus(RusConfig(limit=limit, style=style))
            counts = [_segment_count(compile_module(module, mode=mode).program) for mode in (CONDITIONAL, ALWAYS)]
            assert counts[0] == counts[1], (style, limit, counts)
            if (style, limit) == ("recursion", 5):
                assert counts[0] <= 217


# q1 enters block b in |+>, and b measures it in the X basis: it reads 1
# exactly when an odd number of Zs hit q1 on the way
DEPHASED = """block e:
  PREP
  h q1
  mz q0 -> r0
  %c = read_result r0
  br %c, a, b
block a:
  x q0
  jmp b
block b:
  h q1
  mz q1 -> r1
  output result r0
  output result r1
  ret"""


@pytest.mark.parametrize("prep", ["h q0", "x q0", "z q0"], ids=["mixed", "all-active", "none-active"])
@pytest.mark.parametrize("mode", [CONDITIONAL, ALWAYS])
def test_inactive_rows_get_the_shared_transport_inside_a_segment(mode, prep):
    # q1 moves to slot 2 for e's first layer and back at the end of block a,
    # a transport every row runs, in a's segment. At p_transport = 1 each
    # step dephases every qubit; q1 is |0> at the first step, so the second
    # step's Z decides r1, and every row, whether or not a runs, reads 1
    prog = compile_src(DEPHASED.replace("PREP", prep), mode=mode).program
    mark = next(k for k, it in enumerate(prog.items) if isinstance(it, MarkItem) and it.label == "a")
    assert isinstance(prog.items[mark + 2], TransportItem) and prog.items[mark + 2].guard is True
    dephasing = NoiseModel(p_transport=1.0)
    rt = emulator._compile_runtime(prog, dephasing)
    first, _end, seg = _segment_of(rt, prog, mark + 2)
    assert first == mark and (seg.steps, _dephasings(seg)) == (1, 1)
    guard, transport_guard = _guards_of(rt, first)
    assert guard is not None and transport_guard is None
    r0 = {"h q0": {0, 1}, "x q0": {1}, "z q0": {0}}[prep]
    shots = run_shots(prog, dephasing, 600, 2)
    assert {s.outputs for s in shots} == {(r, 1) for r in r0}
    assert {s.executed_transport_steps for s in shots} == {2}
    assert {s.outputs for s in run_shots(prog, NOISELESS, 600, 2)} == {(r, 0) for r in r0}


def test_shared_transport_after_a_closing_classical_item_opens_a_segment():
    # block a clears its own guard register; the transport that follows runs
    # on every row, in a segment of its own under no guard
    prog = compile_src(BRANCHY).program
    _mark, x_layer, g = _segment_items(prog)
    clear = ClassicalItem(g, (BinOp("xor", g, g, g),))
    prog = _insert_after(prog, x_layer, clear, TransportItem(True, (((2, 3),),)), MarkItem(g, "a.rest"))
    rt = emulator._compile_runtime(prog, NOISELESS)
    first, _end, seg = _segment_of(rt, prog, x_layer + 2)
    assert first == x_layer + 2 and seg.steps == 1
    assert _guards_of(rt, first)[0] is None
    shots = run_shots(prog, NOISELESS, 300, 5)
    assert {s.executed_transport_steps for s in shots} == {1}
    assert {s.skipped_blocks for s in shots} == {1, 2}  # a.rest is skipped in every shot, a in about half


def test_a_segment_of_transport_alone_dephases_its_active_rows():
    # block a holds one step on two empty slots and no state op, under r0's
    # register; at p_transport = 1 the step dephases q0 between the h layers,
    # so exactly the rows that ran a measure 1
    res = compile_src("block e:\n  h q0\n  mz q0 -> r0\n  %m = read_result r0\n  reset q0\n  h q0\n  br %m, a, b\n"
                      "block a:\n  jmp b\nblock b:\n  h q0\n  mz q0 -> r1\n  output result r0\n  output result r1\n  ret",
                      qubits=1)
    mark = next(k for k, it in enumerate(res.program.items) if isinstance(it, MarkItem) and it.label == "a")
    g = res.program.items[mark].guard
    prog = _insert_after(res.program, mark, TransportItem(g, (((2, 3),),)))
    dephasing = NoiseModel(p_transport=1.0)
    first, end, seg = _segment_of(emulator._compile_runtime(prog, dephasing), prog, mark + 1)
    assert (first, end) == (mark, mark + 2) and isinstance(g, PReg)
    assert not seg.state and (seg.steps, _dephasings(seg)) == (1, 1)
    shots = run_shots(prog, dephasing, 300, 1)
    assert {(s.outputs, s.executed_transport_steps) for s in shots} == {((0, 0), 0), ((1, 1), 1)}
    assert {s.outputs for s in run_shots(prog, NOISELESS, 300, 1)} == {(0, 0), (1, 0)}


def test_bit_ops_truncate_in_a_float_register_file():
    # the float literal makes the register file float64; xor and and then
    # read %f = r0 + 0.5 as the integer r0
    m = textir.parse("module t\nattrs required_qubits=3 required_results=3\nfunc @main() {\nblock e:\n"
                     "  h q0\n  h q1\n  mz q0 -> r0\n  mz q1 -> r1\n  %a = read_result r0\n  %b = read_result r1\n"
                     "  %f = add %a, 0.5\n  %x = xor %f, 1\n  %y = and %f, %b\n  %o = or %x, %y\n  br %o, t, u\n"
                     "block t:\n  x q2\n  jmp u\nblock u:\n  mz q2 -> r2\n"
                     "  output result r0\n  output result r1\n  output result r2\n  ret\n}\n")
    want = oracle.enumerate_module(m)
    assert max_distribution_error(want, {(0, 0, 1): 0.25, (0, 1, 1): 0.25, (1, 0, 0): 0.25, (1, 1, 1): 0.25}) < 1e-12
    prog = compile_module(m).program
    assert emulator._compile_runtime(prog, NOISELESS).reg_dtype is np.float64
    assert {s.outputs for s in run_shots(prog, NOISELESS, 400, 3)} == set(want)


# -- covered transport: transport under a guard that holds on every active row of the segment --

COVER = PReg(9)  # a register that no program compiled here names


def _covering(g):
    """A guard that holds wherever ``g`` does: ``g`` or ``COVER``."""
    return OrVal((g, COVER))


def _holds(guard, regs: dict) -> bool:
    """``guard`` on a row whose registers are ``regs`` (index to value; 0 where absent)."""
    if isinstance(guard, bool):
        return guard
    if isinstance(guard, PReg):
        return regs.get(guard.index, 0) != 0
    return any(_holds(part, regs) for part in guard.parts)


def _item_steps(prog, regs: dict) -> int:
    """The steps of the transport items whose guard holds on a row whose registers are ``regs``."""
    return sum(len(it.steps) for it in prog.items if isinstance(it, TransportItem) and _holds(it.guard, regs))


@pytest.mark.parametrize("case", ["shared", "covered", "covered-every-row"])
def test_segment_steps_split_between_its_cover_and_its_own_transport(case):
    # block a holds its own transport (three steps under a's guard) and,
    # between a's two layers, one step under another guard, which opens a
    # segment of its own. That step carries q1 from slot 2 to 3 on the active
    # rows and moves no ion on the others. Every row where its guard holds
    # runs it, and a's rows run the rest: each shot's and each leaf's steps
    # are those of the items whose guard holds on it
    res = compile_src(BRANCHY)
    _mark, _x_layer, g = _segment_items(res.program)
    prog, mark = _moving_segment(res.program, second_guard=True if case == "shared" else _covering(g))
    cover = int(case == "covered-every-row")
    if cover:
        prog = _insert_after(prog, mark - 1, ClassicalItem(True, (BinOp("or", COVER, 1, 0),)))
        mark += 1
    rt = emulator._compile_runtime(prog, NOISELESS)
    second = None if case == "shared" else (g.index, COVER.index)
    segments = [(_segment_of(rt, prog, k), _guards_of(rt, k)) for k in (mark, mark + 3, mark + 4)]
    assert [(first, end, seg.steps, guards) for (first, end, seg), guards in segments] == [
        (mark, mark + 3, 1, (g.index, g.index)),  # a's mark, its first step and its x layer
        (mark + 3, mark + 4, 1, (second, second)),  # the step under the second guard
        (mark + 4, mark + 8, 2, (g.index, g.index)),  # a's measurement, its last two steps and its outputs
    ]
    want = oracle.enumerate_guarded(res.guarded, 2, 2)
    assert max_distribution_error(enumerate_outcomes(prog), want) < 1e-12

    def steps(outputs) -> int:
        ran_a = len(outputs) == 3  # a outputs r0 and r1, b outputs r1
        return _item_steps(prog, {g.index: int(ran_a), COVER.index: cover})

    shots = run_shots(prog, NOISELESS, 300, 0)
    assert {len(s.outputs) for s in shots} == {1, 3}
    assert all(s.executed_transport_steps == steps(s.outputs) for s in shots)
    assert {s.executed_transport_steps for s in shots} == ({0, 4} if case == "covered" else {1, 4})
    assert all(l.executed_transport_steps == steps(l.outputs) for l in enumerate_exec_leaves(prog))


NEUTRAL = (((2, 3),), ((1, 2),), ((2, 3),))  # three steps that leave an ion in slot 2 and empty slots 1 and 3 as they are


@pytest.mark.parametrize("prep", ["h q0", "x q0", "z q0"], ids=["mixed", "all-active", "none-active"])
@pytest.mark.parametrize("mode", [CONDITIONAL, ALWAYS])
def test_inactive_rows_get_the_covered_transport_inside_a_segment(mode, prep):
    # DEPHASED with a coin r2, read into COVER before block a, and in a's
    # segment three steps under r0 or r2 that move no ion. At p_transport = 1
    # their three Zs on q1 flip r1 on every row where r0 or r2 holds, whether
    # or not a runs on it (on every row in always mode), and on no other row
    body = DEPHASED.replace("PREP", f"h q0\n  mz q0 -> r2\n  reset q0\n  {prep}")
    body = body.replace("  output result r1\n", "  output result r1\n  output result r2\n")
    prog = compile_src(body, results=3, mode=mode).program
    mark, x_layer, g = _segment_items(prog)
    prog = _insert_after(prog, x_layer, TransportItem(_covering(g), NEUTRAL))
    prog = _insert_after(prog, mark - 1, ClassicalItem(True, (ReadResult(COVER, 2),)))
    mark += 1
    dephasing = NoiseModel(p_transport=1.0)
    rt = emulator._compile_runtime(prog, dephasing)
    first, _end, seg = _segment_of(rt, prog, mark + 2)
    assert first == mark
    if mode == CONDITIONAL:  # the shared transport after it opens a segment of its own
        assert _guards_of(rt, mark)[1] == (g.index, COVER.index)
        assert (seg.steps, _dephasings(seg)) == (3, 1)
    else:
        assert _guards_of(rt, mark)[1] is None
        assert (seg.steps, _dephasings(seg)) == (4, 2)
    r0 = {"h q0": {0, 1}, "x q0": {1}, "z q0": {0}}[prep]

    def covered(r0, r2) -> int:
        return int(mode == ALWAYS or r0 or r2)

    shots = run_shots(prog, dephasing, 600, 2)
    assert {s.outputs for s in shots} == {(a, 1 - covered(a, c), c) for a in r0 for c in (0, 1)}
    assert all(s.executed_transport_steps == 2 + 3 * covered(s.outputs[0], s.outputs[2]) for s in shots)
    assert {s.outputs for s in run_shots(prog, NOISELESS, 600, 2)} == {(a, 0, c) for a in r0 for c in (0, 1)}


def test_a_row_outside_the_cover_that_runs_its_segment_raises():
    # a transport under COVER alone, false on every row, joins block a's
    # segment: the rows that run a break the covering that lowering
    # guarantees, so the head raises instead of counting
    prog = compile_src(BRANCHY).program
    mark, x_layer, g = _segment_items(prog)
    prog = _insert_after(prog, x_layer, TransportItem(COVER, (((2, 3),),)))
    rt = emulator._compile_runtime(prog, NOISELESS)
    first, end, seg = _segment_of(rt, prog, x_layer + 1)
    assert first == mark and end > x_layer + 2 and seg.steps == 1 and _guards_of(rt, mark) == (g.index, COVER.index)
    message = f"runs the segment at item {mark} but not its chain's transport"
    with pytest.raises(ZoneViolation, match=message):
        run_shots(prog, NOISELESS, 300, 0)
    with pytest.raises(ZoneViolation, match=message):
        enumerate_outcomes(prog)


@pytest.mark.parametrize("write", ["after", "before"])
def test_a_write_to_the_cover_guard_ends_the_segment(write):
    # a classical item in block a that writes COVER, after a transport under
    # a's guard or COVER or before it: the head reads the cover guard once, so
    # the write ends the segment, or the transport opens a segment of its own
    prog = compile_src(BRANCHY).program
    mark, x_layer, g = _segment_items(prog)
    moved = TransportItem(_covering(g), (((2, 3),),))
    sets = ClassicalItem(g, (BinOp("or", COVER, 1, 0),))
    new = (moved, sets) if write == "after" else (sets, moved)
    prog = _insert_after(prog, x_layer, *new, MarkItem(g, "a.rest"))
    rt = emulator._compile_runtime(prog, NOISELESS)
    first, end, seg = _segment_of(rt, prog, x_layer + 1)
    if write == "after":
        assert (first, end) == (mark, x_layer + 3) and seg.steps == 1  # a.rest opens the next segment
        assert _guards_of(rt, mark) == (g.index, (g.index, COVER.index))
    else:
        assert (first, end) == (mark, x_layer + 2)  # the transport opens the next segment
        assert _segment_of(rt, prog, x_layer + 2)[0] == x_layer + 2
    shots = run_shots(prog, NOISELESS, 300, 5)
    took_a = [len(s.outputs) == 3 for s in shots]
    assert 50 < sum(took_a) < 250
    assert [s.executed_transport_steps for s in shots] == [int(a) for a in took_a]
    assert [s.skipped_blocks for s in shots] == [0 if a else 2 for a in took_a]


@pytest.mark.parametrize("order", ["own-then-covered", "covered-then-own"])
def test_transport_under_a_second_guard_opens_a_segment(order):
    # block a gets a step under its own guard and one under a's guard or
    # COVER, which holds on every row; neither moves an ion. A segment's
    # transport runs under one guard, that of its first transport, so the
    # second one opens a segment under its own guard
    res = compile_src(BRANCHY)
    mark, x_layer, g = _segment_items(res.program)
    own, covered = TransportItem(g, (((2, 3),),)), TransportItem(_covering(g), (((2, 3),),))
    prog = _insert_after(res.program, x_layer, *((own, covered) if order == "own-then-covered" else (covered, own)))
    prog = _insert_after(prog, mark - 1, ClassicalItem(True, (BinOp("or", COVER, 1, 0),)))
    mark, x_layer = mark + 1, x_layer + 1
    rt = emulator._compile_runtime(prog, NOISELESS)
    first, end, seg = _segment_of(rt, prog, mark)
    assert (first, end, seg.steps) == (mark, x_layer + 2, 1)  # a's mark, its x layer and the first step
    assert _segment_of(rt, prog, x_layer + 2)[0] == x_layer + 2
    both = (g.index, COVER.index)
    if order == "own-then-covered":
        assert _guards_of(rt, mark) == (g.index, g.index)
        assert _guards_of(rt, x_layer + 2) == (both, both)
    else:
        assert _guards_of(rt, mark) == (g.index, both)
        assert _guards_of(rt, x_layer + 2) == (g.index, g.index)
    want = oracle.enumerate_guarded(res.guarded, 2, 2)
    assert max_distribution_error(enumerate_outcomes(prog), want) < 1e-12

    def steps(outputs) -> int:
        return _item_steps(prog, {g.index: int(len(outputs) == 3), COVER.index: 1})

    shots = run_shots(prog, NOISELESS, 300, 0)
    assert {s.executed_transport_steps for s in shots} == {1, 2}
    assert all(s.executed_transport_steps == steps(s.outputs) for s in shots)
    assert all(l.executed_transport_steps == steps(l.outputs) for l in enumerate_exec_leaves(prog))


# -- whole-register kernels: one matrix per layer, and per run of layers ---------

def _random_layer(rng: random.Random, n: int) -> tuple:
    """Gates ``(name, angle, qubits)`` on disjoint qubits of an n-qubit register, at least one."""
    free = list(range(n))
    rng.shuffle(free)
    gates = []
    while free and (not gates or rng.random() < 0.7):
        if len(free) >= 2 and rng.random() < 0.3:
            gates.append(("cx", None, (free.pop(), free.pop())))
        else:
            name = rng.choice(["x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz"])
            angle = rng.uniform(-7.0, 7.0) if name.startswith("r") else None
            gates.append((name, angle, (free.pop(),)))
    return tuple(gates)


@pytest.mark.parametrize("seed", range(40))
def test_whole_register_matrix_is_the_per_group_kernel(seed):
    # one layer, and a run of up to four layers fused into one matrix
    rng = random.Random(seed)
    n = rng.randint(1, MATRIX_QUBITS)
    run = tuple(_random_layer(rng, n) for _ in range(rng.choice([1, rng.randint(2, 4)])))
    normal = np.random.default_rng(seed).normal
    states = normal(size=(7, 1 << n)) + 1j * normal(size=(7, 1 << n))
    states /= np.linalg.norm(states, axis=1)[:, None]
    gate_by_gate = states.copy()
    for gates in run:
        for name, angle, qubits in gates:
            apply_unitary(gate_by_gate, G.gate_unitary(name, angle), qubits, n)
    whole = states @ emulator._unitary(run, n)
    assert np.abs(whole - gate_by_gate).max() < 1e-12


def test_programs_above_the_matrix_cap_match_the_oracle():
    # registers wider than MATRIX_QUBITS apply each run of layers gate by gate
    wide = 0
    for seed in range(60):
        m = random_program(seed, n_qubits=MATRIX_QUBITS + 3, max_branches=3)
        if m.required_qubits <= MATRIX_QUBITS:
            continue
        wide += 1
        want = oracle.enumerate_module(m)
        for mode in (CONDITIONAL, ALWAYS):
            program = compile_module(m, mode=mode).program
            rt = emulator._compile_runtime(program, NOISELESS)
            ops = [op[0] for *_entry, seg, _i in rt.segments for op in seg.ops]
            assert emulator._GROUPS in ops and emulator._MATRIX not in ops
            for *_entry, seg, _i in rt.segments:  # one read-only (matrix, qubits) entry per gate of the segment
                groups = [entry for op in seg.ops if op[0] == emulator._GROUPS for entry in op[1]]
                assert len(groups) == seg.gates
                assert all(u.shape == (2 ** len(qubits),) * 2 and not u.flags.writeable for u, qubits in groups)
            assert max_distribution_error(enumerate_outcomes(program), want) < 1e-12, (seed, mode)
    assert wide >= 10


def test_layers_fuse_up_to_each_measurement_or_reset():
    # noise draws do not cut a run of gate layers: a noisy runtime runs the
    # noiseless one's matrices, and only a measurement or reset ends a run
    program = compile_module(build_rus(RusConfig(limit=3, style="recursion"))).program
    gate_layers = sum(isinstance(it, LayerItem) and any(op.kind == "gate" for op in it.ops) for it in program.items)

    def unitary_ops(noise):
        rt = emulator._compile_runtime(program, noise)
        return sum(op[0] == emulator._MATRIX for *_entry, seg, _i in rt.segments for op in seg.ops)

    fused = unitary_ops(NOISELESS)
    assert fused < gate_layers
    assert unitary_ops(H1E_LIKE) == fused  # depolarizing, idle and transport draws between gate layers
    assert unitary_ops(NoiseModel(prep_overrotation=0.01, p_meas=0.1)) == fused


# h on q0, then q0 idles for a layer while q1 runs x (q1's second x and the
# cx q1, q0, with q1 = |0>, hold q0's second h back), then h on q0 again. A
# transport step moves q1 between the first two layers. All four gate
# layers are one run: the measurement ends it
IDLE_THEN_H = """block e:
  h q0
  x q1
  x q1
  cx q1, q0
  h q0
  mz q0 -> r0
  output result r0
  ret"""


def _one_run(noise, body=IDLE_THEN_H):
    """The program of ``body`` (no peephole, which would cancel x x) and its one segment under ``noise``."""
    prog = compile_src(body, results=1, pass_names=("fold", "flatten")).program
    rt = emulator._compile_runtime(prog, noise)
    (*_entry, seg, _instrs), = rt.segments
    assert [op[0] for op in seg.ops] == [emulator._MATRIX, emulator._COLLAPSE, emulator._OUTPUT]
    return prog, seg


@pytest.mark.parametrize("channel", ["p_idle", "p_transport"])
def test_a_noise_event_inside_a_fused_run_lands_before_the_rest_of_the_run(channel):
    # at probability 1, q0's Z between its two h gates, from its idle layer or
    # from the transport step, turns |+> into |-> on every shot, so its record
    # reads 1 where the noiseless program's reads 0. The event is inside the
    # run: its draw carries the run's suffix
    prog, seg = _one_run(NoiseModel(**{channel: 1.0}))
    layers = [it for it in prog.items if isinstance(it, LayerItem)]
    assert [(layer.idle_qubits, [op.name for op in layer.ops]) for layer in layers] == [
        ((), ["h", "x"]), ((0,), ["x"]), ((), ["cx"]), ((1,), ["h"]), ((1,), [None]),
    ]
    kind = emulator._DRAWS if channel == "p_idle" else emulator._DEPHASE
    assert any(draw[0] == kind and suffix is not None for draw, suffix in zip(seg.draws, seg.suffixes))
    between = prog.items[prog.items.index(layers[0]):prog.items.index(layers[3])]
    assert sum(len(it.steps) for it in between if isinstance(it, TransportItem)) == 1
    assert {s.outputs for s in run_shots(prog, NoiseModel(**{channel: 1.0}), 300, 8)} == {(1,)}
    assert {s.outputs for s in run_shots(prog, NOISELESS, 300, 8)} == {(0,)}


def test_two_events_on_a_row_in_one_run_apply_in_op_order():
    # q0 idles twice in one run, around ry(θ): Z ry(θ) Z = ry(-θ), so the
    # final ry(-π/4) returns |+> rotated by ry(-π/4) to |0> on every shot.
    # The same two Zs in the other order would give ry(3θ) and a record of 1
    # on every shot; no Z at all gives |+>, either record
    quarter = math.pi / 4
    body = f"""block e:
  h q0
  x q1
  x q1
  cx q1, q0
  ry({quarter!r}) q0
  x q1
  x q1
  cx q1, q0
  ry({-quarter!r}) q0
  mz q0 -> r0
  output result r0
  ret"""
    prog, seg = _one_run(NoiseModel(p_idle=1.0), body)
    idle = [it.idle_qubits for it in prog.items if isinstance(it, LayerItem)]
    assert idle == [(), (0,), (), (), (0,), (), (1,), (1,)]
    assert sum(draw[3] != () and suffix is not None for draw, suffix in zip(seg.draws, seg.suffixes)) == 2
    assert {s.outputs for s in run_shots(prog, NoiseModel(p_idle=1.0), 300, 8)} == {(0,)}
    assert {s.outputs for s in run_shots(prog, NOISELESS, 300, 8)} == {(0,), (1,)}


# sha256 of repr([dataclasses.astuple(shot) ...]) for 300 H1E_LIKE shots at seed 2024, as the sampler gave them
# before noise draws stopped cutting fused runs: a change to any RNG stream or draw order changes these
PINNED_SHOTS = {
    ("msd-2-X", CONDITIONAL): "384b68c98c0e320e626cda38cf10de1bcaec358339fb9d4f8380247bf6461ce4",
    ("msd-2-X", ALWAYS): "384b68c98c0e320e626cda38cf10de1bcaec358339fb9d4f8380247bf6461ce4",
    ("rus-loop-3-Z", CONDITIONAL): "4cb57b9426ff687e5492e908801b16b406f84199161057c821cf448bf2a7b12d",
    ("rus-loop-3-Z", ALWAYS): "c1f92850e2646dff8c67476df382ce185289f60451c2355aed1feb33138e8380",
    ("rus-recursion-3-X", CONDITIONAL): "9d3f45d53bfe8face10828af39e87b3010225674b17aafc8adf9bcbfcf5ad97a",
    ("rus-recursion-3-X", ALWAYS): "e9bbcaec847b879d22279b2dc8077f8efdadbec8a2ca3e25245fc0cecb97be8f",
}


@pytest.mark.parametrize("name, mode", list(PINNED_SHOTS), ids=[f"{n}-{m}" for n, m in PINNED_SHOTS])
def test_noisy_shots_keep_their_pinned_streams(name, mode):
    family, *rest = name.split("-")
    if family == "msd":
        module = build_msd(MsdConfig(limit=int(rest[0]), basis=rest[1]))
    else:
        module = build_rus(RusConfig(limit=int(rest[1]), basis=rest[2], style=rest[0]))
    shots = run_shots(compile_module(module, mode=mode).program, H1E_LIKE, 300, 2024)
    got = hashlib.sha256(repr([dataclasses.astuple(s) for s in shots]).encode()).hexdigest()
    assert got == PINNED_SHOTS[name, mode]


# -- noise channels (batched: one state per row) ----------------------------------

def test_zero_probability_is_identity():
    rng = np.random.default_rng(1)
    states = np.array([[0.6, 0.8j], [0.8, 0.6j]], dtype=complex)
    before = states.copy()
    apply_depolarizing(states, (0,), 0.0, rng.random(2))
    apply_dephasing(states, (0,), 0.0, rng.random((2, 1)))
    assert np.array_equal(states, before)


def test_dephasing_scales_x_expectation():
    p = 0.2
    rng = np.random.default_rng(42)
    samples = 20000
    states = np.full((samples, 2), 1 / math.sqrt(2), dtype=complex)
    apply_dephasing(states, (0,), p, rng.random((samples, 1)))
    total = np.einsum("bi,ij,bj->", states.conj(), G.X, states).real
    assert abs(total / samples - (1 - 2 * p)) < 0.01


def test_depolarizing_shrinks_bloch_vector():
    # single-qubit depolarizing with probability p scales every Bloch
    # component by 1 - 4p/3 on average
    p = 0.3
    rng = np.random.default_rng(7)
    samples = 100000
    states = np.full((samples, 2), 1 / math.sqrt(2), dtype=complex)
    apply_depolarizing(states, (0,), p, rng.random(samples))
    total = np.einsum("bi,ij,bj->", states.conj(), G.X, states).real
    assert abs(total / samples - (1 - 4 * p / 3)) < 0.01


@pytest.mark.parametrize("channel", ["p1", "p2", "p_meas", "p_reset", "p_idle"])
def test_a_layer_without_a_noise_event_runs_only_its_collapses(monkeypatch, channel):
    # the check against each column's threshold must pass every draw that
    # fires: a threshold of 1 for every column (the full path, always) gives
    # the same shots, one noise channel at a time
    noise = NoiseModel(**{channel: 0.05})
    programs = [
        compile_module(build_msd(MsdConfig(limit=1, basis="X"))).program,
        compile_module(build_rus(RusConfig(limit=2, basis="X", style="recursion"))).program,
    ]
    fast = [run_shots(prog, noise, 300, 4) for prog in programs]
    compile_layer = emulator._compile_layer

    def full_path(item, n, noise):
        *body, draws = compile_layer(item, n, noise)
        return (*body, draws and (*draws[:-1], np.ones(draws[5])))  # a threshold of 1 for each of its columns

    monkeypatch.setattr(emulator, "_compile_layer", full_path)
    memo.clear_all()  # else the new programs would get the cached layers, not full_path's
    try:
        assert [run_shots(dataclasses.replace(prog), noise, 300, 4) for prog in programs] == fast
    finally:
        memo.clear_all()  # and full_path's layers must not serve later tests


def test_measurement_flip_noise():
    res = compile_src("block e:\n  mz q0 -> r0\n  output result r0\n  ret", qubits=1, results=1)
    noisy = NoiseModel(p_meas=0.25)
    shots = run_shots(res.program, noisy, 8000, 11)
    ones = sum(s.outputs[0] for s in shots)
    assert abs(ones / 8000 - 0.25) < 0.02  # state is |0>, flips only from recording noise


def test_reset_flip_noise():
    res = compile_src("block e:\n  x q0\n  reset q0\n  mz q0 -> r0\n  output result r0\n  ret", qubits=1, results=1)
    noisy = NoiseModel(p_reset=0.2)
    shots = run_shots(res.program, noisy, 8000, 12)
    ones = sum(s.outputs[0] for s in shots)
    assert abs(ones / 8000 - 0.2) < 0.02


def test_prep_overrotation_changes_angles():
    body = "block e:\n  ry(1.5707963267948966) q0\n  mz q0 -> r0\n  output result r0\n  ret"
    res = compile_src(body, qubits=1, results=1)
    exact = run_shots(res.program, NOISELESS, 4000, 1)
    over = run_shots(res.program, NoiseModel(prep_overrotation=math.pi / 2), 4000, 1)
    p_exact = sum(s.outputs[0] for s in exact) / 4000
    p_over = sum(s.outputs[0] for s in over) / 4000
    assert abs(p_exact - 0.5) < 0.03
    assert p_over > 0.97  # ry(pi) |0> = |1>


# -- one runtime per program and noise model ---------------------------------------

def test_one_runtime_per_program_and_noise_model(monkeypatch):
    built = []
    parent = os.getpid()
    compile_runtime = emulator._compile_runtime

    def counted(prog, noise):
        assert os.getpid() == parent, "a worker built its own runtime"
        built.append(noise)
        return compile_runtime(prog, noise)

    monkeypatch.setattr(emulator, "_compile_runtime", counted)
    before = set(emulator._RUNTIMES)
    prog = compile_module(build_rus(RusConfig(limit=2, style="recursion"))).program
    enumerate_outcomes(prog)
    enumerate_exec_leaves(prog)
    run_shots(prog, NOISELESS, 300, 1)
    run_shots(prog, NOISELESS, 600, 1, jobs=2)
    assert built == [NOISELESS]
    run_shots(prog, H1E_LIKE, 600, 1, jobs=2)
    run_shots(prog, H1E_LIKE, 300, 1)
    assert built == [NOISELESS, H1E_LIKE]
    copy = dataclasses.replace(prog)
    enumerate_outcomes(copy)
    assert built == [NOISELESS, H1E_LIKE, NOISELESS]
    assert set(emulator._RUNTIMES) == before | {id(prog), id(copy)}
    del prog, copy
    gc.collect()
    assert set(emulator._RUNTIMES) == before


def _arrays(x):
    """Every numpy array reachable from ``x`` through tuples and lists (named tuples included)."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _arrays(y)


SIX_QUBITS = "block e:\n" + "".join(f"  h q{i}\n" for i in range(6)) + "  cx q0, q5\n  mz q0 -> r0\n  output result r0\n  ret"


@pytest.mark.parametrize("case", ["msd-noisy", "msd-noiseless", "rus-recursion", "six-qubits"])
def test_runtime_arrays_are_read_only(case):
    # a runtime serves every consumer of its program, so a walk that wrote into it would corrupt the next one
    if case == "six-qubits":  # above MATRIX_QUBITS: fused gate groups
        prog = compile_src(SIX_QUBITS, qubits=6, results=1).program
    elif case == "rus-recursion":
        prog = compile_module(build_rus(RusConfig(limit=3, style="recursion"))).program
    else:
        prog = compile_module(build_msd(MsdConfig(limit=1))).program
    rt = emulator._runtime(prog, H1E_LIKE if case in ("msd-noisy", "six-qubits") else NOISELESS)
    segs = [seg for *_entry, seg, _instrs in rt.segments]
    ops = {op[0] for seg in segs for op in seg.ops}
    assert ops >= {emulator._GROUPS if case == "six-qubits" else emulator._MATRIX, emulator._COLLAPSE}
    assert any(seg.zone_qubits is not None for seg in segs)
    if case.startswith("msd"):
        assert any(seg.perm is not None for seg in segs)
    arrays = list(_arrays(rt.segments))
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][...] = 0


def _leaf_key(leaves):
    return [(l.prob, l.outputs, l.state.tobytes(), l.executed_transport_steps) for l in leaves]


@pytest.mark.parametrize("noise", [NOISELESS, H1E_LIKE], ids=["noiseless", "noisy"])
def test_enumerate_and_sample_in_turn_on_one_runtime(noise):
    prog = compile_module(build_msd(MsdConfig(limit=1, basis="X"))).program
    fresh = dataclasses.replace(prog)  # its own runtime, used once per consumer
    want_leaves = _leaf_key(enumerate_exec_leaves(fresh))
    want_shots = run_shots(dataclasses.replace(prog), noise, 600, 9)
    assert _leaf_key(enumerate_exec_leaves(prog)) == want_leaves
    assert run_shots(prog, noise, 600, 9) == want_shots
    assert run_shots(prog, noise, 600, 9, jobs=2) == want_shots
    assert _leaf_key(enumerate_exec_leaves(prog)) == want_leaves


# -- runtime bodies cached across programs -------------------------------------------

WIDE_TRAP = TrapLayout(12, ((0, 1), (6, 7)))
OVER_ROTATED = NoiseModel(p1=0.01, p2=0.02, p_meas=0.01, p_reset=0.01, p_transport=0.01, p_idle=0.01,
                          prep_overrotation=0.05)


def _outputs(prog, noises, cold):
    """Shots under each noise model, then the exact leaves, each from a runtime of its own; with ``cold`` each
    runtime is built on empty caches."""
    out = []
    for noise in (*noises, None):
        if cold:
            memo.clear_all()
        copy = dataclasses.replace(prog)
        out.append(_leaf_key(enumerate_exec_leaves(copy)) if noise is None else run_shots(copy, noise, 300, 7))
    return out


@pytest.fixture(scope="module")
def cache_sequence():
    """Programs that share many bodies, each with its outputs from cold caches.

    Table programs on two traps and in both modes, under three noise models,
    and registers wider than MATRIX_QUBITS, which run gate by gate.
    """
    modules = [build_msd(MsdConfig(limit=k, basis="X")) for k in range(4)]
    modules += [build_rus(RusConfig(limit=k, basis="X", style=s)) for s in ("loop", "recursion") for k in (1, 2, 3)]
    progs = [compile_module(m, trap, mode).program for m in modules for trap in (None, WIDE_TRAP)
             for mode in (CONDITIONAL, ALWAYS)]
    wide = [m for m in (random_program(s, n_qubits=8, max_branches=3) for s in range(12))
            if m.required_qubits > MATRIX_QUBITS]
    progs += [compile_module(m, mode=mode).program for m in wide for mode in (CONDITIONAL, ALWAYS)]
    noises = (NOISELESS, H1E_LIKE, OVER_ROTATED)
    return progs, noises, [_outputs(prog, noises, cold=True) for prog in progs]


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_warm_caches_give_the_outputs_of_cold_ones(cache_sequence, order):
    # bodies cached by value serve later programs: every program must run as if built from scratch
    progs, noises, cold = cache_sequence
    assert len(progs) == 48 and sum(p.n_qubits > MATRIX_QUBITS for p in progs) == 8
    memo.clear_all()
    indices = range(len(progs)) if order == "forward" else reversed(range(len(progs)))
    for i in indices:
        assert _outputs(progs[i], noises, cold=False) == cold[i], i


def test_a_recompiled_program_shares_every_segment():
    module = build_msd(MsdConfig(limit=8, basis="X"))
    first, second = (emulator._compile_runtime(compile_module(module).program, H1E_LIKE) for _ in range(2))
    assert all(a[3] is b[3] for a, b in zip(first.segments, second.segments, strict=True))


def _segment_entries():
    """The memoized segments, as (key, (its bodies, _Segment))."""
    return [(key, entry) for key, entry in emulator.BODIES.entries.items() if key[0] == emulator._SEGMENT]


def test_a_sweep_builds_fewer_than_half_the_segments_it_runs():
    memo.clear_all()
    runs = sum(len(emulator._compile_runtime(compile_module(build_msd(MsdConfig(limit=k, basis="X"))).program,
                                             H1E_LIKE).segments) for k in range(9))
    assert 2 * len(_segment_entries()) < runs


def test_the_caches_stay_within_their_bound(monkeypatch):
    # past the bound the memo starts over, bodies and segments together; a segment entry holds the bodies its
    # key names by identity. Each program but MSD 0 builds more than the bound's entries alone, so the memo
    # clears mid-build too.
    progs = [compile_module(build_rus(RusConfig(limit=k, basis="Z", style=s))).program
             for s in ("loop", "recursion") for k in (1, 2, 3)]
    progs += [compile_module(build_msd(MsdConfig(limit=k, basis="Y"))).program for k in range(3)]
    cold = []
    for prog in progs:
        memo.clear_all()
        cold.append(run_shots(dataclasses.replace(prog), H1E_LIKE, 300, 5))
    bound, clears, clear = 24, [], emulator.BODIES.clear
    monkeypatch.setattr(emulator.BODIES, "bound", bound)
    monkeypatch.setattr(emulator.BODIES, "clear", lambda: clears.append(clear()))
    clear()
    for prog, want in [*zip(progs, cold), *zip(progs, cold)]:
        assert run_shots(dataclasses.replace(prog), H1E_LIKE, 300, 5) == want
        assert len(emulator.BODIES.entries) <= bound
        assert all(key[1] == tuple(map(id, parts)) for key, (parts, _seg) in _segment_entries())
    assert clears
    clear()


# -- shots ------------------------------------------------------------------------

def test_same_master_seed_reproduces():
    m = random_program(5)
    res = compile_module(m)
    a = run_shots(res.program, NOISELESS, 100, 123)
    b = run_shots(res.program, NOISELESS, 100, 123)
    assert a == b


def test_parallel_jobs_identical():
    m = random_program(9)
    res = compile_module(m)
    a = run_shots(res.program, NOISELESS, 160, 3, jobs=1)
    b = run_shots(res.program, NOISELESS, 160, 3, jobs=4)
    assert a == b


def test_jobs_invariance_across_batch_boundaries():
    res = compile_module(build_msd(MsdConfig(limit=1, basis="X")))
    n = 2 * SHOT_BATCH + 17
    one = run_shots(res.program, H1E_LIKE, n, 21, jobs=1)
    assert len(one) == n
    for jobs in (2, 3):
        assert run_shots(res.program, H1E_LIKE, n, 21, jobs=jobs) == one, jobs


def test_jobs_invariance_on_a_recursion_program():
    prog = compile_module(build_rus(RusConfig(limit=3, style="recursion"))).program
    one = run_shots(prog, NOISELESS, 700, 4, jobs=1)  # three batches
    assert len(one) == 700
    for jobs in (2, 3):
        assert run_shots(prog, NOISELESS, 700, 4, jobs=jobs) == one, jobs


def test_full_batches_do_not_depend_on_the_shot_count():
    res = compile_module(build_rus(RusConfig(limit=2, style="recursion")))
    shots = run_shots(res.program, H1E_LIKE, 2 * SHOT_BATCH + 17, 8)
    assert list(run_shots(res.program, H1E_LIKE, 2 * SHOT_BATCH, 8)) == list(shots)[: 2 * SHOT_BATCH]


SUPER_PROGRAMS = {
    "msd-2-X": MsdConfig(limit=2, basis="X"),
    "rus-loop-3-Z": RusConfig(limit=3, basis="Z", style="loop"),
    "rus-recursion-3-X": RusConfig(limit=3, basis="X", style="recursion"),
}


@pytest.mark.parametrize("mode", [CONDITIONAL, ALWAYS])
@pytest.mark.parametrize("name", list(SUPER_PROGRAMS))
def test_super_batches_change_no_shot(monkeypatch, name, mode):
    # stream batches walked as one block draw each batch's uniforms from its own stream: the same shots as one
    # walk per batch, at any shot count and worker count
    cfg = SUPER_PROGRAMS[name]
    module = build_msd(cfg) if isinstance(cfg, MsdConfig) else build_rus(cfg)
    prog = compile_module(module, mode=mode).program
    for noise in (NOISELESS, H1E_LIKE):
        assert emulator._super_batches(emulator._runtime(prog, noise)) > 1
        for n in (1, SHOT_BATCH - 1, SHOT_BATCH, SHOT_BATCH + 1, 5 * SHOT_BATCH + 3):
            default = [run_shots(prog, noise, n, 31, jobs=jobs) for jobs in (1, 2)]
            with monkeypatch.context() as m:
                m.setattr(emulator, "SUPER_AMPLITUDES", 0)  # one stream batch per walk
                single = [run_shots(prog, noise, n, 31, jobs=jobs) for jobs in (1, 2)]
            assert len(default[0]) == n
            assert default == single == [single[0]] * 2, (noise, n)


def test_records_count_decoded_records():
    # rows that differ only where a guard was false are one record; past eight outputs a row packs into two words
    codes = np.full((5, 11), -1, np.int8)
    codes[:, 0] = codes[:, 10] = emulator._DECODE.index("[")
    codes[0, 1] = codes[1, 2] = codes[2, 9] = 1
    codes[3, 5] = 0
    zero = np.zeros(5, np.int64)
    shots = emulator.ShotBatch(codes, zero, zero, zero, np.zeros((5, 1), np.int64))
    assert shots.records() == {("[", 1, "["): 3, ("[", 0, "["): 1, ("[", "["): 1}
    narrow = emulator.ShotBatch(codes[:, 8:], zero, zero, zero, np.zeros((5, 1), np.int64))
    assert narrow.records() == {(1, "["): 1, ("[",): 4}
    assert Counter(s.outputs for s in shots) == shots.records()


def test_noisy_shots_are_deterministic():
    res = compile_module(build_msd(MsdConfig(limit=2, basis="Y")))
    a = run_shots(res.program, H1E_LIKE, 300, 17)
    assert a == run_shots(res.program, H1E_LIKE, 300, 17)
    assert a != run_shots(res.program, H1E_LIKE, 300, 18)


def _sampled_matches_exact(program, shots: int, seed: int) -> None:
    """Every sampled record is possible, and no record's count lies in a 1e-9 binomial tail."""
    dist = enumerate_outcomes(program)
    counts = Counter(s.outputs for s in run_shots(program, NOISELESS, shots, seed))
    assert all(dist.get(k, 0.0) > 0.0 for k in counts), set(counts) - set(dist)
    for outcome, p in dist.items():
        k = counts.get(outcome, 0)
        low = scipy.stats.binom.cdf(k, shots, p)
        high = scipy.stats.binom.sf(k - 1, shots, p)
        assert min(low, high) > 1e-9, (outcome, k, shots, p)


@pytest.mark.parametrize("mode", [CONDITIONAL, ALWAYS])
def test_sampled_records_agree_with_enumeration_on_random_programs(mode):
    for seed in range(50):
        _sampled_matches_exact(compile_module(random_program(seed), mode=mode).program, 1000, seed)


def test_enumerators_agree_on_or_joins():
    # random programs with cross edges, whose else-arms are OR joins of arms
    # that are not complements; the guarded walk reads the register-rewritten
    # form, whose OR joins have register parts
    programs = [random_program(seed, max_branches=3, or_joins=True) for seed in range(100)]
    joins = 0
    for m in programs:
        want = oracle.enumerate_module(m)
        for mode in (CONDITIONAL, ALWAYS):
            res = compile_module(m, mode=mode)
            guarded = oracle.enumerate_guarded(res.guarded, m.required_qubits, m.required_results)
            assert max_distribution_error(guarded, want) < 1e-12, mode
            assert max_distribution_error(enumerate_outcomes(res.program), want) < 1e-12, mode
        joins += any(isinstance(b.guard, OrVal) for b in res.guarded.blocks)
    assert joins >= 25


@pytest.mark.parametrize("name", ["msd-2", "rus-loop-4", "rus-recursion-4"])
def test_sampled_records_agree_with_enumeration_on_corpus(name):
    module = {
        "msd-2": lambda: build_msd(MsdConfig(limit=2, basis="X")),
        "rus-loop-4": lambda: build_rus(RusConfig(limit=4, basis="X", style="loop")),
        "rus-recursion-4": lambda: build_rus(RusConfig(limit=4, basis="X", style="recursion")),
    }[name]()
    _sampled_matches_exact(compile_module(module).program, 4000, 3)


def test_float_classical_values_are_not_truncated():
    # with m = 1, f = 2.5 fails the cmp; an integer register file would hold
    # 2 and pass it, so the then-arm's x q1 would run in both outcomes
    body = """
block e:
  h q0
  mz q0 -> r0
  %m = read_result r0
  %f = add %m, 1.5
  %c = cmp lt %f, 2.2
  br %c, a, b
block a:
  x q1
  jmp b
block b:
  mz q1 -> r1
  output result r0
  output result r1
  ret
"""
    src = f"module t\nattrs required_qubits=2 required_results=2\nfunc @main() {{\n{body}\n}}\n"
    module = textir.parse(src)
    want = oracle.enumerate_module(module)
    assert max_distribution_error(want, {(0, 1): 0.5, (1, 0): 0.5}) < 1e-12
    for mode in (CONDITIONAL, ALWAYS):
        program = compile_module(module, mode=mode).program
        assert max_distribution_error(enumerate_outcomes(program), want) < 1e-12, mode
        assert {s.outputs for s in run_shots(program, NOISELESS, 50, 1)} == set(want), mode


def test_shot_outputs_match_output_op_count():
    m = random_program(4)
    res = compile_module(m)
    want = m.required_results + 2  # array markers + one record per slot
    for s in run_shots(res.program, NOISELESS, 30, 0):
        assert len(s.outputs) == want


# -- exact enumeration --------------------------------------------------------------

def test_enumerate_h_measure():
    res = compile_src("block e:\n  h q0\n  mz q0 -> r0\n  output result r0\n  ret", qubits=1, results=1)
    dist = enumerate_outcomes(res.program)
    assert max_distribution_error(dist, {(0,): 0.5, (1,): 0.5}) < 1e-12


def test_enumeration_probabilities_sum_to_one():
    # the acceptance corpus in both transport modes: the emulator's enumerator
    # matches the module oracle, and forks exactly where the guarded oracle does
    for seed in range(200):
        m = random_program(seed, max_branches=3)
        want = oracle.enumerate_module(m)
        for mode in (CONDITIONAL, ALWAYS):
            res = compile_module(m, mode=mode)
            dist = enumerate_outcomes(res.program)
            assert abs(sum(dist.values()) - 1.0) < 1e-12
            assert max_distribution_error(dist, want) < 1e-12, (seed, mode)
            guarded = oracle.enumerate_guarded_leaves(res.guarded, m.required_qubits, m.required_results)
            assert len(enumerate_exec_leaves(res.program)) == len(guarded), (seed, mode)


@pytest.mark.parametrize("basis", BASES)
def test_msd2_enumerators_agree_without_ghost_leaves(basis):
    # an arm is live only when its own amplitude weight exceeds PRUNE_EPS, so
    # no enumerator keeps a rounding-noise arm with an all-zero state
    m = build_msd(MsdConfig(limit=2, basis=basis))
    res = compile_module(m)
    leaves = {
        "emulator": enumerate_exec_leaves(res.program),
        "module": oracle.enumerate_module_leaves(m),
        "guarded": oracle.enumerate_guarded_leaves(res.guarded, m.required_qubits, m.required_results),
    }
    assert len({len(v) for v in leaves.values()}) == 1, {k: len(v) for k, v in leaves.items()}
    for name, ls in leaves.items():
        assert min(leaf.prob for leaf in ls) >= 1e-12, name


def test_enumeration_split_into_small_batches_is_unchanged(monkeypatch):
    # a batch past ENUM_AMPLITUDES goes on in halves; MSD-2 has 482 paths of
    # 32 amplitudes, so a cap of 64 amplitudes splits it down to two rows
    res = compile_module(build_msd(MsdConfig(limit=2, basis="X")))
    whole = enumerate_outcomes(res.program)
    monkeypatch.setattr(emulator, "ENUM_AMPLITUDES", 64)
    assert len(enumerate_exec_leaves(res.program)) == 482
    assert max_distribution_error(enumerate_outcomes(res.program), whole) < 1e-12


@pytest.mark.parametrize("limit", [5, 8])
def test_branch_budget_stops_every_enumerator_quickly(limit):
    # MSD 5 and up need more than MAX_BRANCH_EVENTS forks on some path
    m = build_msd(MsdConfig(limit=limit, basis="X"))
    res = compile_module(m)
    calls = {
        "emulator": lambda: enumerate_outcomes(res.program),
        "module": lambda: oracle.enumerate_module(m),
        "guarded": lambda: oracle.enumerate_guarded(res.guarded, m.required_qubits, m.required_results),
    }
    for name, call in calls.items():
        t0 = time.perf_counter()
        with pytest.raises(oracle.TooManyBranches):
            call()
        assert time.perf_counter() - t0 < 1.0, name


def test_shot_frequencies_converge_to_enumeration():
    m = random_program(17)
    res = compile_module(m)
    dist = enumerate_outcomes(res.program)
    n = 20000
    freq = Counter(s.outputs for s in run_shots(res.program, NOISELESS, n, 77))
    for outcome, p in dist.items():
        got = freq.get(outcome, 0) / n
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(got - p) <= 4 * sigma + 1e-9, (outcome, got, p)


def test_enumeration_counts_transport():
    from ionflow.experiments import RusConfig, build_rus

    res = compile_module(build_rus(RusConfig(limit=2, style="loop")))
    leaves = enumerate_exec_leaves(res.program)
    avg_exact = sum(l.prob * l.executed_transport_steps for l in leaves)
    shots = run_shots(res.program, NOISELESS, 20000, 5)
    avg_mc = sum(s.executed_transport_steps for s in shots) / len(shots)
    assert abs(avg_exact - avg_mc) < 0.25


def test_false_guard_skips_or_keeps_transport_by_mode():
    # q0 deterministically measures 1, so the else-arm never runs. The
    # then-arm extends the unconditional entry chain (its transport runs in
    # both modes, gates stay conditional); the else-arm starts a fresh chain
    # guarded by its own predicate, so conditional mode drops its transport
    # and always mode keeps it.
    body = """
block e:
  x q0
  mz q0 -> r0
  %m = read_result r0
  br %m, hot, cold
block hot:
  cx q0, q2
  jmp done
block cold:
  cx q1, q2
  cx q0, q1
  jmp done
block done:
  output result r0
  ret
"""
    from ionflow.qccd import ALWAYS, TransportItem

    cond = compile_src(body, qubits=3, results=1)
    alw = compile_src(body, qubits=3, results=1, mode=ALWAYS)
    planned = cond.program.planned_transport_steps
    cold_steps = 0
    seen_layers = 0
    for item in cond.program.items:
        if isinstance(item, TransportItem) and item.guard is not True:
            cold_steps += len(item.steps)
    assert planned > 0 and 0 < cold_steps < planned
    sc = run_shots(cond.program, NOISELESS, 20, 0)
    sa = run_shots(alw.program, NOISELESS, 20, 0)
    assert all(s.executed_transport_steps == planned - cold_steps for s in sc)
    assert all(s.executed_transport_steps == planned for s in sa)
    assert all(s.skipped_blocks == 1 for s in sc)  # the dead arm
    assert all(a.outputs == c.outputs for a, c in zip(sa, sc))


def test_norm_drift_detected(monkeypatch):
    # a broken (non-unitary) gate matrix must trip the norm guard at the
    # next measurement instead of silently skewing probabilities
    res = compile_src("block e:\n  h q0\n  mz q0 -> r0\n  output result r0\n  ret", qubits=1, results=1)
    bad = np.array([[1.1, 0], [0, 1.1]], dtype=complex)
    real = G.gate_unitary
    monkeypatch.setattr(G, "gate_unitary", lambda name, angle=None: bad if name == "h" else real(name, angle))
    memo.clear_all()  # no cached segment may hold an earlier h's matrix in place of the bad one
    try:
        with pytest.raises(FloatingPointError):
            run_shots(res.program, NOISELESS, 1, 0)
    finally:
        memo.clear_all()  # and the bad one must not serve later tests


def test_fixed_gate_matrices_are_read_only():
    # gate_unitary hands these arrays to every caller, the emulator's cached segments included
    for name in ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx"):
        u = G.gate_unitary(name)
        assert not u.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0
    assert not G.I2.flags.writeable


def test_registers_are_sized_by_the_program_and_capped():
    # the batch's register array has one column per register the program names, not per register of the file
    res = compile_module(build_msd(MsdConfig(limit=1)))
    assert res.program.n_regs == 64
    assert emulator._compile_runtime(res.program, NOISELESS).n_regs == res.colors_used
    last = len(res.program.items) - 1
    for top, refused in ((65535, False), (65536, True)):
        writes, reads = BinOp("xor", PReg(top), 1, 1), BinOp("xor", PReg(0), PReg(top), 1)
        for names in (ClassicalItem(True, (writes,)), ClassicalItem(True, (reads,)), MarkItem(PReg(top), "far")):
            prog = _insert_after(res.program, last, names)
            if refused:
                with pytest.raises(IonflowError, match="^program uses 65537 registers; the emulator runs at most 65536$"):
                    emulator._compile_runtime(prog, NOISELESS)
            else:
                assert emulator._compile_runtime(prog, NOISELESS).n_regs == 65536
