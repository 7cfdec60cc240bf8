import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from ionflow import oracle, textir
from ionflow.emulator import _DECODE, H1E_LIKE, MAX_BATCH_AMPLITUDES, SHOT_BATCH, ShotBatch, enumerate_outcomes
from ionflow.experiments import (
    ALPHA,
    CSV_HEADER,
    IDEAL_MAGIC_EXPECTATION,
    MSD_CORRECTION,
    MAX_MSD_LIMIT,
    MSD_SUCCESS_PROBABILITY,
    PHI,
    RUS_SUCCESS_PROBABILITY,
    THETA,
    EmptyInput,
    ExperimentReport,
    MsdConfig,
    RusConfig,
    build_msd,
    build_rus,
    decode_record,
    ideal_reference,
    run_experiment,
    summarize,
)
from ionflow.ir import IonflowError, diagnostics_ok, validate_profile
from ionflow.toolchain import compile_module, run_passes


def test_constants():
    assert math.isclose(PHI, math.acos(1 / math.sqrt(3)))
    assert THETA == math.pi / 4
    assert ALPHA == 2 * math.atan(2)
    assert repr(ALPHA) == "2.214297435588181"


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_msd_builder_validates(limit, basis):
    m = build_msd(MsdConfig(limit=limit, basis=basis))
    flat = run_passes(m)
    assert diagnostics_ok(validate_profile(flat, strict=True))


@pytest.mark.parametrize("style", ["loop", "recursion"])
@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_rus_builder_validates_all_limits(style, basis):
    for limit in range(1, 9):
        m = build_rus(RusConfig(limit=limit, basis=basis, style=style))
        flat = run_passes(m)
        assert diagnostics_ok(validate_profile(flat, strict=True))


def test_styles_execute_identical_gates_per_attempt():
    # with every attempt succeeding or failing identically, loop and recursion
    # runs must apply the same number of gates; compare the single-attempt
    # success path exactly
    lres = compile_module(build_rus(RusConfig(limit=1, style="loop")))
    rres = compile_module(build_rus(RusConfig(limit=1, style="recursion")))
    ldist = enumerate_outcomes(lres.program)
    rdist = enumerate_outcomes(rres.program)
    from conftest import max_distribution_error

    assert max_distribution_error(ldist, rdist) < 1e-12


def test_msd_single_attempt_is_one_sixth():
    res = compile_module(build_msd(MsdConfig(limit=1)))
    dist = enumerate_outcomes(res.program)
    p = sum(v for k, v in dist.items() if all(b == 0 for b in k[1:5]))
    assert abs(p - MSD_SUCCESS_PROBABILITY) < 1e-9


def test_msd_n0_measures_raw_magic_state():
    for basis in ("X", "Y", "Z"):
        res = compile_module(build_msd(MsdConfig(limit=0, basis=basis)))
        dist = enumerate_outcomes(res.program)
        p0 = sum(v for k, v in dist.items() if k[1] == 0)
        assert abs((2 * p0 - 1) - IDEAL_MAGIC_EXPECTATION) < 1e-9


def test_msd_correction_is_the_unique_best_clifford():
    """Regression for the frozen correction: search all 24 single-qubit
    Cliffords against the oracle's heralded output state."""
    src_lines = build_msd(MsdConfig(limit=1))
    # drop the correction: rebuild a variant program that stops after heralding
    text = textir.emit(src_lines)
    # enumerate the compiled program's pre-correction state instead: take the
    # module-level oracle leaves of a correction-free build
    from ionflow.experiments import DECODER_GATES, _fmt

    lines = ["module probe", "attrs required_qubits=5 required_results=4", "func @main() {", "block round1:"]
    for q in range(5):
        lines.append(f"  ry({_fmt(PHI)}) q{q}")
        lines.append(f"  rz({_fmt(THETA)}) q{q}")
    for name, qubits in DECODER_GATES:
        lines.append(f"  {name} " + ", ".join(f"q{q}" for q in qubits))
    for j in range(4):
        lines.append(f"  mz q{j + 1} -> r{j}")
    lines += ["  output array_start"]
    lines += [f"  output result r{j}" for j in range(4)]
    lines += ["  output array_end", "  ret", "}"]
    m = textir.parse("\n".join(lines) + "\n")
    leaves = [l for l in oracle.enumerate_module_leaves(m) if all(b == 0 for b in l.slots)]
    assert len(leaves) == 1
    state = leaves[0].state
    out = np.array([state[0], state[1]])  # syndrome qubits collapsed to |0000>
    out /= np.linalg.norm(out)
    a = G_ry(PHI) @ np.array([1, 0], dtype=complex)
    a = G_rz(THETA) @ a

    best, best_name = -1.0, None
    for name, mat in _all_single_qubit_cliffords():
        f = abs(np.vdot(a, mat @ out)) ** 2
        if f > best + 1e-12:
            best, best_name = f, name
    frozen = np.eye(2, dtype=complex)
    from ionflow import gates as G

    for gname, _q in MSD_CORRECTION:
        frozen = G.gate_unitary(gname) @ frozen
    f_frozen = abs(np.vdot(a, frozen @ out)) ** 2
    assert f_frozen > 1 - 1e-9
    assert abs(f_frozen - best) < 1e-9


def G_ry(t):
    from ionflow import gates as G

    return G.ry(t)


def G_rz(t):
    from ionflow import gates as G

    return G.rz(t)


def _all_single_qubit_cliffords():
    from ionflow import gates as G

    def key(M):
        flat = M.flatten()
        i = int(np.argmax(np.abs(flat) > 1e-9))
        return tuple(np.round(flat / flat[i], 6))

    seen = {}
    q = deque([((), np.eye(2, dtype=complex))])
    while q:
        name, M = q.popleft()
        k = key(M)
        if k in seen:
            continue
        seen[k] = (name, M)
        for g in ("h", "s"):
            q.append((name + (g,), G.gate_unitary(g) @ M))
    assert len(seen) == 24
    return seen.values()


def test_rus_attempt_probability_matches_frozen_constant():
    for basis in ("X", "Y", "Z"):
        res = compile_module(build_rus(RusConfig(limit=1, basis=basis)))
        dist = enumerate_outcomes(res.program)
        p = sum(v for k, v in dist.items() if k[1] == 0 and k[2] == 0)
        assert abs(p - RUS_SUCCESS_PROBABILITY) < 1e-9


def test_rus_success_branch_state_is_v3_exactly():
    """State-vector check: on herald, the target carries V3 (prepared state)."""
    for basis, prep in (("Z", np.eye(2)), ("X", None), ("Y", None)):
        lines = [
            "module probe",
            "attrs required_qubits=3 required_results=2",
            "func @main() {",
            "block entry:",
            "  reset q2",
        ]
        from ionflow.experiments import _prep_lines

        lines += _prep_lines(basis, 2)
        lines += ["  t q2", "  z q2", "  reset q0", "  reset q1", "  h q0", "  h q1"]
        lines += ["  tdg q0", "  cx q1, q0", "  t q0", "  h q0", "  mz q0 -> r0"]
        lines += ["  cx q2, q1", "  t q1", "  h q1", "  mz q1 -> r1"]
        lines += ["  output result r0", "  output result r1", "  ret", "}"]
        m = textir.parse("\n".join(lines) + "\n")
        leaves = [l for l in oracle.enumerate_module_leaves(m) if l.slots == (0, 0)]
        assert len(leaves) == 1
        state = leaves[0].state
        target = np.array([state[0], state[4]])  # ancillas collapsed to |00>
        target /= np.linalg.norm(target)
        from ionflow import gates as G

        u1 = {"Z": np.eye(2, dtype=complex), "X": G.H, "Y": G.S @ G.H}[basis]
        v3 = (np.eye(2) + 2j * G.Z) / math.sqrt(5)
        ideal = v3 @ (u1 @ np.array([1, 0], dtype=complex))
        fidelity = abs(np.vdot(ideal, target)) ** 2
        assert fidelity > 1 - 1e-9


# -- statistics -----------------------------------------------------------------

def _shots(*records: tuple) -> ShotBatch:
    """Hand-built shots with the given output records and no other activity."""
    codes = np.full((len(records), max(map(len, records))), -1, np.int8)
    for row, record in zip(codes, records):
        row[: len(record)] = [_DECODE.index(v) for v in record]
    zero = np.zeros(len(records), np.int64)
    return ShotBatch(codes, zero, zero, zero, np.zeros((len(records), 1), np.int64))


def _rus(m0: int, m1: int, final: int) -> tuple:
    return ("(", m0, m1, final, ")")


def test_expectation_of_balanced_bits_is_zero():
    # direct formula check on constructed outcome lists
    assert summarize(_shots(_rus(0, 0, 0), _rus(0, 0, 0), _rus(0, 0, 1), _rus(0, 0, 1)), "rus", "Z", 1).exp_z == 0.0
    assert summarize(_shots(_rus(0, 0, 0)), "rus", "Z", 1).exp_z == 1.0
    assert summarize(_shots(_rus(0, 0, 1)), "rus", "Z", 1).exp_z == -1.0


def test_decode_record_reads_result_bits_of_both_families():
    assert decode_record(("[", 0, 0, 0, 0, 1, "]"), "msd", 3) == (True, 1)
    assert decode_record(("[", 0, 0, 1, 0, 0, "]"), "msd", 3) == (False, 0)
    assert decode_record(("[", 1, "]"), "msd", 0) == (True, 1)
    assert decode_record(("[", 0, "]"), "msd", 0) == (True, 0)
    assert decode_record(_rus(0, 0, 1), "rus", 2) == (True, 1)
    assert decode_record(_rus(0, 1, 0), "rus", 2) == (False, 0)
    assert decode_record(_rus(1, 0, 1), "rus", 2) == (False, 1)
    with pytest.raises(IonflowError, match="unknown experiment 'bogus'"):
        decode_record(_rus(0, 0, 0), "bogus", 1)


def test_summarize_with_no_heralded_shot():
    msd = summarize(_shots(("[", 0, 1, 0, 0, 0, "]"), ("[", 1, 1, 1, 1, 1, "]")), "msd", "X", 2)
    rus = summarize(_shots(_rus(1, 0, 0), _rus(0, 1, 1), _rus(1, 1, 0)), "rus", "Y", 1)
    for rep in (msd, rus):
        assert rep.success_count == 0 and rep.success_fraction == 0.0
        assert (rep.exp_x, rep.exp_y, rep.exp_z, rep.survival) == (None, None, None, None)
    assert msd.exp_x_uncond == 0.0 and rus.exp_y_uncond == 1 / 3


def test_summarize_msd_limit_zero_heralds_every_shot():
    rep = summarize(_shots(("[", 0, "]"), ("[", 1, "]"), ("[", 0, "]"), ("[", 0, "]")), "msd", "Z", 0)
    assert rep.success_count == 4 and rep.success_fraction == 1.0
    assert rep.exp_z == rep.exp_z_uncond == 0.5 and rep.survival is None


@pytest.mark.parametrize("cfg", [MsdConfig(0, "X"), MsdConfig(2, "Y"), RusConfig(2, "Z", "loop"), RusConfig(3, "X", "recursion")])
def test_summarize_matches_a_per_shot_count(cfg):
    _res, shots, rep = run_experiment(cfg, 600, seed=5, noise=H1E_LIKE)
    experiment = "msd" if isinstance(cfg, MsdConfig) else "rus"
    decoded = [decode_record(s.outputs, experiment, cfg.limit) for s in shots]
    post = [bit for ok, bit in decoded if ok]
    every = [bit for _ok, bit in decoded]
    assert rep.success_count == len(post) and rep.shots == len(shots)
    assert getattr(rep, f"exp_{cfg.basis.lower()}") == (post.count(0) - post.count(1)) / len(post)
    assert getattr(rep, f"exp_{cfg.basis.lower()}_uncond") == (every.count(0) - every.count(1)) / len(every)
    assert rep.survival == (post.count(0) / len(post) if experiment == "rus" else None)
    assert rep.avg_transport == sum(s.executed_transport_steps for s in shots) / len(shots)
    # Python numbers only: numpy 2 would print a numpy scalar into the CSV as np.float64(...)
    assert {type(v) for v in dataclasses.asdict(rep).values()} <= {int, float, str, type(None)}


def test_all_success_shots_make_post_equal_uncond():
    # Z-basis RUS is noiseless-stable: survival exact, and when every shot
    # succeeds the post-selected and unconditional expectations coincide
    _res, shots, report = run_experiment(RusConfig(limit=8, basis="Z"), 300, seed=2)
    succ = [decode_record(s.outputs, "rus", 8)[0] for s in shots]
    if all(succ):
        assert report.exp_z == report.exp_z_uncond


def test_summarize_empty_raises():
    with pytest.raises(EmptyInput):
        summarize([], "rus", "Z", 1)


def test_ideal_reference_values():
    assert abs(ideal_reference("msd_cumulative", 1) - 1 / 6) < 1e-12
    assert abs(ideal_reference("msd_cumulative", 6) - 0.6651020233196159) < 1e-12
    assert abs(ideal_reference("msd_expectation") - 0.5773502691896258) < 1e-15
    assert ideal_reference("rus_survival") == 1.0


def test_csv_row_matches_header_arity():
    _res, _shots, report = run_experiment(RusConfig(limit=1, basis="X"), 50, seed=1)
    assert len(report.csv_row().split(",")) == len(CSV_HEADER.split(","))


def test_msd_decode_success_flag():
    _res, shots, report = run_experiment(MsdConfig(limit=2, basis="Z"), 400, seed=3)
    by_hand = sum(1 for s in shots if all(b == 0 for b in s.outputs[1:5])) / len(shots)
    assert report.success_fraction == by_hand


def test_msd_limit_is_bounded_by_the_emulator_result_slots():
    # limit L declares 4L + 1 result slots; the bound is the largest limit the emulator runs
    assert MAX_MSD_LIMIT == 16383
    assert 4 * MAX_MSD_LIMIT + 1 <= MAX_BATCH_AMPLITUDES // SHOT_BATCH < 4 * (MAX_MSD_LIMIT + 1) + 1
    assert MsdConfig(limit=MAX_MSD_LIMIT).limit == MAX_MSD_LIMIT  # constructs; not built or run here
    with pytest.raises(IonflowError, match=r"^limit must be <= 16383, got 16384$"):
        MsdConfig(limit=MAX_MSD_LIMIT + 1)
