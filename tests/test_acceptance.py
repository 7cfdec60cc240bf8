"""Acceptance suite: one test per criterion, pinned tolerances, printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Sampled checks use fixed master seeds; the emulator's determinism
contract makes them stable across machines and parallelism levels.
"""

import itertools
import math
import random
from collections import deque

import numpy as np
import pytest
import scipy.stats

from conftest import max_distribution_error, random_program
from ionflow import oracle, textir
from ionflow.cli import main as cli_main
from ionflow.emulator import NOISELESS, NoiseModel, enumerate_outcomes, run_shots
from ionflow.experiments import (
    MSD_SUCCESS_PROBABILITY,
    RUS_SUCCESS_PROBABILITY,
    MsdConfig,
    RusConfig,
    build_msd,
    build_rus,
    decode_record,
    ideal_reference,
    run_experiment,
)
from ionflow.ir import Vreg
from ionflow.passes import flatten, fold_constants, peephole
from ionflow.predication import if_convert
from ionflow.qccd import ALWAYS, GateLayer, PlacedOp, TrapLayout, plan_transport
from ionflow.regalloc import (
    RegisterPressureExceeded,
    build_interference,
    color,
    compute_liveness,
    rewrite,
)
from ionflow.toolchain import compile_module

SHOTS = 20000


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: MSD per-attempt success probability -------------------------------

def test_criterion_01_msd_attempt_probability():
    res = compile_module(build_msd(MsdConfig(limit=1, basis="Z")))
    dist = enumerate_outcomes(res.program)
    exact = sum(p for k, p in dist.items() if all(b == 0 for b in k[1:5]))
    shots = run_shots(res.program, NOISELESS, SHOTS, master_seed=101)
    sampled = sum(1 for s in shots if decode_record(s.outputs, "msd", 1)[0]) / SHOTS
    ok = abs(exact - 1 / 6) <= 1e-9 and abs(sampled - 1 / 6) <= 0.01
    report(
        "criterion 1 (MSD per-attempt success = 1/6)",
        ok,
        f"exact {exact:.12f} (|err| {abs(exact - 1/6):.2e} <= 1e-9), sampled {sampled:.4f} (+-0.01)",
    )


# -- criterion 2: MSD cumulative success table ---------------------------------------

@pytest.mark.parametrize("limit,table_pct", [(1, 16), (2, 30), (4, 47), (6, 65), (8, 75)])
def test_criterion_02_msd_cumulative_success(limit, table_pct):
    _res, shots, rep = run_experiment(MsdConfig(limit=limit, basis="Z"), SHOTS, seed=200 + limit)
    expect = ideal_reference("msd_cumulative", limit)
    ok = abs(rep.success_fraction - expect) <= 0.02
    report(
        f"criterion 2 (MSD cumulative success, N={limit})",
        ok,
        f"sampled {rep.success_fraction:.4f} vs 1-(5/6)^{limit} = {expect:.4f} (+-0.02); "
        f"reported table value ~{table_pct}%",
    )


# -- criterion 3: MSD ideal expectations ---------------------------------------------

@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_criterion_03_msd_expectations(basis):
    _res, shots, rep = run_experiment(MsdConfig(limit=2, basis=basis), SHOTS, seed=300 + ord(basis))
    got = {"X": rep.exp_x, "Y": rep.exp_y, "Z": rep.exp_z}[basis]
    ok = got is not None and abs(got - 0.5774) <= 0.02
    report(
        f"criterion 3 (MSD post-corrected <{basis}> = 0.5774)",
        ok,
        f"post-selected expectation {got:.4f} (+-0.02, {rep.success_count} heralded shots)",
    )


# -- criterion 4: RUS correctness -----------------------------------------------------

def attempt_counts(shots):
    """Attempts per RUS shot (stage-1 measurements all land on qubit 0)."""
    return [s.measures_per_qubit[0] for s in shots]


def test_criterion_04_rus_correctness():
    cfg = RusConfig(limit=8, basis="X", style="loop")
    res, shots, rep = run_experiment(cfg, SHOTS, seed=404)
    # exact per-attempt probability and survival from the enumeration oracle
    one = compile_module(build_rus(RusConfig(limit=1, basis="X")))
    dist = enumerate_outcomes(one.program)
    p_oracle = sum(p for k, p in dist.items() if k[1] == 0 and k[2] == 0)
    surv_exact = sum(p for k, p in dist.items() if k[1] == 0 and k[2] == 0 and k[3] == 0) / p_oracle

    decoded = [decode_record(s.outputs, "rus", cfg.limit) for s in shots]
    attempts = attempt_counts(shots)
    successes = sum(1 for d in decoded if d[0])
    p_hat = successes / sum(attempts)

    # attempts-to-success histogram vs the truncated geometric
    succ_attempts = [a for d, a in zip(decoded, attempts) if d[0]]
    k_max = cfg.limit
    observed = [succ_attempts.count(k) for k in range(1, k_max + 1)]
    trunc = 1 - (1 - p_oracle) ** k_max
    expected = [len(succ_attempts) * p_oracle * (1 - p_oracle) ** (k - 1) / trunc for k in range(1, k_max + 1)]
    chi = scipy.stats.chisquare(observed, expected)

    ok_surv = rep.survival is not None and rep.survival >= 0.999
    ok_exact = surv_exact >= 1 - 1e-9 and abs(p_oracle - RUS_SUCCESS_PROBABILITY) < 1e-9
    ok_p = abs(p_hat - p_oracle) <= 0.01
    ok_chi = chi.pvalue >= 0.01
    report(
        "criterion 4 (RUS correctness)",
        ok_surv and ok_exact and ok_p and ok_chi,
        f"survival {rep.survival:.5f} (>=0.999), oracle survival {surv_exact:.12f} (>=1-1e-9), "
        f"p_attempt {p_hat:.4f} vs oracle {p_oracle:.4f} (+-0.01), "
        f"geometric chi-square p={chi.pvalue:.3f} (alpha=0.01)",
    )


def test_criterion_04b_rus_state_vector_fidelity():
    # state-vector check before the final measurement: heralded success means
    # the target carries exactly V3 applied to the prepared state
    from ionflow import gates as G
    from ionflow.experiments import _prep_lines

    worst = 1.0
    for basis in ("X", "Y", "Z"):
        lines = [
            "module probe",
            "attrs required_qubits=3 required_results=2",
            "func @main() {",
            "block entry:",
            "  reset q2",
            *_prep_lines(basis, 2),
            "  t q2", "  z q2", "  reset q0", "  reset q1", "  h q0", "  h q1",
            "  tdg q0", "  cx q1, q0", "  t q0", "  h q0", "  mz q0 -> r0",
            "  cx q2, q1", "  t q1", "  h q1", "  mz q1 -> r1",
            "  output result r0", "  output result r1", "  ret", "}",
        ]
        m = textir.parse("\n".join(lines) + "\n")
        leaves = [l for l in oracle.enumerate_module_leaves(m) if l.slots == (0, 0)]
        state = leaves[0].state
        target = np.array([state[0], state[4]])
        target /= np.linalg.norm(target)
        u1 = {"Z": np.eye(2, dtype=complex), "X": G.H, "Y": G.S @ G.H}[basis]
        v3 = (np.eye(2) + 2j * G.Z) / math.sqrt(5)
        ideal = v3 @ (u1 @ np.array([1, 0], dtype=complex))
        worst = min(worst, abs(np.vdot(ideal, target)) ** 2)
    report(
        "criterion 4b (RUS heralded state fidelity with V3)",
        worst >= 1 - 1e-9,
        f"min fidelity over bases {worst:.15f} (>= 1-1e-9)",
    )


# -- criterion 5: CFG scaling ----------------------------------------------------------

def test_criterion_05_cfg_scaling():
    loop_counts, rec_counts = [], []
    for limit in range(1, 9):
        loop_counts.append(len(flatten(build_rus(RusConfig(limit=limit, style="loop"))).entry_function.blocks))
        rec_counts.append(len(flatten(build_rus(RusConfig(limit=limit, style="recursion"))).entry_function.blocks))

    def second_diffs(xs):
        d1 = [b - a for a, b in zip(xs, xs[1:])]
        return [b - a for a, b in zip(d1, d1[1:])]

    loop_d2 = second_diffs(loop_counts)
    rec_d2 = second_diffs(rec_counts)
    ok = all(x == 0 for x in loop_d2) and all(x > 0 for x in rec_d2)
    report(
        "criterion 5 (CFG scaling: loop affine, recursion superlinear)",
        ok,
        f"loop blocks {loop_counts} (2nd diffs {loop_d2}), recursion blocks {rec_counts} (2nd diffs {rec_d2})",
    )


# -- criterion 6: transport trends ------------------------------------------------------

def test_criterion_06_transport_trends():
    trend_shots = 1500
    loop_avg, rec_avg = [], []
    for limit in range(1, 9):
        lres = compile_module(build_rus(RusConfig(limit=limit, style="loop")))
        rres = compile_module(build_rus(RusConfig(limit=limit, style="recursion")))
        ls = run_shots(lres.program, NOISELESS, trend_shots, master_seed=600 + limit)
        rs = run_shots(rres.program, NOISELESS, trend_shots, master_seed=600 + limit)
        loop_avg.append(sum(s.executed_transport_steps for s in ls) / trend_shots)
        rec_avg.append(sum(s.executed_transport_steps for s in rs) / trend_shots)
    ok_ge = all(r >= l for r, l in zip(rec_avg, loop_avg))
    ok_strict = all(r > l for r, l in zip(rec_avg[3:], loop_avg[3:]))
    report(
        "criterion 6a (executed transport: recursion >= loop, strict for limit >= 4)",
        ok_ge and ok_strict,
        "loop " + str([round(x, 1) for x in loop_avg]) + ", recursion " + str([round(x, 1) for x in rec_avg]),
    )


def test_criterion_06b_always_mode_dominates():
    programs = [
        build_rus(RusConfig(limit=3, style="loop")),
        build_rus(RusConfig(limit=3, style="recursion")),
        build_msd(MsdConfig(limit=2)),
    ]
    worst_gap = None
    for mod in programs:
        cond = compile_module(mod)
        alw = compile_module(mod, mode=ALWAYS)
        cs = run_shots(cond.program, NOISELESS, 400, master_seed=66)
        as_ = run_shots(alw.program, NOISELESS, 400, master_seed=66)
        for c, a in zip(cs, as_):
            assert a.outputs == c.outputs  # mode changes transport only
            gap = a.executed_transport_steps - c.executed_transport_steps
            worst_gap = gap if worst_gap is None else min(worst_gap, gap)
    report(
        "criterion 6b (always-transport >= conditional, exact per shot)",
        worst_gap is not None and worst_gap >= 0,
        f"minimum per-shot (always - conditional) transport gap {worst_gap}",
    )


# -- criterion 7: basis sensitivity to transport dephasing --------------------------------

def test_criterion_07_basis_sensitivity():
    noise = NoiseModel(p_transport=0.01)
    surv, err = {}, {}
    for basis in ("X", "Y", "Z"):
        _res, shots, rep = run_experiment(RusConfig(limit=4, basis=basis, style="loop"), SHOTS, seed=700, noise=noise)
        decoded = [decode_record(s.outputs, "rus", 4) for s in shots]
        succ = [d for d in decoded if d[0]]
        zeros = sum(1 for d in succ if d[1] == 0)
        p = zeros / len(succ)
        surv[basis] = p
        err[basis] = math.sqrt(p * (1 - p) / len(succ))
    ok = True
    details = []
    for other in ("X", "Y"):
        gap = surv["Z"] - surv[other]
        sigma = math.sqrt(err["Z"] ** 2 + err[other] ** 2)
        details.append(f"Z-{other} gap {gap:.4f} = {gap / sigma:.1f} sigma")
        ok = ok and gap >= 3 * sigma
    report(
        "criterion 7 (transport dephasing hits X/Y, spares Z)",
        ok,
        f"survival X {surv['X']:.4f}, Y {surv['Y']:.4f}, Z {surv['Z']:.4f}; " + ", ".join(details),
    )


# -- criterion 8: register allocation ------------------------------------------------------

def test_criterion_08_register_allocation():
    rng = random.Random(808)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 40)
        ranges = {}
        for i in range(n):
            s = rng.randint(0, 80)
            ranges[Vreg(f"v{i}")] = (s, s + rng.randint(1, 14))
        graph = build_interference(ranges)
        try:
            rf = color(graph, 16)
        except RegisterPressureExceeded:
            continue
        for e in graph.edges:
            a, b = tuple(e)
            assert rf.assignment[a] != rf.assignment[b]
        checked += 1

    clique = {Vreg(f"c{i}"): (0, 10) for i in range(5)}
    try:
        color(build_interference(clique), 4)
        clique_fails = False
    except RegisterPressureExceeded:
        clique_fails = True

    res = compile_module(build_rus(RusConfig(limit=3, style="recursion")), registers=32)
    report(
        "criterion 8 (coloring valid; 5-clique@K=4 fails; recursion-3 fits K=32)",
        checked >= 400 and clique_fails and res.colors_used <= 32,
        f"{checked}/500 interval sets colored and verified, 5-clique raised pressure error, "
        f"recursion limit 3 used {res.colors_used} colors",
    )


# -- criteria 9 and 10: equivalence across the pipeline -------------------------------------

def _corpus():
    return [random_program(seed, max_branches=3) for seed in range(200)]


def test_criterion_09_if_conversion_equivalence():
    worst = 0.0
    for m in _corpus():
        base = oracle.enumerate_module(m)
        gf = if_convert(m.entry_function)
        after = oracle.enumerate_guarded(gf, m.required_qubits, m.required_results)
        worst = max(worst, max_distribution_error(base, after))
    report(
        "criterion 9 (if-conversion exact on 200 random programs)",
        worst < 1e-12,
        f"max outcome-probability deviation {worst:.2e} (< 1e-12)",
    )


def test_criterion_10_pass_soundness():
    worst = {"fold": 0.0, "flatten": 0.0, "peephole": 0.0, "regalloc": 0.0}
    for m in _corpus():
        base = oracle.enumerate_module(m)
        worst["fold"] = max(worst["fold"], max_distribution_error(base, oracle.enumerate_module(fold_constants(m))))
        worst["flatten"] = max(worst["flatten"], max_distribution_error(base, oracle.enumerate_module(flatten(m))))
        worst["peephole"] = max(worst["peephole"], max_distribution_error(base, oracle.enumerate_module(peephole(m))))
        gf = if_convert(m.entry_function)
        rf = color(build_interference(compute_liveness(gf)), 64)
        rgf = rewrite(gf, rf)
        after = oracle.enumerate_guarded(rgf, m.required_qubits, m.required_results)
        worst["regalloc"] = max(worst["regalloc"], max_distribution_error(base, after))
    ok = all(v < 1e-12 for v in worst.values())
    report(
        "criterion 10 (pass soundness on the same corpus)",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


# -- criterion 11: transport planner optimality ----------------------------------------------

def _oracle_min_steps(start, goal_fn, slots):
    pairs = [(s, s + 1) for s in range(slots - 1)]
    moves = []
    for r in range(1, slots // 2 + 1):
        for combo in itertools.combinations(pairs, r):
            flat = [x for p in combo for x in p]
            if len(set(flat)) == len(flat):
                moves.append(combo)
    seen = {start}
    q = deque([(start, 0)])
    while q:
        pl, d = q.popleft()
        if goal_fn(pl):
            return d
        for mv in moves:
            out = list(pl)
            for a, b in mv:
                for i, s in enumerate(out):
                    if s == a:
                        out[i] = b
                    elif s == b:
                        out[i] = a
            nxt = tuple(out)
            if nxt not in seen:
                seen.add(nxt)
                q.append((nxt, d + 1))
    raise AssertionError("no path")


def test_criterion_11_transport_planner_optimality():
    rng = random.Random(1111)
    checked = 0
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        trap = TrapLayout.default(n)
        start = list(range(n))
        rng.shuffle(start)
        start = tuple(start)
        zone = rng.choice(trap.gate_zones)
        if n >= 2 and rng.random() < 0.6:
            a, b = rng.sample(range(n), 2)
            layer = GateLayer((PlacedOp("gate", "cx", (a, b), None, None, zone),))
        else:
            (a,) = rng.sample(range(n), 1)
            layer = GateLayer((PlacedOp("reset", None, (a,), None, None, zone),))

        steps, placement = plan_transport(start, layer, trap)

        def goal(pl, layer=layer):
            op = layer.ops[0]
            got = {pl[q] for q in op.qubits}
            zs = set(op.zone)
            return got == zs if len(op.qubits) == 2 else got <= zs

        assert goal(placement)
        assert len(steps) == _oracle_min_steps(start, goal, trap.slots)
        checked += 1
    report(
        "criterion 11 (transport plans optimal for <= 5 ions)",
        checked == 100,
        f"{checked}/100 random layer goals matched the brute-force shortest path",
    )


# -- criterion 12: determinism ---------------------------------------------------------------

def test_criterion_12_cli_determinism(tmp_path):
    outputs = []
    for jobs in ("1", "2", "5"):
        f = tmp_path / f"rep{jobs}.csv"
        rc = cli_main(
            [
                "experiment", "rus", "--limit", "4", "--basis", "Y", "--style", "recursion",
                "--shots", "800", "--seed", "1212", "--noiseless", "--jobs", jobs,
                "--csv", str(f),
            ]
        )
        assert rc == 0
        outputs.append(f.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        "criterion 12 (byte-identical CSV at any parallelism)",
        ok,
        f"3 invocations (jobs 1/2/5), {len(outputs[0])} bytes each, identical",
    )
