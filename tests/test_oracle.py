"""The oracle's numbered form on its edge cases, each against a hand-computed
distribution, and the oracle's independence from the emulator."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from ionflow import gates, oracle
from ionflow.ir import (
    BasicBlock, Branch, Function, IonflowError, Jump, Measure, Module, Output, QGate, ReadResult, Return, Vreg,
)
from ionflow.predication import OrVal
from ionflow.textir import parse


def wrap(body: str, qubits: int = 2, results: int = 2) -> str:
    return f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\n{body}\n}}\n"


def close(dist: dict, expected: dict) -> bool:
    return dist.keys() == expected.keys() and all(math.isclose(dist[k], p, abs_tol=1e-12) for k, p in expected.items())


# Each of %x and %y takes the other's value on the back edge. The loop header
# runs three times: (x, y) = (1, 0), then (0, 1), then (1, 0). Copied one
# phi after the other, both would read 0 from the second entry on.
PHI_SWAP = """block e:
  jmp l
block l:
  %x = phi [true, e], [%y, l]
  %y = phi [false, e], [%x, l]
  %i = phi [0, e], [%j, l]
  %j = add %i, 1
  %more = cmp lt %j, 3
  br %more, l, d
block d:
  br %x, fx, gy
block fx:
  x q0
  jmp gy
block gy:
  br %y, fy, m
block fy:
  x q1
  jmp m
block m:
  mz q0 -> r0
  mz q1 -> r1
  output result r0
  output result r1
  ret"""


def test_phi_set_is_one_parallel_copy():
    assert close(oracle.enumerate_module(parse(wrap(PHI_SWAP))), {(1, 0): 1.0})


# %v has no incoming from b, the block taken when r0 reads 0, so it reads False there.
PHI_WITHOUT_INCOMING = """block e:
  h q0
  mz q0 -> r0
  %m = read_result r0
  br %m, a, b
block a:
  jmp c
block b:
  jmp c
block c:
  %v = phi [true, a]
  br %v, f, g
block f:
  x q1
  jmp g
block g:
  mz q1 -> r1
  output result r0
  output result r1
  ret"""


def test_phi_without_an_incoming_from_the_taken_edge_reads_false():
    assert close(oracle.enumerate_module(parse(wrap(PHI_WITHOUT_INCOMING))), {(0, 0): 0.5, (1, 1): 0.5})


# %u is never written: it reads False, so add gives 2, and the branch on it
# takes its else arm.
UNWRITTEN = """block e:
  %k = add %u, 2
  %two = cmp eq %k, 2
  br %two, a, b
block a:
  x q0
  jmp b
block b:
  br %u, c, d
block c:
  x q1
  jmp d
block d:
  mz q0 -> r0
  mz q1 -> r1
  output result r0
  output result r1
  ret"""


def test_register_never_written_reads_false():
    assert close(oracle.enumerate_module(parse(wrap(UNWRITTEN))), {(1, 0): 1.0})


# @f flips %b once per level of recursion and measures %a in |+> at the
# bottom, so the fork happens four frames deep and each arm returns through
# every frame above it.
RECURSIVE_CALL = """module t
attrs required_qubits=2 required_results=2
func @main() {
block e:
  call @f(q0, q1, 3)
  mz q1 -> r1
  output result r0
  output result r1
  ret
}
func @f(%a: qubit, %b: qubit, %k: int) {
block s:
  %c = cmp gt %k, 0
  br %c, rec, base
block rec:
  x %b
  %k1 = sub %k, 1
  call @f(%a, %b, %k1)
  jmp done
block base:
  h %a
  mz %a -> r0
  jmp done
block done:
  ret
}
"""


@pytest.mark.parametrize("depth, flipped", [(3, 1), (2, 0)])
def test_call_with_qubit_and_classical_args_recurses(depth, flipped):
    m = parse(RECURSIVE_CALL.replace("q1, 3)", f"q1, {depth})"))
    assert close(oracle.enumerate_module(m), {(0, flipped): 0.5, (1, flipped): 0.5})


def _module(blocks, qubits: int = 2, results: int = 2) -> Module:
    return Module("t", (Function("main", (), tuple(blocks)),), "main", qubits, results)


def _or_branch_module(cond) -> Module:
    m = Vreg("m")
    return _module([
        BasicBlock("e", (), (QGate("h", (0,)), Measure(0, 0), ReadResult(m, 0)), Branch(cond, "a", "b")),
        BasicBlock("a", (), (QGate("x", (1,)),), Jump("b")),
        BasicBlock("b", (), (Measure(1, 1), Output("result", 0), Output("result", 1)), Return()),
    ])


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((False, Vreg("m")), {(0, 0): 0.5, (1, 1): 0.5}),
        ((True, Vreg("m")), {(0, 1): 0.5, (1, 1): 0.5}),
        ((False, False), {(0, 0): 0.5, (1, 0): 0.5}),
        ((Vreg("never"), False, Vreg("m")), {(0, 0): 0.5, (1, 1): 0.5}),
    ],
    ids=["false-or-m", "true-or-m", "false-or-false", "unset-or-false-or-m"],
)
def test_branch_on_an_or_of_bools_and_registers(parts, expected):
    assert close(oracle.enumerate_module(_or_branch_module(OrVal(parts))), expected)


def _bool_qubit_module(prepare: tuple, bad) -> Module:
    """Measures q0 after ``prepare``; only a 1 leads to block ``bad``, which runs ``bad``."""
    m = Vreg("m")
    return _module([
        BasicBlock("e", (), (*prepare, Measure(0, 0), ReadResult(m, 0)), Branch(m, "bad", "end")),
        BasicBlock("bad", (), (bad,), Jump("end")),
        BasicBlock("end", (), (Output("result", 0),), Return()),
    ])


@pytest.mark.parametrize(
    "bad", [QGate("x", (True,)), QGate("cx", (0, False)), Measure(True, 1)], ids=["gate", "cx", "measure"]
)
def test_bool_qubit_operand_raises_only_when_reached(bad):
    assert close(oracle.enumerate_module(_bool_qubit_module((), bad)), {(0,): 1.0})
    with pytest.raises(IonflowError, match=r"^unresolved qubit operand (True|False)$"):
        oracle.enumerate_module(_bool_qubit_module((QGate("h", (0,)),), bad))


def _repeated_coin(events: int) -> Module:
    """Measures q0 in |+> or |-> until it reads 0, at most ``events`` times."""
    return parse(wrap(f"""block e:
  jmp l
block l:
  %i = phi [0, e], [%j, n]
  h q0
  mz q0 -> r0
  %m = read_result r0
  br %m, n, d
block n:
  %j = add %i, 1
  %more = cmp lt %j, {events}
  br %more, l, d
block d:
  output result r0
  ret""", qubits=1, results=1))


def test_branch_budget_holds_at_the_same_event_count():
    # only the all-ones path keeps forking, so a path reaches k events with k + 1 leaves
    leaves = oracle.enumerate_module_leaves(_repeated_coin(oracle.MAX_BRANCH_EVENTS))
    expected = [2.0**-k for k in range(1, oracle.MAX_BRANCH_EVENTS + 1)] + [2.0**-oracle.MAX_BRANCH_EVENTS]
    assert [leaf.prob for leaf in leaves] == pytest.approx(expected, abs=1e-15)
    assert [leaf.outputs for leaf in leaves] == [(0,)] * oracle.MAX_BRANCH_EVENTS + [(1,)]
    with pytest.raises(oracle.TooManyBranches):
        oracle.enumerate_module(_repeated_coin(oracle.MAX_BRANCH_EVENTS + 1))


def test_oracle_imports_nothing_from_the_emulator():
    # the oracle is the emulator's independent reference, so it shares none of its kernels
    tree = ast.parse((Path(oracle.__file__)).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(("." * node.level) + (node.module or ""))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("emulator" in name for name in imported), sorted(imported)


# -- the phase check ------------------------------------------------------------


def _old_equal_up_to_phase(a, b, tol=1e-9):
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[idx]) < tol and abs(b[idx]) < tol:
        return bool(np.allclose(a, b, atol=tol))
    if abs(b[idx]) < tol:
        return False
    phase = a[idx] / b[idx]
    if not math.isclose(abs(phase), 1.0, abs_tol=1e-9):
        return False
    return bool(np.allclose(a, phase * b, atol=tol))


def _phase_cases():
    rng = np.random.default_rng(1717)
    for shape in ((8,), (4, 4), (32,)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        yield a, phase * a  # equal up to phase
        yield a, a + 1e-3  # not equal
        yield a, phase * a + rng.normal(size=shape) * 1e-10  # equal within tol
        # the smallest entry off by about the bound, and by one ulp either side
        # of it; the pivot, the largest entry, stays equal, so the phase is 1
        j = np.argmin(np.abs(a))
        bound = 1e-9 + 1e-5 * abs(a.flat[j])
        for off in (bound, np.nextafter(bound, 0), np.nextafter(bound, 1)):
            c = a.copy()
            c.flat[j] += off
            yield c, a
        tiny = a * 1e-11  # the largest entry of both below tol: compared without a phase
        yield tiny, tiny * 1j
        yield tiny, tiny + 2e-9
        yield a, np.zeros_like(a)  # the pivot of b below tol
        for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.inf)):
            c = a.copy()
            c.flat[j] = bad  # not the pivot of a
            yield c, c.copy()
            yield a, c
            yield c, a


def test_phase_check_is_the_allclose_form():
    results = []
    with np.errstate(invalid="ignore"):  # the old form's own phase division may meet inf / inf
        for a, b in _phase_cases():
            got = gates.equal_up_to_phase(a, b)
            assert got == _old_equal_up_to_phase(a, b), (a, b)
            results.append(got)
            for tol in (1e-9, 1e-3):
                assert gates._allclose(a, b, tol) == np.allclose(a, b, atol=tol), (a, b, tol)
    assert any(results) and not all(results)
