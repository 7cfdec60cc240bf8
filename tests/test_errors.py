"""One error type for rejected input, and the CLI's error contract under fuzzing."""

import contextlib
import io
import json
import math
import re
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionflow import emulator
from ionflow.cli import main
from ionflow.emulator import MAX_JOBS, MAX_SHOTS, NoiseModel, ZoneViolation
from ionflow.experiments import EmptyInput
from ionflow.ir import CycleDetected, IonflowError
from ionflow.oracle import TooManyBranches
from ionflow.passes import BudgetExceeded
from ionflow.predication import NonSSA
from ionflow.qccd import MAX_TRAP_SLOTS, TrapLayout, Unreachable
from ionflow.regalloc import RegisterPressureExceeded
from ionflow.textir import ParseError
from ionflow.toolchain import CompileError


def test_rejected_input_errors_share_one_base():
    rejected = (
        ParseError, CompileError, BudgetExceeded, RegisterPressureExceeded, TooManyBranches, CycleDetected, NonSSA,
        EmptyInput,
    )
    assert all(issubclass(e, IonflowError) for e in rejected)
    assert issubclass(IonflowError, ValueError)  # code that catches ValueError still catches a bad config
    # reaching one of these is a bug, so the CLI lets it end in a traceback
    assert not any(issubclass(e, IonflowError) for e in (ZoneViolation, Unreachable, FloatingPointError))


@pytest.mark.parametrize(
    "cls, kwargs, text, message",
    [
        (NoiseModel, {"p1": True}, '{"p1": true}', "p1=True is not a number"),
        (NoiseModel, {"p1": "x"}, '{"p1": "x"}', "p1='x' is not a number"),
        (NoiseModel, {"p_idle": 1.5}, '{"p_idle": 1.5}', "p_idle=1.5 outside [0, 1]"),
        (NoiseModel, {"prep_overrotation": math.nan}, '{"prep_overrotation": NaN}', "prep_overrotation=nan is not finite"),
        (TrapLayout, {"slots": 8.0, "gate_zones": ((0, 1),)}, '{"slots": 8.0, "gate_zones": [[0, 1]]}', "trap slots must be an int, got 8.0"),
        (TrapLayout, {"slots": 8, "gate_zones": ((0, 2),)}, '{"slots": 8, "gate_zones": [[0, 2]]}', "gate zone (0,2) is not an adjacent pair"),
        (TrapLayout, {"slots": 4097, "gate_zones": ((0, 1),)}, '{"slots": 4097, "gate_zones": [[0, 1]]}', "trap slots=4097 above the maximum 4096"),
    ],
    ids=["bool", "string", "probability", "nan", "float-slots", "zone", "wide-trap"],
)
def test_config_rule_is_the_same_built_directly_and_from_json(cls, kwargs, text, message):
    for make in (lambda: cls(**kwargs), lambda: cls.from_json(text)):
        with pytest.raises(IonflowError, match="^" + re.escape(message) + "$"):
            make()


def test_trap_from_json_equals_the_trap_built_directly():
    assert TrapLayout.from_json('{"slots": 6, "gate_zones": [[0, 1], [4, 5]]}') == TrapLayout(6, ((0, 1), (4, 5)))


# -- the CLI never raises: it exits 0, or 1 with a last stderr line "error: ..." ----

PROGRAM = """module t
attrs required_qubits=2 required_results=2
func @main() {
block e:
  h q0
  rz(0.5) q1
  mz q0 -> r0
  %m = read_result r0
  br %m, a, b
block a:
  cx q0, q1
  jmp b
block b:
  jmp loop
repeat 2 loop {
block body:
  x q1
  jmp next
}
block after:
  mz q1 -> r1
  output result r0
  output result r1
  ret
}
"""

NOISE_KEYS = ("p1", "p2", "p_meas", "p_reset", "p_transport", "p_idle", "prep_overrotation", "p_bogus")
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json = st.recursive(_scalars, lambda c: st.lists(c, max_size=3) | st.dictionaries(st.text(max_size=4), c, max_size=3), max_leaves=6)
_numbers = st.floats() | st.integers(-3, 3) | st.sampled_from([0.001, 0.5, 1.0, 10**400])
_noise_json = st.dictionaries(st.sampled_from(NOISE_KEYS), _numbers | _scalars, max_size=4).map(json.dumps)
_zone = st.lists(st.integers(-1, 9), min_size=1, max_size=3) | _json
_slots = st.integers(-1, 12) | st.sampled_from([MAX_TRAP_SLOTS, MAX_TRAP_SLOTS + 1, 10**12]) | _scalars
_trap = st.fixed_dictionaries({"slots": _slots, "gate_zones": st.lists(_zone, max_size=4) | _json})
_trap_json = (_trap | st.dictionaries(st.sampled_from(["slots", "gate_zones", "x"]), _json, max_size=3)).map(json.dumps)
_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=30)
_edit = st.tuples(st.integers(0, len(PROGRAM)), st.integers(0, 6), _text)  # replace PROGRAM[i:i + n] with a string
_source = _text | _edit.map(lambda e: PROGRAM[: e[0]] + e[2] + PROGRAM[e[0] + e[1]:])


def _cli(source: str = PROGRAM, noise: str | None = None, trap: str | None = None) -> None:
    with tempfile.TemporaryDirectory() as d:
        src = Path(d) / "p.qir.txt"
        src.write_text(source)
        argv = ["run", str(src), "--shots", "5", "--seed", "1"]
        for flag, text in (("--noise", noise), ("--trap", trap)):
            if text is not None:
                (Path(d) / flag[2:]).write_text(text)
                argv += [flag, str(Path(d) / flag[2:])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc == 0 or (rc == 1 and err.getvalue().splitlines()[-1].startswith("error:")), (rc, err.getvalue())


@settings(max_examples=60, deadline=None)
@given(_noise_json | _json.map(json.dumps) | _text)
def test_cli_never_raises_on_noise_json(text):
    _cli(noise=text)


@settings(max_examples=60, deadline=None)
@given(_trap_json | _text)
def test_cli_never_raises_on_trap_json(text):
    _cli(trap=text)


@settings(max_examples=80, deadline=None)
@given(_source)
def test_cli_never_raises_on_source_text(source):
    _cli(source=source)


# -- flag values: each gives exit 0, or 1 with an "error:" line ---------------------

class _InlinePool:
    """A pool that runs its tasks in this process, so no flag value starts a worker."""

    def __init__(self, processes):
        assert 1 <= processes <= MAX_JOBS

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, f, tasks):
        return [f(t) for t in tasks]


_ints = st.integers(-3, 300) | st.sampled_from([MAX_JOBS, MAX_JOBS + 1, MAX_SHOTS, MAX_SHOTS + 1, 2**63, -(2**63)])
_flags = st.fixed_dictionaries(
    {},
    optional={
        "--shots": _ints,
        "--seed": _ints | st.integers(),
        "--jobs": _ints,
        "--registers": _ints | st.sampled_from([65536, 65537]),
        "--overrotation": st.floats() | st.integers(-7, 7),
        "--transport-mode": st.sampled_from(["conditional", "always"]),
        "--max-inline-depth": _ints,
        "--max-unroll": _ints,
        "--passes": st.lists(st.sampled_from(["fold", "flatten", "peephole", "", "inline", "FOLD", " fold"]), max_size=4).map(",".join),
    },
)
COMPILE_FLAGS = ("--max-inline-depth", "--max-unroll", "--passes")  # `run` takes them; a built-in experiment does not


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["run", "experiment"]), _flags)
def test_cli_never_raises_on_flag_values(command, flags):
    # the pool runs inline and every task samples at most one batch of four
    # shots, so no value starts a process or samples a large count
    def few_shots(args):
        rt, seed, n_shots, batches = args
        return emulator._run_block(rt, seed, batches[0], min(4, n_shots - batches[0] * emulator.SHOT_BATCH))

    flags = {"--shots": 5, "--seed": 1, **flags}
    for flag in ("--overrotation",) if command == "run" else COMPILE_FLAGS:
        flags.pop(flag, None)
    argv = [f"{k}={v}" for k, v in flags.items()]  # "=" keeps a negative value from reading as a flag
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.setattr(emulator.multiprocessing, "get_context", lambda method: types.SimpleNamespace(Pool=_InlinePool))
        mp.setattr(emulator, "_run_batches", few_shots)
        src = Path(d) / "p.qir.txt"
        src.write_text(PROGRAM)
        argv = ["run", str(src), *argv] if command == "run" else ["experiment", "msd", "--limit", "1", *argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc == 0 or (rc == 1 and err.getvalue().splitlines()[-1].startswith("error:")), (argv, rc, err.getvalue())
