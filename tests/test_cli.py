import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ionflow import emulator, textir
from ionflow.cli import main
from ionflow.experiments import CSV_HEADER, RusConfig, build_rus, run_experiment
from ionflow.ir import IonflowError
from ionflow.toolchain import compile_module

GOOD = """module t
attrs required_qubits=2 required_results=2
func @main() {
block e:
  h q0
  mz q0 -> r0
  %m = read_result r0
  br %m, a, b
block a:
  x q1
  jmp b
block b:
  mz q1 -> r1
  output result r0
  output result r1
  ret
}
"""

BACK_EDGE = """module t
attrs required_qubits=1 required_results=1
func @main() {
block a:
  jmp a
}
"""


def test_compile_emits_exec_json(tmp_path, capsys):
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    out = tmp_path / "prog.json"
    assert main(["compile", str(src), "--emit", "exec", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["qubits"] == 2 and data["conditional_transport"] is True
    assert any(it["kind"] == "layer" for it in data["items"])


def test_compile_emits_guarded_text(tmp_path):
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    out = tmp_path / "g.txt"
    assert main(["compile", str(src), "--emit", "guarded", "-o", str(out)]) == 0
    text = out.read_text()
    assert "guarded @main" in text and "guard" in text


PHI = """module t
attrs required_qubits=1 required_results=2
func @main() {
block e:
  h q0
  mz q0 -> r0
  %m = read_result r0
  br %m, a, b
block a:
  jmp c
block b:
  jmp c
block c:
  %v = phi [3, a], [5, b]
  %w = cmp gt %v, 4
  br %w, d, f
block d:
  x q0
  jmp f
block f:
  mz q0 -> r1
  output result r0
  output result r1
  ret
}
"""

# the phi becomes a select over its incoming edge guards, in its block's prelude
PHI_GUARDED = """guarded @main
block e: guard true
  body h q0
  body mz q0 -> r0
  body R0 = read_result r0
block a: guard R0
block b: guard R1
  pre  R1 = xor R0, true
block c: guard true
  pre  R1 = select R0, 3, 5
  body R0 = cmp gt R1, 4
block d: guard R0
  body x q0
block f: guard true
  body mz q0 -> r1
  body output result r0
  body output result r1
"""


def test_compile_emits_guarded_select_for_a_phi(tmp_path, capsys):
    src = tmp_path / "p.qir.txt"
    src.write_text(PHI)
    assert main(["compile", str(src), "--emit", "guarded"]) == 0
    assert capsys.readouterr().out == PHI_GUARDED


def test_compile_emits_text_that_parses_back_to_the_compiled_module(tmp_path):
    text = textir.emit(build_rus(RusConfig(limit=2, basis="X", style="recursion")))
    src, out = tmp_path / "p.qir.txt", tmp_path / "flat.qir.txt"
    src.write_text(text)
    assert main(["compile", str(src), "--emit", "text", "-o", str(out)]) == 0
    flat = textir.parse(out.read_text())
    assert flat == compile_module(textir.parse(text)).module
    assert len(flat.functions) == 1


def test_compile_back_edge_fails_with_diagnostic(tmp_path, capsys):
    src = tmp_path / "bad.qir.txt"
    src.write_text(BACK_EDGE)
    assert main(["compile", str(src)]) == 1
    assert "BACK_EDGE" in capsys.readouterr().err


def test_compile_error_prints_each_diagnostic_once(tmp_path, capsys):
    src = tmp_path / "loop.qir.txt"
    src.write_text(BACK_EDGE)
    assert main(["compile", str(src)]) == 1
    err = capsys.readouterr().err
    assert "error: error:" not in err
    assert err.startswith("error: BACK_EDGE:")


def test_compile_self_calling_entry_fails_with_budget_error(tmp_path, capsys):
    src = tmp_path / "self.qir.txt"
    src.write_text("module t\nattrs required_qubits=1 required_results=0\nfunc @main() {\nblock a:\n  call @main()\n  ret\n}\n")
    assert main(["compile", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "inline rounds" in err


PRESSURED = """module t
attrs required_qubits=2 required_results=2
func @main() {
block e:
  mz q0 -> r0
  mz q1 -> r1
  %a = read_result r0
  %b = read_result r1
  %c = and %a, %b
  br %c, a, b
block a:
  x q1
  jmp b
block b:
  output result r0
  ret
}
"""


def test_register_pressure_message(tmp_path, capsys):
    src = tmp_path / "p.qir.txt"
    src.write_text(PRESSURED)
    assert main(["compile", str(src), "--registers", "1"]) == 1
    assert "register pressure exceeds real-time register file" in capsys.readouterr().err


def test_run_writes_per_shot_csv(tmp_path):
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    out = tmp_path / "shots.csv"
    assert main(["run", str(src), "--shots", "50", "--seed", "4", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("shot,outputs,")
    assert len(lines) == 51


def test_experiment_report_and_json(tmp_path):
    csv_out = tmp_path / "r.csv"
    json_out = tmp_path / "r.json"
    rc = main(
        [
            "experiment", "msd", "--limit", "1", "--basis", "Z",
            "--shots", "500", "--seed", "7", "--noiseless",
            "--csv", str(csv_out), "--json", str(json_out),
        ]
    )
    assert rc == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    assert row[0] == "msd" and row[3] == "1"
    data = json.loads(json_out.read_text())
    assert 0.0 <= data["success_fraction"] <= 1.0


def test_experiment_emit_exec(tmp_path):
    out = tmp_path / "rus.json"
    rc = main(
        [
            "experiment", "rus", "--limit", "2", "--style", "recursion",
            "--shots", "1", "--seed", "0", "--emit", "exec", "-o", str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["qubits"] == 3


def test_experiment_emit_exec_samples_nothing(tmp_path, capsys, monkeypatch):
    # it sampled every shot before writing only the program
    res, _shots, _report = run_experiment(RusConfig(limit=2, style="recursion"), 1, 0)

    def ran(_args):
        raise AssertionError("shots ran")

    monkeypatch.setattr(emulator, "_run_batches", ran)
    out = tmp_path / "rus.json"
    argv = ["experiment", "rus", "--limit", "2", "--style", "recursion", "--emit", "exec", "-o", str(out)]
    assert main([*argv, "--shots", "20000", "--seed", "0"]) == 0
    assert out.read_text() == res.program.to_json() + "\n"
    for flags, message in (
        (["--shots", "0", "--seed", "0"], "need at least one shot"),
        (["--shots", "5", "--seed", "-1"], "seed must be >= 0, got -1"),
    ):  # the run options are still checked
        assert main([*argv, *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_experiment_runs_a_long_branch_chain(capsys):
    """RUS loop 400 chains 400 branches, and its symbolic guards nest that deep."""
    assert main(["experiment", "rus", "--limit", "400", "--shots", "1", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER and lines[1].startswith("rus,loop,Z,400,1,")


def test_report_merges_csvs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for i, f in enumerate((a, b)):
        main(["experiment", "rus", "--limit", "1", "--shots", "100", "--seed", str(i), "--noiseless", "--csv", str(f)])
    merged = tmp_path / "merged.csv"
    jm = tmp_path / "merged.json"
    assert main(["report", str(a), str(b), "-o", str(merged), "--json", str(jm)]) == 0
    lines = merged.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3
    assert len(json.loads(jm.read_text())) == 2


def test_report_json_is_typed_as_experiment_json(tmp_path):
    row, exp_json, rep_json = tmp_path / "r.csv", tmp_path / "e.json", tmp_path / "r.json"
    argv = ["experiment", "rus", "--limit", "2", "--shots", "200", "--seed", "5", "--csv", str(row), "--json", str(exp_json)]
    assert main(argv) == 0
    assert main(["report", str(row), "-o", str(tmp_path / "m.csv"), "--json", str(rep_json)]) == 0
    [record] = json.loads(rep_json.read_text())
    expected = json.loads(exp_json.read_text())
    assert [(k, type(v), v) for k, v in record.items()] == [(k, type(expected[k]), expected[k]) for k in CSV_HEADER.split(",")]
    assert type(record["limit"]) is int and type(record["avg_transport"]) is float and record["exp_x"] is None


@pytest.mark.parametrize(
    "row, message",
    [
        ("msd,,X,1", "4 fields, the header has 13"),
        ("msd,,X,one,100,0.5,0.1,,,,1.0,5,3", "limit is not a number: 'one'"),
        ("msd,,X,1,100,0.5,0.1,,,,x,5,3", "avg_transport is not a number: 'x'"),
        ("msd,,X,1,100,0.5,nan,,,,1.0,5,3", "exp_x is not finite: 'nan'"),
    ],
    ids=["short-row", "int-column", "float-column", "non-finite"],
)
def test_report_rejects_malformed_rows(tmp_path, capsys, row, message):
    f = tmp_path / "bad.csv"
    f.write_text(f"{CSV_HEADER}\n{row}\n")
    out = tmp_path / "merged.json"
    assert _cli_error(["report", str(f), "-o", str(tmp_path / "m.csv"), "--json", str(out)], capsys) .strip() == f"error: {f} line 2: {message}"
    assert not out.exists()


REPORT_ROW = "msd,,X,1,100,0.5,0.1,,,,1.0,5,3"


def test_report_skips_an_empty_csv(tmp_path):
    row, empty, merged = tmp_path / "r.csv", tmp_path / "empty.csv", tmp_path / "m.csv"
    row.write_text(f"{CSV_HEADER}\n{REPORT_ROW}\n")
    empty.write_text("\n  \n")
    assert main(["report", str(empty), str(row), str(empty), "-o", str(merged)]) == 0
    assert merged.read_text() == row.read_text()


def test_report_rejects_a_bad_header(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text(f"{CSV_HEADER.replace('shots', 'runs')}\n{REPORT_ROW}\n")
    out = tmp_path / "m.csv"
    assert main(["report", str(f), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {f} is not a report CSV (bad header)"]
    assert not out.exists()


def test_overrotation_changes_rus_rows(tmp_path):
    rows = []
    for over in ("0", "1.3"):
        f = tmp_path / f"rus-{over}.csv"
        argv = ["experiment", "rus", "--limit", "2", "--basis", "X", "--shots", "2000", "--seed", "3", "--overrotation", over]
        assert main([*argv, "--csv", str(f)]) == 0
        rows.append(f.read_text().splitlines()[1])
    assert rows[0] != rows[1]


def test_identical_invocations_byte_identical_any_jobs(tmp_path):
    outs = []
    for jobs in ("1", "3"):
        f = tmp_path / f"r{jobs}.csv"
        rc = main(
            [
                "experiment", "rus", "--limit", "3", "--basis", "X", "--style", "loop",
                "--shots", "400", "--seed", "99", "--noiseless", "--jobs", jobs,
                "--csv", str(f),
            ]
        )
        assert rc == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]


def test_trap_config_accepted(tmp_path):
    trap = tmp_path / "trap.json"
    trap.write_text('{"slots": 20, "gate_zones": [[0,1],[4,5],[8,9],[12,13],[16,17]]}')
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    assert main(["compile", str(src), "--trap", str(trap)]) == 0


def _cli_error(argv, capsys) -> str:
    """Run the CLI on bad input; it must fail with an error line, not a traceback."""
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse usage errors exit with status 2
        rc = e.code
    err = capsys.readouterr().err
    assert rc != 0
    assert "Traceback" not in err
    assert "error:" in err.strip().splitlines()[-1]
    return err


SELF_PHI_LOOP = """module t
attrs required_qubits=1 required_results=1
func @main() {
block e:
  %p = phi [%p, e]
  %d = xor %p, true
  mz q0 -> r0
  %c = read_result r0
  br %c, e, out
block out:
  ret
}
"""


def test_self_referencing_phi_fails_with_back_edge_error(tmp_path, capsys):
    # lenient validation only warns about the back edge; folding must not
    # take the phi for a copy of itself
    src = tmp_path / "selfphi.qir.txt"
    src.write_text(SELF_PHI_LOOP)
    assert _cli_error(["compile", str(src)], capsys).startswith("error: BACK_EDGE:")


def _run_with_noise(tmp_path, capsys, noise_json: str, *extra: str) -> str:
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    noise = tmp_path / "noise.json"
    noise.write_text(noise_json)
    return _cli_error(["run", str(src), "--shots", "5", "--seed", "0", "--noise", str(noise), *extra], capsys)


def test_noise_unknown_key_is_an_error(tmp_path, capsys):
    assert "p_bogus" in _run_with_noise(tmp_path, capsys, '{"p1": 0.01, "p_bogus": 0.1}')


def test_noise_not_an_object_is_an_error(tmp_path, capsys):
    _run_with_noise(tmp_path, capsys, "[0.01, 0.02]")


def test_noise_and_noiseless_are_exclusive(tmp_path, capsys):
    assert "not allowed with" in _run_with_noise(tmp_path, capsys, '{"p1": 0.01}', "--noiseless")


def test_trap_missing_gate_zones_is_an_error(tmp_path, capsys):
    trap = tmp_path / "trap.json"
    trap.write_text('{"slots": 20}')
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    assert "gate_zones" in _cli_error(["compile", str(src), "--trap", str(trap)], capsys)


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--noise", '{"p1": "x"}'),
        ("--noise", '{"p1": null}'),
        ("--noise", '{"prep_overrotation": "a"}'),
        ("--trap", '{"slots": 8, "gate_zones": 5}'),
        ("--trap", '{"slots": 8, "gate_zones": [[0, "1"]]}'),
        ("--trap", '{"slots": 8, "gate_zones": [[0, 1, 2]]}'),
        ("--trap", '{"slots": "8", "gate_zones": [[0, 1]]}'),
    ],
)
def test_config_value_of_wrong_type_is_an_error(tmp_path, capsys, flag, text):
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    cmd = ["run", str(src), "--shots", "5", "--seed", "0"] if flag == "--noise" else ["compile", str(src)]
    assert main([*cmd, flag, str(cfg)]) == 1
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_an_error(tmp_path, capsys, jobs):
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    run = ["run", str(src), "--shots", "10", "--seed", "1", "--jobs", jobs]
    experiment = ["experiment", "msd", "--limit", "1", "--shots", "10", "--seed", "1", "--jobs", jobs]
    for argv in (run, experiment):
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines()[-1] == f"error: --jobs must be at least 1, got {jobs}"


SCRIPT_ERRORS = {
    "0": "--jobs must be at least 1, got 0",
    "-2": "--jobs must be at least 1, got -2",
    "noise-out-of-range": "p1=2 outside [0, 1]",
    "missing-noise-file": "[Errno 2] No such file or directory: '{noise}'",
    "zero-shots": "need at least one shot",
    "too-many-jobs": f"--jobs must be at most {emulator.MAX_JOBS}, got {emulator.MAX_JOBS + 1}",
}
# one shot and one row, so that a missing bound would start no worker and end quickly
SCRIPT_FLAGS = {
    "zero-shots": ["--shots", "0"],
    "too-many-jobs": ["--jobs", str(emulator.MAX_JOBS + 1), "--shots", "1", "--limits", "0"],
}


@pytest.mark.parametrize("case", list(SCRIPT_ERRORS))
def test_run_experiments_script_rejects_jobs_below_one(tmp_path, case):
    root = Path(__file__).resolve().parent.parent
    noise = tmp_path / "noise.json"
    if case == "noise-out-of-range":
        noise.write_text('{"p1": 2}')
    flags = SCRIPT_FLAGS.get(case, ["--noise", str(noise)] if "noise" in case else ["--jobs", case])
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_experiments.py"), "--out", str(tmp_path / "out"), *flags],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [f"error: {SCRIPT_ERRORS[case].format(noise=noise)}"]
    # the shot count is checked when the first row is sampled, after the output directory is made
    assert (tmp_path / "out").exists() == (case == "zero-shots")


@pytest.mark.parametrize("jobs", [emulator.MAX_JOBS + 1, 10**9])
def test_worker_count_past_the_bound_is_refused(tmp_path, capsys, monkeypatch, jobs):
    # refused before any pool starts; a missing check fails at once here
    # instead of forking the workers
    def started(*_args, **_kwargs):
        raise AssertionError("workers started")

    monkeypatch.setattr(emulator.multiprocessing, "get_context", started)
    monkeypatch.setattr(emulator, "_run_batches", started)
    src = tmp_path / "p.qir.txt"
    src.write_text(THREE_QUBITS)
    run = ["run", str(src), "--shots", "600", "--seed", "1"]
    experiment = ["experiment", "msd", "--limit", "0", "--shots", "600", "--seed", "1"]
    for argv in (run, experiment):
        assert main([*argv, "--jobs", str(jobs)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --jobs must be at most {emulator.MAX_JOBS}, got {jobs}"]
        with pytest.raises(AssertionError, match="workers started"):  # the bound itself is allowed
            main([*argv, "--jobs", str(emulator.MAX_JOBS)])
    with pytest.raises(IonflowError, match="at most"):  # so is a library call
        emulator.run_shots(None, emulator.NOISELESS, 600, 1, jobs=jobs)


def _source(tmp_path, body: str) -> str:
    src = tmp_path / "angle.qir.txt"
    src.write_text(
        "module t\nattrs required_qubits=1 required_results=1\nfunc @main() {\nblock e:\n"
        f"{body}  mz q0 -> r0\n  output result r0\n  ret\n}}\n"
    )
    return str(src)


@pytest.mark.parametrize(
    "case",
    ["overrotation-nan", "overrotation-inf", "literal-inf", "folded-nan", "literal-int-past-float"],
)
def test_non_finite_angle_is_an_error(tmp_path, capsys, case):
    # a NaN or infinite angle must not run: it used to sample from a NaN state,
    # and an int angle too large for a float raised OverflowError
    experiment = ["experiment", "msd", "--limit", "1", "--shots", "50", "--seed", "1", "--overrotation"]
    argv = {
        "overrotation-nan": [*experiment, "nan"],
        "overrotation-inf": [*experiment, "inf"],
        "literal-inf": ["run", _source(tmp_path, "  rz(1e400) q0\n"), "--shots", "5", "--seed", "1"],
        "literal-int-past-float": ["run", _source(tmp_path, f"  rz({10**400}) q0\n"), "--shots", "5", "--seed", "1"],
        "folded-nan": [
            "run",
            _source(tmp_path, "  %a = mul 1e300, 1e300\n  %b = sub %a, %a\n  rz(%b) q0\n"),
            "--shots", "5", "--seed", "1",
        ],
    }[case]
    assert "not finite" in _cli_error(argv, capsys)


@pytest.mark.parametrize(
    "flag", [["--passes", "fold,,x"], ["--max-inline-depth", "1"], ["--max-unroll", "1"]], ids=lambda f: f[0]
)
def test_experiment_rejects_compile_options_it_does_not_use(capsys, flag):
    # a built-in experiment compiles with the default passes and budgets, so
    # these options would be silently ignored
    argv = ["experiment", "msd", "--limit", "1", "--shots", "5", "--seed", "1", *flag]
    assert f"unrecognized arguments: {' '.join(flag)}" in _cli_error(argv, capsys)


@pytest.mark.parametrize("flag", ["--max-inline-depth", "--max-unroll"])
def test_negative_flatten_budget_is_an_error(tmp_path, capsys, flag):
    # a negative budget is refused as such, not run as a budget no call or loop can meet
    src = tmp_path / "p.qir.txt"
    src.write_text(GOOD)
    err = _cli_error(["run", str(src), "--shots", "5", "--seed", "1", f"{flag}=-5"], capsys)
    assert f"flatten budget {flag[2:].replace('-', '_')}=-5 is not an int >= 0" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_too_many_qubits_is_an_error(tmp_path, capsys, jobs):
    # a state of 2⁴⁰ amplitudes per shot must be refused before it is allocated
    src = tmp_path / "wide.qir.txt"
    src.write_text("module t\nattrs required_qubits=40 required_results=0\nfunc @main() {\nblock e:\n  h q0\n  ret\n}\n")
    assert main(["run", str(src), "--shots", "300", "--seed", "1", "--jobs", jobs]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: program declares 40 qubits; the emulator runs at most 16"]


THREE_QUBITS = """module t
attrs required_qubits=3 required_results=1
func @main() {
block e:
  h q0
  cx q0, q2
  mz q0 -> r0
  output result r0
  ret
}
"""

# each reached an error line only through a catch-all for ValueError; a
# negative seed printed numpy's "expected non-negative integer", an integer
# literal past Python's digit limit had no position, and a trap of a million
# slots was accepted and took seconds to run
DIGIT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"
REJECTED = {
    "non-utf8-source": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    "malformed-noise-json": "Expecting ',' delimiter: line 1 column 11 (char 10)",
    "zero-shots": "need at least one shot",
    "zero-registers": "need at least one register",
    "unknown-pass": "unknown pass 'bogus'",
    "negative-limit": "limit must be >= 0",
    "trap-too-small": "3 qubits do not fit in 2 slots",
    "negative-seed": "seed must be >= 0, got -1",
    "integer-past-digit-limit": f"0:0: {DIGIT_LIMIT}; use sys.set_int_max_str_digits() to increase the limit",
    "trap-too-wide": "trap slots=1000000 above the maximum 4096",
    # built its whole source text first, and ran out of memory under a 1.5 GB address-space limit
    "msd-limit-too-large": "limit must be <= 16383, got 10000000",
    # compiled, the first to a layer on "qubits": [true], the second to rx(1)
    "bool-qubit-argument": "QUBIT_OPERAND: True is not a qubit index [@main:e.c0#0]",
    "bool-angle": "ANGLE_TYPE: rx angle True is not a number [@main:e#0]",
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_input_message(tmp_path, capsys, case):
    src = tmp_path / "p.qir.txt"
    src.write_text(THREE_QUBITS)
    cfg = tmp_path / "cfg.json"
    run = ["run", str(src), "--seed", "1"]
    if case == "non-utf8-source":
        src.write_bytes(b"\xff\xfe")
        argv = [*run, "--shots", "5"]
    elif case == "malformed-noise-json":
        cfg.write_text('{"p1": 0.1')
        argv = [*run, "--shots", "5", "--noise", str(cfg)]
    elif case == "integer-past-digit-limit":
        src.write_text(THREE_QUBITS.replace("h q0", f"%a = add 1, {'1' * 5000}"))
        argv = ["compile", str(src)]
    elif case == "bool-qubit-argument":
        src.write_text(THREE_QUBITS.replace("  ret\n}\n", "  call @f(true)\n  ret\n}\nfunc @f(%q: qubit) {\nblock e:\n  h %q\n  ret\n}\n"))
        argv = ["compile", str(src)]
    elif case == "bool-angle":
        src.write_text(THREE_QUBITS.replace("h q0", "rx(true) q0"))
        argv = ["compile", str(src)]
    elif case == "trap-too-small":
        cfg.write_text('{"slots": 2, "gate_zones": [[0, 1]]}')
        argv = ["compile", str(src), "--trap", str(cfg)]
    elif case == "trap-too-wide":  # a run on it took 1.6 s; ten times as many slots took 20 s
        cfg.write_text('{"slots": 1000000, "gate_zones": [[0, 1]]}')
        argv = [*run, "--shots", "5", "--trap", str(cfg)]
    else:
        argv = {
            "zero-shots": [*run, "--shots", "0"],
            "zero-registers": ["compile", str(src), "--registers", "0"],
            "unknown-pass": ["compile", str(src), "--passes", "fold,bogus"],
            "negative-limit": ["experiment", "msd", "--limit", "-1", "--shots", "5", "--seed", "1"],
            "msd-limit-too-large": ["experiment", "msd", "--limit", "10000000", "--shots", "1", "--seed", "1"],
            "negative-seed": ["run", str(src), "--seed", "-1", "--shots", "5"],
        }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {REJECTED[case]}"]


HEAD = "module t\nattrs required_qubits=1 required_results=1\n"
IN_MAIN = HEAD + "func @main() {\nblock e:\n%s  ret\n}\n"
JMP_LP = HEAD + "func @main() {\nblock e:\n  jmp lp\n"
# one minimal source per parse error, with the line and column it is reported at
PARSE_ERRORS = {
    "attrs-unknown-key": ("module t\nattrs required_qubits=1 required_result=1\n", 3, 1,
                          "attrs must be required_qubits and required_results, got ['required_qubits', 'required_result']"),
    "attrs-negative": ("module t\nattrs required_qubits=1 required_results=-1\n", 3, 1, "attrs must be non-negative"),
    "no-functions": (HEAD, 3, 1, "module has no functions"),
    "unknown-parameter-type": (HEAD + "func @main(%a: str) {\n", 3, 19, "unknown parameter type 'str'"),
    "empty-function-body": (HEAD + "func @main() {\n}\n", 5, 1, "function has no blocks"),
    "empty-repeat-body": (JMP_LP + "repeat 2 lp {\n}\nblock f:\n  ret\n}\n", 8, 1, "repeat body has no blocks"),
    "negative-repeat-count": (JMP_LP + "repeat -2 lp {\n", 6, 1, "repeat count must be >= 0"),
    "repeat-not-followed-by-a-block": (JMP_LP + "repeat 2 lp {\nblock b:\n  jmp next\n}\n}\n", 10, 1,
                                       "repeat must be followed by a block (expected one of: block)"),
    "missing-terminator": (HEAD + "func @main() {\nblock e:\n  h q0\n", 6, 1,
                           "block 'e' has no terminator (expected one of: jmp, br, ret)"),
    "phi-after-other-instructions": (IN_MAIN % "  h q0\n  %v = phi [1, e]\n", 6, 3, "phi must appear before other instructions"),
    "unknown-instruction": (IN_MAIN % "  hadamard q0\n", 5, 3, "unknown instruction 'hadamard'"),
    "unknown-comparison": (IN_MAIN % "  %c = cmp eqq 1, 2\n", 5, 16,  # at the token after the op
                           "unknown comparison 'eqq' (expected one of: eq, ne, lt, le, gt, ge)"),
    "unknown-assignment-op": (IN_MAIN % "  %c = pow 1, 2\n", 5, 12, "unknown assignment op 'pow' "
                              "(expected one of: phi, read_result, cmp, add, sub, mul, and, or, xor)"),
    "malformed-result-ref": (IN_MAIN % "  mz q0 -> s0\n", 5, 12, "expected result ref r<N>, got 's0'"),
    "rotation-without-angle": (IN_MAIN % "  rz q0\n", 5, 3, "rz requires an angle"),
    "nests-too-deeply": (JMP_LP + "".join(f"repeat 1 l{k} {{\n" for k in range(2000)), 0, 0, "input nests too deeply"),
    # a literal's digits are ASCII: these compiled as rz(3.5) and add 12, 1
    "non-ascii-digits-in-a-float": (IN_MAIN % "  rz(\u0663.\u0665) q0\n", 5, 6, "unexpected character '\u0663'"),
    "non-ascii-digits-in-an-int": (IN_MAIN % "  %a = add \u0661\u0662, 1\n", 5, 12, "unexpected character '\u0661'"),
}


# one minimal source per diagnostic that validation reports on parsed text, with the
# message and location of its one error line; a case names its code before any '-'
DIAGNOSTIC_HEAD = HEAD.replace("required_qubits=1", "required_qubits=2")


def _in_main(body: str) -> str:
    return DIAGNOSTIC_HEAD + "func @main() {\nblock e:\n" + body + "  ret\n}\n"


def _join(before_br: str, phi: str) -> str:
    """``phi`` in block b, which joins e's branch on a measurement and its arm a."""
    return _in_main("  mz q0 -> r0\n  %m = read_result r0\n" + before_br + "  br %m, a, b\nblock a:\n  jmp b\nblock b:\n" + phi)


def _call_f(args: str, params: str) -> str:
    """A call of ``@f(params)``, which applies h to %a."""
    return _in_main(f"  call @f({args})\n") + f"func @f({params}) {{\nblock e:\n  h %a\n  ret\n}}\n"


DIAGNOSTICS = {
    "GATE_ARITY": (_in_main("  h q0, q1\n"), "h takes 1 qubit(s) [@main:e#0]"),
    "ANGLE_UNEXPECTED": (_in_main("  h(1) q0\n"), "h takes no angle [@main:e#0]"),
    "BAD_OUTPUT": (_in_main("  output bogus\n"), "unknown output kind 'bogus' [@main:e#0]"),
    "CALL_ARITY": (_in_main("  call @main(1)\n"), "@main takes 0 args [@main:e#0]"),
    "DUP_LABEL": (_in_main("  jmp b\nblock b:\n  ret\nblock b:\n"), "duplicate block labels ['b'] [@main]"),
    "NON_SSA-parameter": (_call_f("q0, q1", "%a: qubit, %a: qubit"), "parameter %a redefined [@f]"),
    "NON_SSA-phi": (_join("  %x = add 1, 2\n", "  %x = phi [1, e], [0, a]\n"),
                    "%x defined more than once [@main:b]"),
    "PHI_PREDS": (_join("", "  %p = phi [1, e]\n"), "phi %p incomings ['e'] != predecessors ['a', 'e'] [@main:b]"),
    "USE_BEFORE_DEF-local": (_in_main("  %b = add %a, 1\n  %a = add 1, 2\n"), "%a used before local definition [@main:e#0]"),
    "USE_BEFORE_DEF-branch": (_in_main("  br %c, a, b\nblock a:\n  ret\nblock b:\n"), "%c used but never defined [@main:e(br)]"),
    "ENTRY_PARAMS": (DIAGNOSTIC_HEAD + "func @main(%a: int) {\nblock e:\n  ret\n}\n", "entry function must take no parameters [@main]"),
    "QUBIT_OPERAND": (_call_f("1", "%a: int"), "%a is not a qubit-typed parameter [@f:e#0]"),
    "ANGLE_NONCONST": (_in_main("  mz q0 -> r0\n  %a = read_result r0\n  rz(%a) q0\n"),
                       "rz angle must be a literal after folding [@main:e#2]"),
}


@pytest.mark.parametrize("case", list(DIAGNOSTICS))
def test_diagnostic_code_message(tmp_path, capsys, case):
    text, message = DIAGNOSTICS[case]
    src = tmp_path / "p.qir.txt"
    src.write_text(text)
    assert main(["compile", str(src)]) == 1
    code = case.split("-")[0]
    assert capsys.readouterr().err.splitlines() == [f"error: {code}: {message}"]


@pytest.mark.parametrize("case", list(PARSE_ERRORS))
def test_parse_error_message(tmp_path, capsys, case):
    text, line, col, message = PARSE_ERRORS[case]
    src = tmp_path / "p.qir.txt"
    src.write_text(text)
    assert main(["compile", str(src)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {line}:{col}: {message}"]


# each raised FloatingPointError, MemoryError (or allocated ahead of a
# batch), RecursionError or OverflowError
INT_RANGE = f"INT_RANGE: int literal outside [{-(2**63)}, {2**63 - 1}]"
TRACEBACKS = {
    "angle-overflows": "rz(1e+308) plus prep_overrotation=1e+308 is not finite",
    "too-many-result-slots": "program uses 65537 result slots; the emulator runs at most 65536",
    "too-many-registers": None,  # runs: the emulator holds only the registers the program names
    "noise-json-nested-too-deeply": "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    "noise-int-too-large-for-a-float": f"prep_overrotation={10**400} is not finite",
    "noise-probability-int-too-large": f"p1={10**400} outside [0, 1]",
    "int-literal-past-64-bits-folded": f"{INT_RANGE} [@main:e#0]",
    "int-literal-past-64-bits-in-registers": f"{INT_RANGE} [@main:e#3]",
    "module-declares-too-many-qubits": "trap slots=100000000000 above the maximum 4096",
}

INT_PAST_64_BITS_IN_A_BRANCH = """  h q0
  mz q0 -> r0
  %m = read_result r0
  %a = add %m, 99999999999999999999
  %c = cmp gt %a, 5
  br %c, a, b
block a:
  x q0
  jmp b
block b:
  output result r0
  ret
"""


@pytest.mark.parametrize("case", list(TRACEBACKS))
def test_input_that_ended_in_a_traceback(tmp_path, capsys, case):
    src = tmp_path / "p.qir.txt"
    noise = tmp_path / "noise.json"
    qubits = 100_000_000_000 if case == "module-declares-too-many-qubits" else 1
    results = 65537 if case == "too-many-result-slots" else 1
    body = "  rz(1e308) q0\n  h q0\n  mz q0 -> r0\n  output result r0\n  ret\n"
    if case == "int-literal-past-64-bits-folded":
        body = f"  %a = add 1.5, {'9' * 400}\n" + body
    elif case == "int-literal-past-64-bits-in-registers":
        body = INT_PAST_64_BITS_IN_A_BRANCH
    src.write_text(f"module t\nattrs required_qubits={qubits} required_results={results}\nfunc @main() {{\nblock e:\n{body}}}\n")
    argv = ["run", str(src), "--shots", "5", "--seed", "1"]
    if case in ("int-literal-past-64-bits-folded", "module-declares-too-many-qubits"):
        argv = ["compile", str(src)]
    elif case == "too-many-registers":
        assert main(argv + ["--registers", "64"]) == 0
        at_64 = capsys.readouterr()
        assert main(argv + ["--registers", "65537"]) == 0
        assert capsys.readouterr() == at_64
        return
    elif case not in ("too-many-result-slots", "int-literal-past-64-bits-in-registers"):
        noise.write_text({
            "angle-overflows": '{"prep_overrotation": 1e308}',
            "noise-json-nested-too-deeply": "[" * 100_000,
            "noise-int-too-large-for-a-float": f'{{"prep_overrotation": {10**400}}}',
            "noise-probability-int-too-large": f'{{"p1": {10**400}}}',
        }[case])
        argv += ["--noise", str(noise)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {TRACEBACKS[case]}"]


@pytest.mark.parametrize("shots", [emulator.MAX_SHOTS + 1, 10**12])
def test_shot_count_past_the_bound_is_refused(tmp_path, capsys, monkeypatch, shots):
    # refused before any batch is handed out; a missing check fails at once
    # here instead of running the shots or allocating for them
    def ran(_args):
        raise AssertionError("shots ran")

    monkeypatch.setattr(emulator, "_run_batches", ran)
    src = tmp_path / "p.qir.txt"
    src.write_text(THREE_QUBITS)
    assert main(["run", str(src), "--shots", str(shots), "--seed", "1"]) == 1
    refused = f"error: {shots} shots asked; a run returns at most {emulator.MAX_SHOTS}"
    assert capsys.readouterr().err.splitlines() == [refused]
    with pytest.raises(AssertionError, match="shots ran"):  # the bound itself is allowed
        main(["run", str(src), "--shots", str(emulator.MAX_SHOTS), "--seed", "1"])
