"""``scripts/ab_inprocess.py``: two trees in one process, timed in alternating pairs (here the repository against itself)."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "scripts" / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)


@pytest.mark.parametrize("op, noise", [("run_shots", "H1E_LIKE"), ("compile_text", "NOISELESS"), ("parse", "NOISELESS")])
def test_the_repository_against_itself(capsys, op, noise):
    argv = ["--a", str(ROOT), "--b", str(ROOT), "--program", "msd-1-X", "--op", op, "--noise", noise,
            "--shots", "20", "--pairs", "4", "--check"]
    assert ab_inprocess.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"msd-1-X conditional {noise} {op}, 20 shots, 4 pairs"
    assert out[1].startswith("A median ") and " ms, B median " in out[1]
    assert out[2].startswith("paired median ratio B/A ") and out[2].endswith("/4")


def test_the_two_sides_are_separate_packages():
    a = ab_inprocess.Side(ROOT, "ionflow_a", "rus-loop-2-Z", "always", "NOISELESS")
    b = ab_inprocess.Side(ROOT, "ionflow_b", "rus-loop-2-Z", "always", "NOISELESS")
    assert a.emulator is not b.emulator and a.emulator.__name__ == "ionflow_a.emulator"
    assert a.source == b.source
    assert [tuple(vars(s).values()) for s in a.shots(30, 3)] == [tuple(vars(s).values()) for s in b.shots(30, 3)]


def test_compare_gives_medians_ratio_and_wins():
    r = ab_inprocess.compare({"a": [1.0, 2.0, 4.0], "b": [0.5, 3.0, 2.0]})
    assert (r["median_a"], r["median_b"], r["ratio"], r["wins_b"], r["pairs"]) == (2.0, 2.0, 0.5, 2, 3)


@pytest.mark.parametrize("program", ["msd-X", "rus-loop-2", "rus-loop-x-Z", "qft-3-X"])
def test_a_bad_program_name_is_refused(program):
    with pytest.raises(SystemExit, match="bad program"):
        ab_inprocess.Side(ROOT, "ionflow_a", program, "conditional", "NOISELESS")


def test_a_comma_list_times_every_program_in_each_call(capsys):
    argv = ["--a", str(ROOT), "--b", str(ROOT), "--program", "msd-0-X,rus-loop-1-Z,msd-1-X", "--noise", "H1E_LIKE",
            "--shots", "20", "--pairs", "2", "--check"]
    assert ab_inprocess.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "msd-0-X,rus-loop-1-Z,msd-1-X conditional H1E_LIKE run_shots, 20 shots, 2 pairs"
    listed = ab_inprocess.Side(ROOT, "ionflow_a", "rus-loop-2-Z,msd-1-X", "always", "NOISELESS")
    alone = [ab_inprocess.Side(ROOT, "ionflow_b", p, "always", "NOISELESS") for p in ("rus-loop-2-Z", "msd-1-X")]
    assert listed.source == tuple(side.source[0] for side in alone)
    assert [tuple(vars(s).values()) for s in listed.shots(30, 3)] == [
        tuple(vars(s).values()) for side in alone for s in side.shots(30, 3)]


@pytest.mark.parametrize("programs", ["msd-1-X,", "msd-1-X,qft-3-X"])
def test_a_bad_name_in_a_list_is_refused(programs):
    with pytest.raises(SystemExit, match="bad program"):
        ab_inprocess.Side(ROOT, "ionflow_a", programs, "conditional", "NOISELESS")


def test_check_under_compile_text_compares_compiled_programs_not_shots(capsys, monkeypatch, tmp_path):
    # a tree whose programs differ only in their register count samples the
    # same shots, so only a comparison of compiled programs can refuse it
    shutil.copytree(ROOT / "src", tmp_path / "src")
    toolchain = tmp_path / "src" / "ionflow" / "toolchain.py"
    text = toolchain.read_text()
    assert "DEFAULT_REGISTERS = 64\n" in text
    toolchain.write_text(text.replace("DEFAULT_REGISTERS = 64\n", "DEFAULT_REGISTERS = 63\n"))
    argv = ["--a", str(ROOT), "--b", str(tmp_path), "--program", "msd-1-X", "--shots", "20", "--pairs", "2", "--check"]
    assert ab_inprocess.main(argv) == 0  # run_shots: the shots agree
    capsys.readouterr()

    def no_shots(*_args):
        raise AssertionError("compile_text --check sampled shots")

    monkeypatch.setattr(ab_inprocess.Side, "shots", no_shots)
    assert ab_inprocess.main(argv + ["--op", "compile_text"]) == 1
    assert capsys.readouterr().err == "error: the two trees' compiled programs differ\n"
    argv[3] = str(ROOT)
    assert ab_inprocess.main(argv + ["--op", "compile_text"]) == 0


def test_check_under_parse_compares_parsed_programs(capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    textir = tmp_path / "src" / "ionflow" / "textir.py"
    text = textir.read_text()
    assert text.count("            name=name,\n") == 1
    textir.write_text(text.replace("            name=name,\n", "            name=name + \"_b\",\n"))
    argv = ["--a", str(ROOT), "--b", str(tmp_path), "--program", "rus-loop-1-Z", "--op", "parse", "--pairs", "2", "--check"]
    assert ab_inprocess.main(argv) == 1
    assert capsys.readouterr().err == "error: the two trees' parsed programs differ\n"
    argv[3] = str(ROOT)
    assert ab_inprocess.main(argv) == 0
