"""``scripts/ab_inprocess.py``: two trees in one process, timed in alternating pairs (here the repository against itself)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "scripts" / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)


@pytest.mark.parametrize("op, noise", [("run_shots", "H1E_LIKE"), ("compile_text", "NOISELESS")])
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
