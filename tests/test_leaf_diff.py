"""``scripts/leaf_diff.py``: its comparison of canned leaves (no enumeration, no subprocess)."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("leaf_diff", ROOT / "scripts" / "leaf_diff.py")
leaf_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(leaf_diff)

STATES = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8j]])


def _leaves(probs=(0.25, 0.25, 0.5), outputs=((0,), (1,), (1,)), steps=(2, 2, 3), states=STATES):
    return np.array(probs), list(outputs), list(steps), np.array(states, dtype=complex)


def _records(*modes, name="msd-1-X"):
    return [(name, list(modes))]


def _verdict(ours, theirs, capsys):
    report = leaf_diff.compare(iter(ours), iter(theirs))
    return report, leaf_diff.verdict(report), capsys.readouterr().out


def test_identical_leaves_pass(capsys):
    error = "raised TooManyBranches: more than 20 branch events on a path"
    ours = _records(_leaves(), error)
    report, status, out = _verdict(ours, _records(_leaves(), error), capsys)
    assert status == 0 and report["structural"] == []
    assert (report["programs"], report["leaves"], report["leaves_differ"], report["max_damp"]) == (1, 3, 0, 0.0)
    assert out.startswith("1 programs, 0 differ; 3 leaves, 0 differ;")


def test_last_bit_differences_are_counted_and_pass(capsys):
    ulp = np.spacing(0.5)
    states = STATES.astype(complex)
    states[2, 1] += 3e-16
    theirs = _records(_leaves(probs=(0.25, 0.25, 0.5 + ulp), states=states), _leaves())
    report, status, _ = _verdict(_records(_leaves(), _leaves()), theirs, capsys)
    assert status == 0
    assert (report["programs_differ"], report["leaves_differ"]) == (1, 1)  # the same leaf in both ways
    assert report["max_dprob"] == ulp and abs(report["max_damp"] - 3e-16) < 1e-17


def test_a_difference_above_the_tolerance_fails(capsys):
    for theirs in (_leaves(probs=(0.25, 0.25 + 2e-12, 0.5)), _leaves(states=STATES + 2e-12)):
        report, status, _ = _verdict(_records(_leaves(), _leaves()), _records(_leaves(), theirs), capsys)
        assert status == 1 and report["structural"] == []


def test_structural_differences_fail(capsys):
    swapped = _leaves(outputs=((1,), (0,), (1,)))
    cases = {
        "count": _leaves(probs=(0.5, 0.5), outputs=((0,), (1,)), steps=(2, 3), states=STATES[:2]),
        "order": swapped,
        "steps": _leaves(steps=(2, 2, 4)),
        "error": "raised TooManyBranches: more than 20 branch events on a path",
    }
    for what, theirs in cases.items():
        report, status, out = _verdict(_records(_leaves(), _leaves()), _records(_leaves(), theirs), capsys)
        assert status == 1 and len(report["structural"]) == 1, what
        assert "structural: msd-1-X always" in out, what
    other_error = "raised ZoneViolation: qubit 1 at slot 3, plan expected 2"
    report, status, _ = _verdict(_records("raised X: a", _leaves()), _records(other_error, _leaves()), capsys)
    assert status == 1 and report["structural"] == ["msd-1-X conditional: raised X: a against " + other_error]


def test_a_program_missing_on_one_side_fails(capsys):
    ours = _records(_leaves(), _leaves()) + _records(_leaves(), _leaves(), name="msd-2-X")
    report, status, _ = _verdict(ours, _records(_leaves(), _leaves()), capsys)
    assert status == 1 and report["structural"] == ["program msd-2-X here, None on the other side"]
