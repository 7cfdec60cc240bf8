"""``scripts/line_census.py``: its tracer and executable lines, on a small module (no nested pytest run)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_census", ROOT / "scripts" / "line_census.py")
line_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_census)

PROBE = '''"""A module."""


def f(x):
    """Its docstring."""
    if x:
        return 1
    # a comment
    return 2
'''


def test_the_tracer_finds_the_line_a_call_never_ran(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(PROBE)
    lines = line_census.executable_lines(path)
    assert lines == {1, 4, 6, 7, 9}  # no docstring, comment or blank line
    tracer = line_census.Tracer(tmp_path)
    namespace = {}
    tracer.start()
    try:
        exec(compile(PROBE, str(path), "exec"), namespace)
        namespace["f"](1)
    finally:
        line_census._untrace()
    assert lines - tracer.ran[str(path.resolve())] == {9}
    assert line_census.report({path: [9]}, len(lines)).splitlines()[1:] == ["      9  return 2",
                                                                             "1 of 5 executable src/ lines never ran"]
