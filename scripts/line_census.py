#!/usr/bin/env python3
"""List the executable lines of ``src/`` that a pytest run never executes.

A ``sys.settrace`` line tracer (stdlib only) runs pytest in this process,
over tier-1 unless pytest arguments are given, and records each line of a
``src/`` file that runs. A line is executable when the compiler gives it
bytecode (``co_lines`` of the file's code objects, nested ones included),
so docstrings, comments and blank lines do not count. The report lists, per
file, the executable lines that never ran, with their text, then the totals.

What the tracer cannot see counts as not run:

* worker processes the tests fork: each child switches the tracer off at
  the fork, so a line only a worker runs is not seen;
* subprocesses the tests start, which are not traced at all;
* a line reached only past the recursion limit, where Python drops the
  tracer; it is installed again before each test.

Tracing changes no setting of the machine and nothing outside this process.

Run from the repository root:

    PYTHONPATH=src python3 scripts/line_census.py            # tier-1
    PYTHONPATH=src python3 scripts/line_census.py tests/test_cli.py -q

The exit status is pytest's. Tracing makes the tests several times slower.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that carry bytecode."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class Tracer:
    """Records the lines that run in files under ``root``, by resolved path."""

    def __init__(self, root: Path):
        self.root = str(root.resolve()) + os.sep
        self.ran: dict[str, set[int]] = {}
        self._paths: dict[str, str | None] = {}  # code filename: its resolved path under root, or None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._paths:
            path = os.path.realpath(name)
            self._paths[name] = path if path.startswith(self.root) else None
        path = self._paths[name]
        if path is None:
            return None
        lines = self.ran.setdefault(path, set())
        lines.add(frame.f_code.co_firstlineno)  # a call runs the line of its def, which has no line event

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)

    def pytest_runtest_setup(self, item) -> None:  # a pytest hook: rearm after a test hit the recursion limit
        if sys.gettrace() is None:
            sys.settrace(self._call)


def _untrace() -> None:
    sys.settrace(None)
    threading.settrace(None)


def census(pytest_args: list[str]) -> tuple[int, dict[Path, list[int]], int]:
    """Run pytest under the tracer: its exit status, each file's never-run lines, and the executable line count."""
    import pytest

    tracer = Tracer(SRC)
    os.register_at_fork(after_in_child=_untrace)
    tracer.start()
    try:
        status = pytest.main(pytest_args, plugins=[tracer])
    finally:
        _untrace()
    missed, total = {}, 0
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        missed[path] = sorted(lines - tracer.ran.get(str(path.resolve()), set()))
    return int(status), missed, total


def report(missed: dict[Path, list[int]], total: int) -> str:
    out, never = [], 0
    for path, lines in missed.items():
        if not lines:
            continue
        never += len(lines)
        text = path.read_text().splitlines()
        out.append(f"{os.path.relpath(path, ROOT)}: {len(lines)} never ran")
        out += [f"  {n:5d}  {text[n - 1].strip()}" for n in lines]
    out.append(f"{never} of {total} executable src/ lines never ran")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    status, missed, total = census(argv or TIER1)
    print(report(missed, total))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
