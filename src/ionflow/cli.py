"""Command-line interface.

Subcommands:
  compile     parse + pass pipeline + backend; emit text/guarded/exec forms
  run         compile and execute shots; per-shot CSV export
  experiment  build and run the msd / rus programs; report row as CSV/JSON
  report      merge report CSVs into one summary table (CSV + JSON)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import textir
from .emulator import NOISELESS, NoiseModel, check_jobs, check_shots, run_shots
from .experiments import CSV_HEADER, MsdConfig, RusConfig, compile_experiment, run_experiment
from .ir import IonflowError
from .passes import FlattenConfig
from .predication import format_guarded
from .qccd import ALWAYS, CONDITIONAL, TrapLayout
from .toolchain import DEFAULT_PASSES, DEFAULT_REGISTERS, CompileError, compile_module


def _add_target_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--registers", type=int, default=DEFAULT_REGISTERS, help="real-time register file size K")
    p.add_argument("--trap", type=Path, default=None, help="trap layout JSON (slots, gate_zones)")
    p.add_argument("--transport-mode", choices=[CONDITIONAL, ALWAYS], default=CONDITIONAL)


def _add_compile_opts(p: argparse.ArgumentParser) -> None:
    _add_target_opts(p)
    p.add_argument("--passes", default=",".join(DEFAULT_PASSES), help="comma list from: fold,flatten,peephole")
    p.add_argument("--max-inline-depth", type=int, default=64)
    p.add_argument("--max-unroll", type=int, default=1024)


def _add_run_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise", type=Path, default=None, help="noise model JSON")
    noise.add_argument("--noiseless", action="store_true", help="no noise (the default)")


def _decoded(read) -> str:
    """The text ``read()`` returns; text that is not UTF-8 is rejected input."""
    try:
        return read()
    except UnicodeDecodeError as e:
        raise IonflowError(str(e)) from None


def _load(path: Path | None, config, default):
    """``config.from_json`` of the file at ``path``, or ``default`` without one."""
    return default if path is None else config.from_json(_decoded(path.read_text))


def _compile_from_args(args):
    module = textir.parse(_decoded(sys.stdin.read if str(args.file) == "-" else Path(args.file).read_text))
    return compile_module(
        module,
        trap=_load(args.trap, TrapLayout, None),
        mode=args.transport_mode,
        registers=args.registers,
        pass_names=tuple(args.passes.split(",")) if args.passes else (),
        flatten_config=FlattenConfig(args.max_inline_depth, args.max_unroll),
    )


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def cmd_compile(args) -> int:
    res = _compile_from_args(args)
    if args.emit == "text":
        _write(textir.emit(res.module), args.output)
    elif args.emit == "guarded":
        _write(format_guarded(res.guarded), args.output)
    else:
        _write(res.program.to_json() + "\n", args.output)
    return 0


def cmd_run(args) -> int:
    res = _compile_from_args(args)
    noise = _load(args.noise, NoiseModel, NOISELESS)
    shots = run_shots(res.program, noise, args.shots, args.seed, args.jobs)
    lines = ["shot,outputs,executed_transport_steps,executed_gates,skipped_blocks"]
    for i, s in enumerate(shots):
        toks = ";".join(str(t) for t in s.outputs)
        lines.append(f"{i},{toks},{s.executed_transport_steps},{s.executed_gates},{s.skipped_blocks}")
    _write("\n".join(lines) + "\n", args.csv)
    return 0


def cmd_experiment(args) -> int:
    noise = _load(args.noise, NoiseModel, NOISELESS)
    noise = dataclasses.replace(noise, prep_overrotation=noise.prep_overrotation + args.overrotation)
    trap = _load(args.trap, TrapLayout, None)
    if args.kind == "msd":
        cfg = MsdConfig(limit=args.limit, basis=args.basis)
    else:
        cfg = RusConfig(limit=args.limit, basis=args.basis, style=args.style)
    if args.emit == "exec":  # the program alone: nothing is sampled, but the run options are still checked
        res = compile_experiment(cfg, trap, args.transport_mode, args.registers)
        check_shots(args.shots, args.seed)
        _write(res.program.to_json() + "\n", args.output)
        return 0
    _res, _shots, report = run_experiment(
        cfg, args.shots, args.seed, noise, trap, mode=args.transport_mode, jobs=args.jobs, registers=args.registers
    )
    csv_text = CSV_HEADER + "\n" + report.csv_row() + "\n"
    _write(csv_text, args.csv)
    if args.json is not None:
        args.json.write_text(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    return 0


_REPORT_KEYS = CSV_HEADER.split(",")
_TEXT_COLUMNS = ("experiment", "style", "basis")
_INT_COLUMNS = ("limit", "shots", "blocks", "colors")


def _report_record(row: str, where: str) -> dict:
    """One report row, typed as ``experiment --json`` writes it; an empty field is None."""
    vals = row.split(",")
    if len(vals) != len(_REPORT_KEYS):
        raise IonflowError(f"{where}: {len(vals)} fields, the header has {len(_REPORT_KEYS)}")
    record = {k: v or None for k, v in zip(_REPORT_KEYS, vals)}
    for k, v in record.items():
        if v is None or k in _TEXT_COLUMNS:
            continue
        try:
            record[k] = int(v) if k in _INT_COLUMNS else float(v)
        except ValueError:
            raise IonflowError(f"{where}: {k} is not a number: {v!r}") from None
        if not math.isfinite(record[k]):
            raise IonflowError(f"{where}: {k} is not finite: {v!r}")
    return record


def cmd_report(args) -> int:
    rows: list[str] = []
    records: list[dict] = []
    for f in args.files:
        lines = [(n, l) for n, l in enumerate(_decoded(Path(f).read_text).splitlines(), 1) if l.strip()]
        if not lines:
            continue
        if lines[0][1] != CSV_HEADER:
            raise IonflowError(f"{f} is not a report CSV (bad header)")
        for n, row in lines[1:]:
            records.append(_report_record(row, f"{f} line {n}"))
            rows.append(row)
    csv_text = CSV_HEADER + "\n" + "\n".join(rows) + ("\n" if rows else "")
    _write(csv_text, args.output)
    if args.json is not None:
        args.json.write_text(json.dumps(records, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ionflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a source file")
    c.add_argument("file", help="source path or - for stdin")
    c.add_argument("--emit", choices=["text", "guarded", "exec"], default="exec")
    c.add_argument("-o", "--output", type=Path, default=None)
    _add_compile_opts(c)
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("run", help="compile and run shots")
    r.add_argument("file", help="source path or - for stdin")
    r.add_argument("--csv", type=Path, default=None, help="per-shot CSV output path")
    _add_compile_opts(r)
    _add_run_opts(r)
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("experiment", help="run a built-in experiment")
    e.add_argument("kind", choices=["msd", "rus"])
    e.add_argument("--limit", type=int, required=True)
    e.add_argument("--basis", choices=["X", "Y", "Z"], default="Z")
    e.add_argument("--style", choices=["loop", "recursion"], default="loop")
    e.add_argument("--overrotation", type=float, default=0.0, help="added to the noise model's prep_overrotation")
    e.add_argument("--emit", choices=["report", "exec"], default="report")
    e.add_argument("--csv", type=Path, default=None)
    e.add_argument("--json", type=Path, default=None)
    e.add_argument("-o", "--output", type=Path, default=None)
    _add_target_opts(e)  # a built-in experiment always compiles with the default passes and budgets
    _add_run_opts(e)
    e.set_defaults(func=cmd_experiment)

    m = sub.add_parser("report", help="merge report CSVs")
    m.add_argument("files", nargs="+")
    m.add_argument("-o", "--output", type=Path, default=None)
    m.add_argument("--json", type=Path, default=None)
    m.set_defaults(func=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        check_jobs(getattr(args, "jobs", 1))
        return args.func(args)
    except CompileError as e:  # each diagnostic starts with its own severity
        print("\n".join(map(str, e.diagnostics)), file=sys.stderr)
        return 1
    except (IonflowError, OSError) as e:  # rejected input; any other exception is a bug
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
