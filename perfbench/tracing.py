"""Traced run: spans around the calls into each ionflow layer.

Spans are kept in memory and written out when the run ends. Each span
records its name, start, end, parent span and the run id, plus the counts
taken at the same call boundary. Per-layer metrics are summed per pass and
reported as the median over traced passes.

The traced compile calls the stages one by one, in the order of
``toolchain.compile_module``. The run checks that it produces the same
``ExecProgram`` as ``compile_text``, so the stage timings cannot drift from
the real pipeline.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from ionflow import emulator, ir, oracle, predication, qccd, regalloc, textir, toolchain

from stages import PlainStages

# compile stages, in pipeline order; their spans sit under one "compile" span
COMPILE_SPANS = (
    "textir.parse", "ir.validate", "passes.fold", "passes.flatten", "passes.peephole",
    "predication.if_convert", "regalloc.linearize", "qccd.chains", "regalloc.liveness",
    "regalloc.interference", "regalloc.color", "regalloc.rewrite", "qccd.lower",
)
LAYER_SPANS = COMPILE_SPANS + (
    "emulator.run_shots", "emulator.enumerate", "oracle.enumerate_module", "oracle.enumerate_guarded",
    "experiments.build", "experiments.summarize",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yields the span's count dict, which may be filled after the span ends."""
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}) + "\n")

    def pass_totals(self) -> list[dict[str, float]]:
        """Per traced pass: summed layer-span seconds (``<span>_s``) and counts."""
        passes: list[dict[str, float]] = []
        for rec in self.spans:
            if rec["name"] == "pass":
                passes.append({})
            if rec["name"] not in LAYER_SPANS and rec["name"] != "compile":
                continue
            tot = passes[-1]
            key = rec["name"] + "_s"
            tot[key] = tot.get(key, 0.0) + rec["end"] - rec["start"]
            for k, v in rec["counts"].items():
                tot[k] = tot.get(k, 0) + v
        return passes


def _instr_count(module: ir.Module) -> int:
    return sum(len(b.phis) + len(b.body) + 1 for b in module.entry_function.blocks)


class TracedStages(PlainStages):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def build(self, prog):
        with self.tracer.span("experiments.build"):
            return super().build(prog)

    def compile(self, source: str, mode: str) -> toolchain.CompileResult:
        span = self.tracer.span
        with span("compile"):
            with span("textir.parse") as c:
                module = textir.parse(source)
            c["textir.source_lines"] = source.count("\n")
            with span("ir.validate"):
                pre = ir.validate_profile(module, strict=False)
            if not ir.diagnostics_ok(pre):
                raise toolchain.CompileError(pre)
            for name in toolchain.DEFAULT_PASSES:
                before = module
                with span(f"passes.{name}") as c:
                    module = toolchain.run_passes(module, (name,))
                if name == "peephole":
                    c["passes.peephole_removed"] = _instr_count(before) - _instr_count(module)
            c["passes.blocks"] = len(module.entry_function.blocks)
            c["passes.instrs"] = _instr_count(module)
            with span("ir.validate"):
                post = ir.validate_profile(module, strict=True)
            if not ir.diagnostics_ok(post):
                raise toolchain.CompileError(post)
            with span("predication.if_convert") as c:
                gf = predication.if_convert(module.entry_function)
            c["predication.guarded_instrs"] = sum(len(b.prelude) + len(b.body) for b in gf.blocks)
            c["predication.guard_vregs"] = gf.new_vregs
            with span("regalloc.linearize"):
                spans = regalloc.linearize(gf)
            with span("qccd.chains") as c:
                chains = qccd.compute_chains(gf)
                extra = qccd.chain_liveness_uses(gf, chains, spans)
            c["qccd.chains"] = len(chains)
            with span("regalloc.liveness") as c:
                ranges = regalloc.compute_liveness(gf, extra)
            c["regalloc.vregs"] = len(ranges)
            with span("regalloc.interference") as c:
                graph = regalloc.build_interference(ranges)
            c["regalloc.edges"] = len(graph.edges)
            with span("regalloc.color") as c:
                regfile = regalloc.color(graph, toolchain.DEFAULT_REGISTERS)
            colors = len(set(regfile.assignment.values()))
            c["regalloc.colors"] = colors
            with span("regalloc.rewrite"):
                rgf = regalloc.rewrite(gf, regfile)
            with span("qccd.lower") as c:
                trap = qccd.TrapLayout.default(module.required_qubits)
                program = qccd.lower(rgf, module, trap, mode, n_regs=toolchain.DEFAULT_REGISTERS)
            c["qccd.exec_items"] = len(program.items)
            c["qccd.planned_transport_steps"] = program.planned_transport_steps
        return toolchain.CompileResult(
            module=module,
            guarded=rgf,
            program=program,
            block_count=len(module.entry_function.blocks),
            colors_used=colors,
            new_guard_vregs=gf.new_vregs,
            planned_transport_steps=program.planned_transport_steps,
        )

    def run_shots(self, program, noise, shots: int, seed: int):
        with self.tracer.span("emulator.run_shots") as c:
            out = super().run_shots(program, noise, shots, seed)
        marks = sum(1 for it in program.items if isinstance(it, qccd.MarkItem))
        c["emulator.shots"] = len(out)
        c["emulator.block_marks"] = marks * len(out)
        c["emulator.skipped_blocks"] = sum(s.skipped_blocks for s in out)
        c["emulator.executed_gates"] = sum(s.executed_gates for s in out)
        c["emulator.transport_steps"] = sum(s.executed_transport_steps for s in out)
        return out

    def summarize(self, shots, prog, compiled):
        with self.tracer.span("experiments.summarize"):
            return super().summarize(shots, prog, compiled)

    def enumerate(self, module, compiled) -> dict[str, dict]:
        span = self.tracer.span
        calls = (
            ("oracle.enumerate_module", "oracle", lambda: oracle.enumerate_module_leaves(module)),
            ("oracle.enumerate_guarded", "oracle", lambda: oracle.enumerate_guarded_leaves(
                compiled.guarded, module.required_qubits, module.required_results)),
            ("emulator.enumerate", "emulator", lambda: emulator.enumerate_exec_leaves(compiled.program)),
        )
        dists = {}
        for name, layer, call in calls:
            with span(name) as c:
                try:
                    leaves = call()
                except (oracle.TooManyBranches, emulator.TooManyBranches):
                    c["oracle.cap_hits"] = 1
                    raise
            c[f"{layer}.leaves"] = len(leaves)
            dist: dict[tuple, float] = {}
            for leaf in leaves:
                dist[leaf.outputs] = dist.get(leaf.outputs, 0.0) + leaf.prob
            dists[name] = dist
        return dists


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, untraced_walls: list[float], traced_walls: list[float]) -> dict[str, float]:
    """Median per-layer values over traced passes, plus the tracing overhead."""
    passes = tracer.pass_totals()
    keys = set().union(*passes)
    med = {k: statistics.median(p.get(k, 0) for p in passes) for k in keys}
    out = {f"{name}_s": med.get(f"{name}_s", 0.0) for name in LAYER_SPANS}
    for k in (
        "textir.source_lines", "passes.blocks", "passes.instrs", "passes.peephole_removed",
        "predication.guarded_instrs", "predication.guard_vregs", "regalloc.vregs", "regalloc.edges",
        "regalloc.colors", "qccd.chains", "qccd.exec_items", "qccd.planned_transport_steps",
        "emulator.leaves", "oracle.leaves", "oracle.cap_hits",
    ):
        out[k] = med.get(k, 0)
    shots = med.get("emulator.shots", 0)
    out["emulator.executed_block_frac"] = 1.0 - _ratio(med.get("emulator.skipped_blocks", 0), med.get("emulator.block_marks", 0))
    out["emulator.executed_gates_per_shot"] = _ratio(med.get("emulator.executed_gates", 0), shots)
    out["emulator.transport_steps_per_shot"] = _ratio(med.get("emulator.transport_steps", 0), shots)
    out["compile.stages_s"] = sum(out[f"{name}_s"] for name in COMPILE_SPANS)
    out["compile.traced_s"] = med.get("compile_s", 0.0)  # the stages' parent span
    u, t = statistics.median(untraced_walls), statistics.median(traced_walls)
    out["trace_overhead_frac"] = (t - u) / u
    return out
