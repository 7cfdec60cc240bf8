"""End-to-end compilation driver: source text to executable program.

Pipeline: parse -> (flatten, peephole, or the passes selected) -> strict profile
validation -> if-conversion -> transport-chain analysis -> liveness /
interference / coloring -> register rewrite -> QCCD lowering.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import passes, predication, qccd, regalloc, textir
from .ir import Diagnostic, IonflowError, Module, diagnostics_ok, validate_profile
from .passes import FlattenConfig
from .qccd import CONDITIONAL, ExecProgram, TrapLayout


class CompileError(IonflowError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


DEFAULT_PASSES = ("flatten", "peephole")
DEFAULT_REGISTERS = 64


@dataclass(frozen=True)
class CompileResult:
    module: Module  # after the middle-end passes
    guarded: predication.GuardedFunction  # register-rewritten
    program: ExecProgram
    block_count: int
    colors_used: int
    new_guard_vregs: int
    planned_transport_steps: int


def run_passes(
    module: Module,
    pass_names: tuple[str, ...] = DEFAULT_PASSES,
    flatten_config: FlattenConfig = FlattenConfig(),
) -> Module:
    """Run the named passes in order."""
    for name in pass_names:
        if name == "fold":
            module = passes.fold_constants(module)
        elif name == "flatten":
            module = passes.flatten(module, flatten_config)
        elif name == "peephole":
            module = passes.peephole(module)
        else:
            raise IonflowError(f"unknown pass '{name}'")
    return module


def compile_module(
    module: Module,
    trap: TrapLayout | None = None,
    mode: str = CONDITIONAL,
    registers: int = DEFAULT_REGISTERS,
    pass_names: tuple[str, ...] = DEFAULT_PASSES,
    flatten_config: FlattenConfig = FlattenConfig(),
) -> CompileResult:
    pre = validate_profile(module, strict=False)
    if not diagnostics_ok(pre):
        raise CompileError(pre)
    module = run_passes(module, pass_names, flatten_config)
    post = validate_profile(module, strict=True)
    if not diagnostics_ok(post):
        raise CompileError(post)

    if trap is None:
        trap = TrapLayout.default(module.required_qubits)
    gf = predication.if_convert(module.entry_function)
    spans = regalloc.linearize(gf)
    chains = qccd.compute_chains(gf)
    extra = qccd.chain_liveness_uses(gf, chains, spans)
    ranges = regalloc.compute_liveness(gf, extra)
    graph = regalloc.build_interference(ranges)
    regfile = regalloc.color(graph, registers)
    rgf = regalloc.rewrite(gf, regfile)
    program = qccd.lower(rgf, module, trap, mode, n_regs=registers)
    colors = len(set(regfile.assignment.values())) if regfile.assignment else 0
    return CompileResult(
        module=module,
        guarded=rgf,
        program=program,
        block_count=len(module.entry_function.blocks),
        colors_used=colors,
        new_guard_vregs=gf.new_vregs,
        planned_transport_steps=program.planned_transport_steps,
    )


def compile_text(source: str, **kwargs) -> CompileResult:
    return compile_module(textir.parse(source), **kwargs)
