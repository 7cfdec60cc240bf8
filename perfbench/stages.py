"""The calls one program makes into ionflow's public API, untraced.

This is the measured path: each method is one call sequence a user of
ionflow makes, and the benchmark times each method as a whole.
"""

from __future__ import annotations

from ionflow import emulator, experiments, oracle, textir, toolchain


class PlainStages:
    def build(self, prog):
        module = prog.build()
        return module, textir.emit(module)

    def compile(self, source: str, mode: str):
        return toolchain.compile_text(source, mode=mode)

    def run_shots(self, program, noise, shots: int, seed: int):
        return emulator.run_shots(program, noise, shots, seed, jobs=1)

    def summarize(self, shots, prog, compiled):
        return experiments.summarize(
            shots, prog.family, prog.basis, prog.limit,
            style=prog.style, blocks=compiled.block_count, colors=compiled.colors_used,
        )

    def enumerate(self, module, compiled) -> dict[str, dict]:
        """Exact output distributions, the independent module walker first."""
        return {
            "oracle.enumerate_module": oracle.enumerate_module(module),
            "oracle.enumerate_guarded": oracle.enumerate_guarded(
                compiled.guarded, module.required_qubits, module.required_results
            ),
            "emulator.enumerate_outcomes": emulator.enumerate_outcomes(compiled.program),
        }
