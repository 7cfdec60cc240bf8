"""ionflow: compiler and shot emulator for hybrid quantum/classical programs
targeting a simulated linear trapped-ion machine."""

from .emulator import NOISELESS, NoiseModel, ShotBatch, ShotResult, enumerate_outcomes, run_shots
from .experiments import ExperimentReport, MsdConfig, RusConfig, build_msd, build_rus, run_experiment, summarize
from .qccd import ALWAYS, CONDITIONAL, ExecProgram, TrapLayout
from .textir import ParseError, emit, parse
from .toolchain import CompileError, CompileResult, compile_module, compile_text

__version__ = "0.1.0"

__all__ = [
    "ALWAYS",
    "CONDITIONAL",
    "CompileError",
    "CompileResult",
    "ExecProgram",
    "ExperimentReport",
    "MsdConfig",
    "NOISELESS",
    "NoiseModel",
    "ParseError",
    "RusConfig",
    "ShotBatch",
    "ShotResult",
    "TrapLayout",
    "build_msd",
    "build_rus",
    "compile_module",
    "compile_text",
    "emit",
    "enumerate_outcomes",
    "parse",
    "run_experiment",
    "run_shots",
    "summarize",
]
