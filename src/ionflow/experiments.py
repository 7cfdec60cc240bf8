"""Experiment builders, statistics and reference values.

Two program families, emitted as source text and compiled by the normal
pipeline:

* Magic-state distillation on the five-qubit code: up to N attempt rounds,
  each preparing five approximate copies of the magic state (Bloch vector
  (1,1,1)/sqrt(3)) with Ry/Rz rotations, running the code decoder (the
  encoder reversed), and measuring the four syndrome qubits. An all-zero
  syndrome heralds success (probability 1/6 on ideal inputs); the heralded
  output is a fixed single-qubit Clifford rotation away from the magic
  state, applied before the final basis measurement. Each round writes its
  own four result slots, so the last four slots read all-zero exactly when
  some round heralded success.

* The two-stage repeat-until-success circuit realizing V3 = (I + 2iZ)/sqrt(5)
  on a target qubit, with the gate content of the hand-written assembly
  version: both ancillas measured in the X basis, hard reset and full
  re-preparation on retry, final correction rz(2*atan(2)) = V3^dagger. The
  ``loop`` style wraps retries 2..N in the bounded-repeat sugar; the
  ``recursion`` style expresses them as a self-call taken on either failure
  path, which flattening expands into a branching tree of rounds. Both
  styles execute identical gates per attempt; only the control-flow shape
  differs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .emulator import MAX_BATCH_AMPLITUDES, NOISELESS, SHOT_BATCH, NoiseModel, ShotBatch, run_shots
from .ir import IonflowError, Module
from .qccd import CONDITIONAL, TrapLayout
from .textir import parse
from .toolchain import DEFAULT_REGISTERS, CompileResult, compile_module

PHI = math.acos(1.0 / math.sqrt(3.0))  # Ry angle preparing the magic-state latitude
THETA = math.pi / 4.0  # Rz angle rotating onto the (1,1,1) axis
ALPHA = 2.0 * math.atan(2.0)  # rz angle inverting V3 exactly (2.214297435588181)

# Per-attempt heralding probabilities on ideal inputs. Both are regression
# constants, fixed by the exact enumeration oracle (see test suite).
MSD_SUCCESS_PROBABILITY = 1.0 / 6.0
RUS_SUCCESS_PROBABILITY = 0.625

IDEAL_MAGIC_EXPECTATION = 1.0 / math.sqrt(3.0)

BASES = ("X", "Y", "Z")
STYLES = ("loop", "recursion")  # of RUS retries

# Five-qubit-code encoder for stabilizers XZZXI and its cyclic shifts, with
# logical X = XXXXX and logical Z = ZZZZZ; data on qubit 0, seeds on 1..4.
# Controlled-Z is spelled h/cx/h. Every gate below is self-inverse, so the
# decoder is simply the reversed list.


def _cz(a: int, b: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("h", (b,)), ("cx", (a, b)), ("h", (b,))]


ENCODER_GATES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("z", (0,)),
    ("h", (1,)),
    ("h", (2,)),
    ("h", (3,)),
    ("h", (4,)),
    ("cx", (4, 0)),
    ("cx", (3, 0)),
    ("cx", (2, 0)),
    ("cx", (1, 0)),
    *_cz(0, 4),
    *_cz(1, 2),
    *_cz(3, 4),
    *_cz(0, 1),
    *_cz(2, 3),
)

DECODER_GATES: tuple[tuple[str, tuple[int, ...]], ...] = tuple(reversed(ENCODER_GATES))

# The heralded decoder output is the magic state's antipode; this Clifford
# (circuit order) maps it back onto (1,1,1)/sqrt(3). Frozen from the oracle.
MSD_CORRECTION: tuple[tuple[str, tuple[int, ...]], ...] = (("x", (0,)), ("sdg", (0,)))


# Limit L declares 4L + 1 result slots, and the emulator runs at most
# MAX_BATCH_AMPLITUDES // SHOT_BATCH; a larger limit is refused before its
# source text, which grows with L, is built.
MAX_MSD_LIMIT = (MAX_BATCH_AMPLITUDES // SHOT_BATCH - 1) // 4


@dataclass(frozen=True)
class MsdConfig:
    limit: int = 1
    basis: str = "Z"

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise IonflowError("limit must be >= 0")
        if self.limit > MAX_MSD_LIMIT:
            raise IonflowError(f"limit must be <= {MAX_MSD_LIMIT}, got {self.limit}")
        if self.basis not in BASES:
            raise IonflowError(f"basis must be one of {BASES}")


@dataclass(frozen=True)
class RusConfig:
    limit: int = 1
    basis: str = "Z"
    style: str = "loop"

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise IonflowError("limit must be >= 1")
        if self.basis not in BASES:
            raise IonflowError(f"basis must be one of {BASES}")
        if self.style not in STYLES:
            raise IonflowError(f"style must be one of {STYLES}")


def _gate_lines(gates, indent="  ") -> list[str]:
    out = []
    for name, qubits in gates:
        out.append(f"{indent}{name} " + ", ".join(f"q{q}" for q in qubits))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def build_msd(cfg: MsdConfig) -> Module:
    """Magic-state distillation program with up to ``limit`` heralded rounds."""
    n = cfg.limit
    lines = [
        "module msd",
        f"attrs required_qubits={5 if n else 1} required_results={4 * n + 1}",
        "func @main() {",
    ]
    prep = []
    for q in range(5 if n else 1):
        prep.append(f"  ry({_fmt(PHI)}) q{q}")
        prep.append(f"  rz({_fmt(THETA)}) q{q}")

    if n == 0:
        lines += ["block measout:"]
        lines += ["  reset q0", prep[0], prep[1]]
        lines += _unprep_lines(cfg.basis, 0)
        lines += ["  mz q0 -> r0", "  output array_start", "  output result r0", "  output array_end", "  ret"]
        lines += ["}"]
        return parse("\n".join(lines) + "\n")

    for k in range(1, n + 1):
        base = 4 * (k - 1)
        nxt = f"round{k + 1}" if k < n else "nofix"
        lines.append(f"block round{k}:")
        for q in range(5):
            lines.append(f"  reset q{q}")
        lines += prep
        lines += _gate_lines(DECODER_GATES)
        for j in range(4):
            lines.append(f"  mz q{j + 1} -> r{base + j}")
        for j in range(4):
            lines.append(f"  %s{k}.{j} = read_result r{base + j}")
        for j in range(4):
            lines.append(f"  %z{k}.{j} = xor %s{k}.{j}, true")
        lines.append(f"  %a{k}.0 = and %z{k}.0, %z{k}.1")
        lines.append(f"  %a{k}.1 = and %a{k}.0, %z{k}.2")
        lines.append(f"  %ok{k} = and %a{k}.1, %z{k}.3")
        lines.append(f"  br %ok{k}, corr, {nxt}")
    lines += ["block nofix:", "  jmp measout"]
    lines.append("block corr:")
    lines += _gate_lines(MSD_CORRECTION)
    lines.append("  jmp measout")
    lines.append("block measout:")
    lines += _unprep_lines(cfg.basis, 0)
    lines.append(f"  mz q0 -> r{4 * n}")
    lines.append("  output array_start")
    base = 4 * (n - 1)
    for j in range(4):
        lines.append(f"  output result r{base + j}")
    lines.append(f"  output result r{4 * n}")
    lines.append("  output array_end")
    lines.append("  ret")
    lines.append("}")
    return parse("\n".join(lines) + "\n")


def _prep_lines(basis: str, q: int) -> list[str]:
    if basis == "X":
        return [f"  h q{q}"]
    if basis == "Y":
        return [f"  h q{q}", f"  s q{q}"]
    return []


def _unprep_lines(basis: str, q: int) -> list[str]:
    if basis == "X":
        return [f"  h q{q}"]
    if basis == "Y":
        return [f"  sdg q{q}", f"  h q{q}"]
    return []


def _rus_round_gates(basis: str) -> list[str]:
    """One attempt: hard reset, target prep, ancilla prep, stage-1 gates."""
    lines = ["  reset q2"]
    lines += _prep_lines(basis, 2)
    lines += ["  t q2", "  z q2", "  reset q0", "  reset q1", "  h q0", "  h q1"]
    lines += ["  tdg q0", "  cx q1, q0", "  t q0", "  h q0"]
    return lines


_RUS_STAGE2 = ["  cx q2, q1", "  t q1", "  h q1"]


def _rus_finale(basis: str) -> list[str]:
    lines = ["block finale:", f"  rz({_fmt(ALPHA)}) q2"]
    lines += _unprep_lines(basis, 2)
    lines += [
        "  mz q2 -> r2",
        "  output tuple_start",
        "  output result r0",
        "  output result r1",
        "  output result r2",
        "  output tuple_end",
        "  ret",
    ]
    return lines


def build_rus(cfg: RusConfig) -> Module:
    """Two-stage repeat-until-success program for V3, loop or recursion style."""
    if cfg.style == "loop":
        return _build_rus_loop(cfg)
    return _build_rus_recursion(cfg)


def _build_rus_loop(cfg: RusConfig) -> Module:
    lines = [
        "module rus_loop",
        "attrs required_qubits=3 required_results=3",
        "func @main() {",
        "block entry:",
    ]
    lines += _rus_round_gates(cfg.basis)
    lines += ["  mz q0 -> r0", "  %e.m0 = read_result r0", "  br %e.m0, r1end, stage2"]
    lines.append("block stage2:")
    lines += _RUS_STAGE2
    lines += ["  mz q1 -> r1", "  jmp r1end"]
    if cfg.limit > 1:
        lines += ["block r1end:", "  jmp chk"]
        lines.append(f"repeat {cfg.limit - 1} chk {{")
        lines.append("block rcheck:")
        lines += [
            "  %m0 = read_result r0",
            "  %m1 = read_result r1",
            "  %f0 = xor %m0, true",
            "  %f1 = xor %m1, true",
            "  %succ = and %f0, %f1",
            "  %retry = xor %succ, true",
            "  br %retry, rbody, next",
        ]
        lines.append("block rbody:")
        lines += _rus_round_gates(cfg.basis)
        lines += ["  mz q0 -> r0", "  %b.m0 = read_result r0", "  br %b.m0, next, rstage2"]
        lines.append("block rstage2:")
        lines += _RUS_STAGE2
        lines += ["  mz q1 -> r1", "  jmp next"]
        lines.append("}")
    else:
        lines += ["block r1end:", "  jmp finale"]
    lines += _rus_finale(cfg.basis)
    lines.append("}")
    return parse("\n".join(lines) + "\n")


def _build_rus_recursion(cfg: RusConfig) -> Module:
    lines = [
        "module rus_recursion",
        "attrs required_qubits=3 required_results=3",
        "func @main() {",
        "block entry:",
        f"  call @attempt({cfg.limit})",
        "  jmp finale",
    ]
    lines += _rus_finale(cfg.basis)
    lines.append("}")
    lines.append("func @attempt(%k: int) {")
    lines.append("block entry:")
    lines += _rus_round_gates(cfg.basis)
    lines += ["  mz q0 -> r0", "  %m0 = read_result r0", "  br %m0, fail1, stage2"]
    lines.append("block stage2:")
    lines += _RUS_STAGE2
    lines += ["  mz q1 -> r1", "  %m1 = read_result r1", "  br %m1, fail2, done"]
    # the stage-2 failure path comes first so the retry subtree it guards sits
    # right after the round it extends, keeping placement flowing down the
    # failure spine
    lines += [
        "block fail2:",
        "  %k2 = sub %k, 1",
        "  %more2 = cmp gt %k2, 0",
        "  br %more2, rec2, done",
        "block rec2:",
        "  call @attempt(%k2)",
        "  jmp done",
        "block fail1:",
        "  %k1 = sub %k, 1",
        "  %more1 = cmp gt %k1, 0",
        "  br %more1, rec1, done",
        "block rec1:",
        "  call @attempt(%k1)",
        "  jmp done",
        "block done:",
        "  ret",
        "}",
    ]
    return parse("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class EmptyInput(IonflowError):
    """No shots to summarize."""


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    style: str
    basis: str
    limit: int
    shots: int
    success_count: int
    success_fraction: float
    exp_x: float | None
    exp_y: float | None
    exp_z: float | None
    exp_x_uncond: float | None
    exp_y_uncond: float | None
    exp_z_uncond: float | None
    survival: float | None
    avg_transport: float
    blocks: int
    colors: int

    def csv_row(self) -> str:
        def f(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return ",".join(f(getattr(self, name)) for name in CSV_HEADER.split(","))


CSV_HEADER = "experiment,style,basis,limit,shots,success_fraction,exp_x,exp_y,exp_z,survival,avg_transport,blocks,colors"


def decode_record(outputs: tuple, experiment: str, limit: int) -> tuple[bool, int]:
    """(heralded, final bit) of one output record, read from its result bits.

    An MSD record holds the last round's four syndrome bits, then the final
    bit (only the final bit at limit 0); an RUS record holds the two ancilla
    bits, then the final bit. A record is heralded when every bit before the
    final one is 0.
    """
    if experiment == "msd":
        herald = 4 if limit else 0
    elif experiment == "rus":
        herald = 2
    else:
        raise IonflowError(f"unknown experiment '{experiment}'")
    bits = [b for b in outputs if type(b) is int]
    return not any(bits[:herald]), bits[herald]


def summarize(
    shots: ShotBatch,
    experiment: str,
    basis: str,
    limit: int,
    style: str = "",
    blocks: int = 0,
    colors: int = 0,
) -> ExperimentReport:
    """Aggregate a run's output records into the report row used by the CSV/JSON output.

    The shots are counted per distinct record over the output codes
    (``ShotBatch.records``), and each distinct record is decoded once; the
    row is built from the shot counts per (heralded, final bit), as Python
    numbers.
    """
    if not len(shots):
        raise EmptyInput("no shots to summarize")
    counts: Counter = Counter()
    for outputs, n in shots.records().items():
        counts[decode_record(outputs, experiment, limit)] += n
    n0, n1 = counts[True, 0], counts[True, 1]  # heralded shots by final bit
    success_count = n0 + n1
    exp_post = (n0 - n1) / success_count if success_count else None
    exp_all = (n0 + counts[False, 0] - n1 - counts[False, 1]) / len(shots)
    survival = n0 / success_count if experiment == "rus" and success_count else None
    per_basis = {b: (exp_post if b == basis else None) for b in BASES}
    per_basis_u = {b: (exp_all if b == basis else None) for b in BASES}
    return ExperimentReport(
        experiment=experiment,
        style=style,
        basis=basis,
        limit=limit,
        shots=len(shots),
        success_count=success_count,
        success_fraction=success_count / len(shots),
        exp_x=per_basis["X"],
        exp_y=per_basis["Y"],
        exp_z=per_basis["Z"],
        exp_x_uncond=per_basis_u["X"],
        exp_y_uncond=per_basis_u["Y"],
        exp_z_uncond=per_basis_u["Z"],
        survival=survival,
        avg_transport=int(shots.transport.sum()) / len(shots),
        blocks=blocks,
        colors=colors,
    )


def ideal_reference(kind: str, limit: int = 1) -> float:
    """Noiseless closed-form reference values."""
    if kind == "msd_cumulative":
        return 1.0 - (1.0 - MSD_SUCCESS_PROBABILITY) ** limit
    if kind == "msd_expectation":
        return IDEAL_MAGIC_EXPECTATION
    if kind == "rus_survival":
        return 1.0
    raise IonflowError(f"unknown reference '{kind}'")


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def compile_experiment(
    cfg: MsdConfig | RusConfig, trap: TrapLayout | None = None, mode: str = CONDITIONAL, registers: int = DEFAULT_REGISTERS
) -> CompileResult:
    """Build and compile one program of either family."""
    module = build_msd(cfg) if isinstance(cfg, MsdConfig) else build_rus(cfg)
    return compile_module(module, trap=trap, mode=mode, registers=registers)


def run_experiment(
    cfg: MsdConfig | RusConfig,
    shots: int,
    seed: int,
    noise: NoiseModel = NOISELESS,
    trap: TrapLayout | None = None,
    mode: str = CONDITIONAL,
    jobs: int = 1,
    registers: int = DEFAULT_REGISTERS,
) -> tuple[CompileResult, ShotBatch, ExperimentReport]:
    """Build, compile and sample one program of either family, and summarize it into a report row."""
    experiment, style = ("msd", "") if isinstance(cfg, MsdConfig) else ("rus", cfg.style)
    res = compile_experiment(cfg, trap, mode, registers)
    results = run_shots(res.program, noise, shots, seed, jobs)
    report = summarize(
        results, experiment, cfg.basis, cfg.limit, style=style, blocks=res.block_count, colors=res.colors_used
    )
    return res, results, report
