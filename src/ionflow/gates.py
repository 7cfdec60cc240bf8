"""Gate unitaries and conventions shared by the emulator and rule checking.

Conventions are fixed once so golden values stay stable:
  Rz(t) = diag(e^{-it/2}, e^{+it/2})
  Ry(t) = exp(-i t Y / 2),  Rx(t) = exp(-i t X / 2)
  cx(control, target), matrices in little-endian qubit order (bit k of the
  state index is qubit k).
"""

from __future__ import annotations

import functools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
TDG = T.conj().T


def rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


_FIXED_1Q = {
    "x": X,
    "y": Y,
    "z": Z,
    "h": H,
    "s": S,
    "sdg": SDG,
    "t": T,
    "tdg": TDG,
}

# cx in little-endian order for (control=bit0, target=bit1) would differ from
# textbook order; unitary_1q/unitary_2q below avoid the ambiguity by taking
# explicit qubit positions.
CX_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)  # basis |control target> with control the first tensor factor


def gate_unitary(name: str, angle: float | None = None) -> np.ndarray:
    """2x2 matrix for a 1-qubit gate, or the 4x4 cx matrix (control first)."""
    if name in _FIXED_1Q:
        return _FIXED_1Q[name]
    if name == "rx":
        return rx(float(angle))
    if name == "ry":
        return ry(float(angle))
    if name == "rz":
        return rz(float(angle))
    if name == "cx":
        return CX_MATRIX
    raise KeyError(name)


def sequence_unitary(gates: list[tuple[str, tuple[int, ...], float | None]], n_qubits: int) -> np.ndarray:
    """Unitary of a gate list over `n_qubits` little-endian qubits."""
    dim = 1 << n_qubits
    U = np.eye(dim, dtype=complex)
    for name, qubits, angle in gates:
        U = embed(name, qubits, angle, n_qubits) @ U
    return U


@functools.lru_cache(maxsize=256)
def embed(name: str, qubits: tuple[int, ...], angle: float | None, n_qubits: int) -> np.ndarray:
    """Dense 2ⁿ×2ⁿ matrix of one gate; cached and shared, so read-only."""
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    if name == "cx":
        c, t = qubits
        for i in range(dim):
            j = i ^ (1 << t) if (i >> c) & 1 else i
            out[j, i] = 1
    else:
        g = gate_unitary(name, angle)
        (q,) = qubits
        for i in range(dim):
            b = (i >> q) & 1
            for b2 in (0, 1):
                j = (i & ~(1 << q)) | (b2 << q)
                out[j, i] = g[b2, b]
    out.flags.writeable = False
    return out


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[idx]) < tol and abs(b[idx]) < tol:
        return _allclose(a, b, tol)
    if abs(b[idx]) < tol:
        return False
    phase = a[idx] / b[idx]
    if not math.isclose(abs(phase), 1.0, abs_tol=1e-9):
        return False
    return _allclose(a, phase * b, tol)


def _allclose(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """``np.allclose(a, b, atol=atol)`` for complex arrays: numpy's ``isclose``
    predicate at its default ``rtol``, written out without its argument handling."""
    with np.errstate(invalid="ignore"):
        return bool(((abs(a - b) <= atol + 1e-5 * abs(b)) & np.isfinite(b) | (a == b)).all())
