"""Gate-list circuits over a real gate set, a line-oriented text format,
unitary synthesis, the ancilla-doubling embedding and the embedded pair.

Bit convention: qubit 0 is the most significant bit of the basis-state
index, so an n-qubit basis index reads b(0) b(1) ... b(n-1) left to right.
All supported gates have real matrices, hence every circuit unitary here is
real orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import WrapDiagonals

_S = 1.0 / np.sqrt(2.0)

_TOFFOLI = np.eye(8)
_TOFFOLI[[6, 7]] = _TOFFOLI[[7, 6]]

GATE_MATRICES: dict[str, np.ndarray] = {
    "H": np.array([[_S, _S], [_S, -_S]]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "CX": np.array(
        [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0], [0, 0, 1.0, 0]]
    ),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]),
    "SWAP": np.array(
        [[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]]
    ),
    "TOFFOLI": _TOFFOLI,
}
for _mat in GATE_MATRICES.values():
    _mat.setflags(write=False)

GATE_ARITY = {name: mat.shape[0].bit_length() - 1 for name, mat in GATE_MATRICES.items()}


class CircuitParseError(ValueError):
    """Rejected circuit source or gate; carries the offending line number
    (None for a circuit built directly)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CircuitWidthError(CircuitParseError):
    """A gate references a qubit outside the declared register."""


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"circuit needs at least one qubit, got {self.n_qubits}")
        for gate in self.gates:
            _check_gate(gate.kind, gate.targets, self.n_qubits)


def _check_gate(kind: str, targets: tuple[int, ...], n_qubits: int, line: int | None = None):
    """The one gate rule: a known kind, its arity, distinct indices inside the register."""
    if kind not in GATE_MATRICES:
        raise CircuitParseError(f"unknown gate {kind!r}", line)
    arity = GATE_ARITY[kind]
    if len(targets) != arity:
        raise CircuitParseError(f"{kind} takes {arity} qubit index(es), got {len(targets)}", line)
    if min(targets) < 0:  # every gate has at least one index
        raise CircuitParseError(f"negative qubit index in {targets}", line)
    if len(set(targets)) != len(targets):
        raise CircuitParseError(f"repeated qubit index in {targets}", line)
    if max(targets) >= n_qubits:
        raise CircuitWidthError(
            f"qubit index {max(targets)} outside register of {n_qubits} qubits", line
        )


def parse_circuit(text: str) -> Circuit:
    """Parse line-oriented circuit source.

    Grammar: optional ``#`` comments anywhere; first meaningful line is
    ``qubits <n>``; each following line is a mnemonic plus 0-based qubit
    indices, controls before targets (``CX c t``; ``TOFFOLI c1 c2 t``).
    """
    n_qubits: int | None = None
    gates: list[Gate] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitParseError("expected 'qubits <n>' header", line_no)
            try:
                declared = int(tokens[1])
            except ValueError:
                raise CircuitParseError(f"invalid qubit count {tokens[1]!r}", line_no) from None
            if declared < 1:
                raise CircuitParseError(f"qubit count must be >= 1, got {declared}", line_no)
            n_qubits = declared
            continue
        kind = tokens[0]
        try:
            targets = tuple(int(tok) for tok in tokens[1:])
        except ValueError:
            raise CircuitParseError("qubit indices must be integers", line_no) from None
        _check_gate(kind, targets, n_qubits, line_no)
        gates.append(Gate(kind, targets))
    if n_qubits is None:
        raise CircuitParseError("missing 'qubits <n>' header", max(last_line, 1))
    return Circuit(n_qubits=n_qubits, gates=tuple(gates))


def _apply_gate(mat: np.ndarray, gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Left-multiply a small gate acting on the given qubits of the row index."""
    k = len(targets)
    t = mat.reshape((2,) * n + (-1,))
    t = np.moveaxis(t, targets, range(k))
    rest = t.shape[k:]
    t = (gate @ t.reshape(2**k, -1)).reshape((2,) * k + rest)
    t = np.moveaxis(t, range(k), targets)
    return t.reshape(mat.shape)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit, gates composed in application order."""
    dim = 2**circuit.n_qubits
    u = np.eye(dim)
    for gate in circuit.gates:
        u = _apply_gate(u, GATE_MATRICES[gate.kind], gate.targets, circuit.n_qubits)
    return u


def _cz_signs(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"need at least one qubit pair, got n={n}")
    idx = np.arange(1 << (2 * n))
    overlap = (idx >> n) & idx & ((1 << n) - 1)
    parity = np.zeros_like(idx)
    for i in range(n):
        parity ^= (overlap >> i) & 1
    return 1.0 - 2.0 * parity


def _qubit_count(u: np.ndarray) -> int:
    """n for a square 2^n x 2^n matrix with n >= 1, or ValueError."""
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"matrix must be square, got shape {u.shape}")
    dim = u.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"dimension must be a power of two >= 2, got {dim}")
    return n


def embed_double(u: np.ndarray) -> np.ndarray:
    """Embed an n-qubit unitary into 2n qubits as (CZ layer) @ (U (x) I).

    U acts on qubits 0..n-1; qubits n..2n-1 are ancillas; the CZ layer
    couples qubit i to ancilla n+i.  The embedding preserves the circuit
    distance and pins the Bell value to an exact function of it.
    """
    u = np.asarray(u)
    n = _qubit_count(u)
    return _cz_signs(n)[:, None] * np.kron(u, np.eye(1 << n))


def embedded_pair_state(u1: np.ndarray, u2: np.ndarray) -> WrapDiagonals:
    """The embedded pair applied to the maximally entangled state, in O(8^n).

    Equals ``apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))``
    with d = 4^n, as its wrap-diagonal layout.  As embed_double(U) = diag(c) (U (x) I),
    with c the CZ signs, the grid is diag(c) (W (x) I) diag(c), W = U1 U2^T / 2^n: only
    the 2^n diagonals at offsets t * 2^n are nonzero, and row t at index p * 2^n + q
    is c[p, q] * c[p + t, q] * W[p, p + t], indices mod 2^n.  Exact for complex U.
    """
    u1 = np.asarray(u1)
    u2 = np.asarray(u2)
    n = _qubit_count(u1)
    if u2.shape != u1.shape:
        raise ValueError(f"dimension mismatch: {u1.shape} vs {u2.shape}")
    dim = 1 << n
    w = u1 @ u2.T / dim  # sqrt(d) = dim
    c = _cz_signs(n).reshape(dim, dim)
    p = np.arange(dim)
    shifted = (p[:, None] + p) % dim  # [t, p] -> p + t
    return WrapDiagonals(p * dim, (c * c[shifted] * w[p, shifted][:, :, None]).reshape(dim, -1))
