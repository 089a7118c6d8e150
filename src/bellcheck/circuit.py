"""Gate-list circuits over a real gate set, a line-oriented text format,
unitary synthesis, the ancilla-doubling embedding and the embedded pair.

Bit convention: qubit 0 is the most significant bit of the basis-state
index, so an n-qubit basis index reads b(0) b(1) ... b(n-1) left to right.
All supported gates have real matrices, hence every circuit unitary here is
real orthogonal.

Synthesis acts on the rows of the d x d matrix, named by signed row
indices: j < d is row j, and j >= d is row j - d negated.  Each gate's row
action is read once from its matrix in ``GATE_MATRICES``: row i of the
product is one signed row (X, Z, CX, CZ, SWAP, TOFFOLI: a signed
permutation) or the sum of two signed rows over sqrt(2) (H: a butterfly)
of the matrix before it.  Signed permutations compose with one gather of
2d signed indices without touching the matrix, so a circuit costs O(d^2)
per H and O(d) per other gate.

There is one synthesis.  Without the 1/sqrt(2) of each H the sums stay
integers: ``integer_unitary`` gives W = S 2^(-h/2) with S an integer matrix,
so the Bell value and distance read from S are exact rationals, and
``circuit_unitary`` is its float view.  S is int64
while 2n + h <= 124, and past that while halving keeps it there (every entry
even: always for Clifford circuits); a circuit whose TOFFOLI gates leave an
odd entry past it, so with at least 125 - 2n H gates, goes on as Python ints,
several times slower.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .measurement import WrapDiagonals
from .tensor import check_memory, check_pair, check_positive, decimals

_S = 1.0 / np.sqrt(2.0)

_TOFFOLI = np.eye(8)
_TOFFOLI[[6, 7]] = _TOFFOLI[[7, 6]]

GATE_MATRICES: dict[str, np.ndarray] = {
    "H": np.array([[_S, _S], [_S, -_S]]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "CX": np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0], [0, 0, 1.0, 0]]),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]),
    "SWAP": np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]]),
    "TOFFOLI": _TOFFOLI,
}
for _mat in GATE_MATRICES.values():
    _mat.setflags(write=False)
# Every gate is a real symmetric involution (G^T = G = G^-1), so a circuit's unitary
# transposes by reversing its gates: ``pair_circuit`` builds W = U1 U2^T as one circuit.

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
        check_positive("qubit", self.n_qubits)
        for gate in self.gates:
            _check_gate(gate.kind, gate.targets, self.n_qubits)


def _check_gate(kind: str, targets: tuple[int, ...], n_qubits: int, line: int | None = None):
    """The one gate rule: a known kind, its arity, distinct indices inside the register."""
    arity = GATE_ARITY.get(kind)
    if arity is None:
        raise CircuitParseError(f"unknown gate {kind!r}", line)
    if len(targets) != arity:
        raise CircuitParseError(f"{kind} takes {arity} qubit index(es), got {len(targets)}", line)
    if min(targets) < 0:  # every gate has at least one index
        raise CircuitParseError(f"negative qubit index in {targets}", line)
    if len(set(targets)) != arity:
        raise CircuitParseError(f"repeated qubit index in {targets}", line)
    if max(targets) >= n_qubits:
        raise CircuitWidthError(
            f"qubit index {max(targets)} outside register of {n_qubits} qubits", line
        )


def parse_circuit(text: str) -> Circuit:
    """Parse line-oriented circuit source.

    Grammar: optional ``#`` comments anywhere; first meaningful line is
    ``qubits <n>``; each following line is a mnemonic plus 0-based qubit
    indices, controls before targets (``CX c t``; ``TOFFOLI c1 c2 t``).  The
    count and the indices are ASCII decimals (``tensor.decimals``).
    """
    n_qubits: int | None = None
    gates: list[Gate] = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitParseError("expected 'qubits <n>' header", line_no)
            try:
                (declared,) = decimals(tokens[1:])
            except ValueError:
                raise CircuitParseError(f"invalid qubit count {tokens[1]!r}", line_no) from None
            if declared < 1:
                raise CircuitParseError(f"qubit count must be >= 1, got {declared}", line_no)
            n_qubits = declared
            continue
        kind = tokens[0]
        try:
            targets = decimals(tokens[1:])
        except ValueError:
            raise CircuitParseError("qubit indices must be integers", line_no) from None
        _check_gate(kind, targets, n_qubits, line_no)
        gates.append(Gate(kind, targets))
    if n_qubits is None:
        raise CircuitParseError("missing 'qubits <n>' header", max(len(lines), 1))
    return _checked_circuit(n_qubits, tuple(gates))


def _checked_circuit(n_qubits: int, gates: tuple[Gate, ...]) -> Circuit:
    """A Circuit of gates that passed the gate rule, without __post_init__'s second pass."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "n_qubits", n_qubits)
    object.__setattr__(circuit, "gates", gates)
    return circuit


def pair_circuit(c1: Circuit, c2: Circuit) -> Circuit:
    """The circuit whose unitary is W = U1 U2^T: circuit 2 reversed, then circuit 1."""
    if c1.n_qubits != c2.n_qubits:
        raise CircuitWidthError(f"circuit widths differ: {c1.n_qubits} vs {c2.n_qubits} qubits")
    return _checked_circuit(c1.n_qubits, c2.gates[::-1] + c1.gates)


@functools.lru_cache(maxsize=128)
def _row_action(kind: str, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Read-only (w, 2^(n+1)) signed row indices ``act`` of the gate on n qubits:
    signed row j of (gate @ M) is signed row act[0, j] of M (w = 1: X, Z, CX,
    CZ, SWAP, TOFFOLI), or signed rows act[0, j] + act[1, j] of M over sqrt(2)
    (w = 2: H).  Signed row j >= d = 2^n is row j - d negated, so column
    j + d is column j XOR d.

    w is the count of nonzeros in each row of the gate's matrix, each of them
    +-1/sqrt(w).  An entry holds 16 w 2^n <= 32 * 2^n bytes, so the cache at
    most 4096 * 2^n: 64 MiB at n = 14, the widest comparison the size guard
    admits below 16 GiB of memory, whose S takes 2 GiB.
    """
    d = 1 << n
    spread = [0]  # spread[r]: the bits in the full index of the gate's local index r
    for t in targets:  # targets[0] is the gate's top bit
        spread = [s | b for s in spread for b in (0, 1 << (n - 1 - t))]
    # Local row r reads local column c: the full source index is i XOR spread[r ^ c],
    # plus the sign bit d when the entry is negative.
    masks = [
        [spread[r ^ c] | (d if v < 0 else 0) for c, v in enumerate(row) if v]
        for r, row in enumerate(GATE_MATRICES[kind].tolist())
    ]
    # One axis per bit of a signed index (axis 0 the sign bit, axis 1 + q qubit q),
    # so the mask table broadcasts over every bit the gate does not touch.
    shape = [1] * (n + 1)
    for t in targets:
        shape[1 + t] = 2
    by_qubit = sorted(range(len(targets)), key=targets.__getitem__)
    table = np.array(masks).T.reshape(-1, *[2] * len(targets))
    table = table.transpose(0, *[1 + q for q in by_qubit]).reshape(-1, *shape)
    act = (np.arange(2 * d).reshape([2] * (n + 1)) ^ table).reshape(len(table), 2 * d)
    act.setflags(write=False)
    return act


def integer_unitary(circuit: Circuit) -> tuple[np.ndarray, int]:
    """(S, h) with W = S 2^(-h/2) the circuit's matrix: S int64, or Python ints past int64.

    Signed-permutation gates fold into one pending map ``pend`` of the 2d
    signed row indices (signed row j of the pending product is signed row
    pend[j] of ``u``), one gather ``pend[act]`` per gate.  An H gate reads
    its two signed source rows through ``pend``, negates those with the sign
    bit, writes their sum into ``u``, counts its 1/sqrt(2) in h and resets
    ``pend``; the end applies it once.  |S| <= 2^(h/2), so a diagonal of S
    sums to at most 2^(n + h/2): past 2n + h = 124, near the int64 range,
    the rows halve while every entry is even, and go on as Python ints,
    which need no halving, once one is odd.
    """
    n = circuit.n_qubits
    dim = 1 << n
    u = np.eye(dim, dtype=np.int64)
    identity = np.arange(2 * dim)
    pend, h = identity, 0
    for i, gate in enumerate(circuit.gates):
        act = _row_action(gate.kind, gate.targets, n)
        if len(act) == 1:
            pend = pend[act[0]]
        else:
            src = pend[act][:, :dim]  # indexing by the strided half of act is slower
            rows = np.take(u, src, axis=0, mode="wrap")  # signed row j is row j mod d
            # Python ints: new ints only for the negated rows
            np.negative(rows, out=rows, where=src[:, :, None] >= dim)
            np.add(rows[0], rows[1], out=u)  # an H row sums two rows
            del rows  # free the 2 d^2 gather now: the peak stays at 3 d^2
            pend = identity
            h += 1
            while 2 * n + h > 124 and u.dtype != object:  # int64 near its range
                if (u & 1).any():
                    _check_python_ints(n, h + sum(g.kind == "H" for g in circuit.gates[i + 1:]))
                    u = u.astype(object)
                else:
                    u, h = u >> 1, h - 2
    pend = pend[:dim]
    u = np.take(u, pend, axis=0, mode="wrap")
    np.negative(u, out=u, where=pend[:, None] >= dim)
    return u, h


def _check_python_ints(n: int, h: int) -> None:
    """Refuse Python-int rows of an n-qubit S that cannot fit in physical memory.

    ``h`` bounds the final h and |S| <= 2^(h/2), so an entry is an int of at
    most h/2 + 2 bits, in blocks of 16 bytes.  An H step holds three d^2 arrays
    of references (S and the two gathered rows) and at most four ints per
    amplitude (the old and the new S, and the two negated rows).  With the
    fixed cost of a comparison (counted as 1 MiB), a cold n = 8 request
    whose S went on as Python ints at h = 115 traced 6.8 MB against 11.0 MB
    counted.
    """
    entry = -(-sys.getsizeof(1 << (h // 2 + 1)) // 16) * 16
    check_memory(f"{n}-qubit integer synthesis past int64", 2**20 + 4**n * (24 + 4 * entry))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix W of the circuit, gates composed in application order: the float
    view S 2^(-h/2) of ``integer_unitary``.  S / 2^floor(h/2) divides int by int, so
    each entry is rounded once, also for Python-int S past the float range; an odd h
    then divides by sqrt(2)."""
    s, h = integer_unitary(circuit)
    return (s / (1 << h // 2)).astype(float) / np.sqrt(2.0) ** (h % 2)


def _cz_signs(n: int) -> np.ndarray:
    check_positive("qubit pair", n)
    idx = np.arange(1 << (2 * n))
    overlap = (idx >> n) & idx & ((1 << n) - 1)
    return 1.0 - 2.0 * (np.bitwise_count(overlap) & 1)


def _qubit_count(dim: int) -> int:
    """n for a dimension 2^n with n >= 1, or ValueError."""
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
    n = _qubit_count(check_pair(u, u))
    return _cz_signs(n)[:, None] * np.kron(u, np.eye(1 << n))


def embedded_pair_state(w: np.ndarray) -> WrapDiagonals:
    """The embedded pair of W = U1 U2^T applied to the maximally entangled state, in O(8^n).

    Equals ``apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))``
    with d = 4^n, as its wrap-diagonal layout.  As embed_double(U) = diag(c) (U (x) I),
    with c the CZ signs, the grid is diag(c) (W (x) I) diag(c) / 2^n: only the 2^n
    diagonals at offsets t * 2^n are nonzero, and row t at index p * 2^n + q is
    c[p, q] * c[p + t, q] * W[p, p + t] / 2^n, indices mod 2^n.  Exact for complex U.

    A stack of W, shape (..., 2^n, 2^n), gives one layout whose rows have
    shape (..., 2^n, 4^n), each state equal to its pair's own bit for bit.
    """
    w = np.asarray(w)
    n = _qubit_count(check_pair(w, w))
    dim = 1 << n
    w = w / dim  # sqrt(d) = dim
    c = _cz_signs(n).reshape(dim, dim)
    p = np.arange(dim)
    shifted = (p[:, None] + p) % dim  # [t, p] -> p + t
    rows = c * c[shifted] * w[..., p, shifted][..., None]
    return WrapDiagonals(p * dim, rows.reshape(*w.shape[:-2], dim, -1))
