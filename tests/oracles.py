"""Reference implementations that only tests read.

Each oracle computes a quantity the long way, so the fast code in
``bellcheck`` can be compared against it.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bellcheck.bell import alpha_table
from bellcheck.circuit import GATE_MATRICES, Circuit, _cz_signs
from bellcheck.cli import FIG3_HEADER, _write_csv
from bellcheck.distance import circuit_distance
from bellcheck.measurement import ALICE, BOB, basis
from bellcheck.sampling import ShotPlan, estimate_distance
from bellcheck.tensor import (
    check_pair, check_params, check_state, random_real_orthogonal, rng_stream,
)


def cz_layer(n: int) -> np.ndarray:
    """Diagonal layer of CZ gates pairing qubit i with qubit n+i on 2n qubits."""
    return np.diag(_cz_signs(n))


def _apply_gate(mat: np.ndarray, gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Left-multiply a small gate acting on the given qubits of the row index."""
    k = len(targets)
    t = mat.reshape((2,) * n + (-1,))
    t = np.moveaxis(t, targets, range(k))
    rest = t.shape[k:]
    t = (gate @ t.reshape(2**k, -1)).reshape((2,) * k + rest)
    t = np.moveaxis(t, range(k), targets)
    return t.reshape(mat.shape)


def oracle_circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of the circuit, gates composed in application order.

    One moveaxis, reshape and 2^k x 2^k matmul per gate, straight from
    ``GATE_MATRICES``.
    """
    dim = 2**circuit.n_qubits
    u = np.eye(dim)
    for gate in circuit.gates:
        u = _apply_gate(u, GATE_MATRICES[gate.kind], gate.targets, circuit.n_qubits)
    return u


def bell_value_embedded(w: np.ndarray, m: int) -> float | np.ndarray:
    """Bell value of the embedded pair of W = U1 U2^T, m |Tr W|^2 - m, in O(2^n).

    Equals ``bell_value_gamma(embedded_pair_state(w), 4**n, m)`` without the
    8^n-entry layout: the CZ signs cancel the wrap sums of every layout row
    but row 0, whose entries sum to Tr W.  A stack of W gives an array.
    """
    w = np.asarray(w)
    dim = check_pair(w, w)
    check_params(dim * dim, m)
    v = m * np.abs(np.trace(w, axis1=-2, axis2=-1)) ** 2 - m
    return float(v) if v.ndim == 0 else v


def scaled_integer_unitary(s: np.ndarray, h: int) -> np.ndarray:
    """W = S 2^(-h/2) as floats from ``integer_unitary``'s (S, h), S int64 or Python ints.

    Each entry is S / 2^floor(h/2) rounded once, then divided by sqrt(2) if h is odd.
    """
    halve = np.vectorize(lambda entry: float(Fraction(int(entry), 1 << h // 2)), otypes=[float])
    return halve(s) / np.sqrt(2.0) ** (h % 2)


def observable_power(d: int, m: int, setting: int, power: int, party: str) -> np.ndarray:
    """Unitary power of the setting's observable.

    Alice's is sum_a omega^(a*power) |a><a| in her setting basis; Bob's is
    its entrywise complex conjugate.
    """
    if party not in (ALICE, BOB):
        raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {party!r}")
    if not 1 <= power <= d - 1:
        raise ValueError(f"power must be in 1..{d - 1}, got {power}")
    v = basis(d, m, setting, ALICE)
    omega = np.exp(2j * np.pi * np.arange(d) * power / d)
    mat = (v * omega) @ v.conj().T
    return mat if party == ALICE else mat.conj()


def outcome_distribution(psi: np.ndarray, x: int, y: int, d: int, m: int) -> np.ndarray:
    """Read-only (d, d) grid of joint outcome probabilities p(a, b | settings x, y)."""
    psi = check_state(psi, d)
    amp = basis(d, m, x, ALICE).conj().T @ psi.reshape(d, d) @ basis(d, m, y, BOB).conj()
    probs = np.abs(amp) ** 2
    probs.setflags(write=False)
    return probs


def oracle_operator_sum(psi, d, m):
    """Independent oracle: the literal O(m d^4) sum of <A_i^l (x) conj(A_i^l)>."""
    grid = np.asarray(psi).reshape(d, d)
    total = 0j
    for i in range(1, m + 1):
        for power in range(1, d):
            a = observable_power(d, m, i, power, ALICE)
            b_bar = observable_power(d, m, i, power, BOB)
            total += np.vdot(grid, a @ grid @ b_bar.T)
    assert abs(total.imag) < 1e-12
    return total.real


@dataclass(frozen=True)
class Branch:
    """One (r, i) round branch of the protocol.

    The round value of outcome pair (a, b) is ``class_scores[k]`` for its
    score class k = (sign * (a - b) + shift) mod d, so it depends on (a, b)
    only through (a - b) mod d.
    """

    label: str  # "A{i+r}B{i}"
    pair: tuple[int, int]  # settings (x, y) Alice and Bob measure
    sign: int  # +1 or -1
    shift: int
    class_scores: np.ndarray  # length d: round value of class k, in [-2, 2]

    def score_class(self, a, b):
        """Score class of outcome pair (a, b); broadcasts over arrays."""
        return (self.sign * (np.asarray(a) - b) + self.shift) % self.class_scores.size


def protocol_branches(d: int, m: int) -> tuple[Branch, ...]:
    """The 2m round branches (r, i), r in {0, 1}, i in 1..m, at index 2(i - 1) + r.

    Branch (0, i) measures settings (i, i) and scores 2*alpha[(a - b) mod d].
    Branch (1, i) measures (i+1, i) and scores 2*alpha[(b - a) mod d], where
    the (m+1)-th Alice setting is setting 1 with +1 added to its outcome mod
    d: branch (1, m) measures (1, m) and scores 2*alpha[(b - a - 1) mod d].
    """
    class_scores = 2.0 * alpha_table(d, m)
    class_scores.setflags(write=False)
    branches = []
    for i in range(1, m + 1):
        branches.append(Branch(f"A{i}B{i}", (i, i), 1, 0, class_scores))
        x, relabel = (i + 1, 0) if i < m else (1, 1)
        branches.append(Branch(f"A{i + 1}B{i}", (x, i), -1, -relabel, class_scores))
    return tuple(branches)


def _fig3_point(seed: int, n: int, pair_id: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One scatter point's Haar orthogonal pair, then its estimation seed, from one stream."""
    rng = rng_stream(seed, stream_id=pair_id + 1)
    dim = 2**n
    u1 = random_real_orthogonal(dim, rng)
    u2 = random_real_orthogonal(dim, rng)
    return u1, u2, int(rng.integers(1 << 63))


def per_pair_fig3(path, n: int, shots: int, samples: int, seed: int) -> float:
    """Reference for ``fig3``: one pair drawn and estimated at a time.

    Writes the CSV and returns the RMS error the command reports.
    """
    m = 2
    d = 4**n
    plan = ShotPlan(s=shots)
    errors = np.empty(samples)

    def rows():
        for pair_id in range(samples):
            u1, u2, pair_seed = _fig3_point(seed, n, pair_id)
            w = u1 @ u2.T
            d_true = circuit_distance(w)
            report = estimate_distance(w, m, plan, pair_seed)
            v_hat = d * m * report.x - m
            errors[pair_id] = report.distance_estimate - d_true
            yield [pair_id, n, shots, v_hat, d_true, report.distance_estimate]

    _write_csv(path, FIG3_HEADER, rows())
    return float(np.sqrt(np.mean(np.square(errors))))
