"""Seeded circuit-pair generator and the exact reference oracle.

The oracle is a bit-level simulator of its own, independent of
``bellcheck.circuit_unitary``.  Every gate in the set is a signed
permutation except H, so a circuit's unitary is an integer matrix S times
2**(-k/2), where k counts the H gates.  That makes the reference distance
exact: with T = sum(S1 * S2) over all entries,

    D_ref^2 = 1 - T^2 / (2**(k1 + k2) * d^2),

a rational number.  Planted ``rewrite`` pairs therefore give D_ref^2 == 0
exactly, not merely to rounding.

Qubit 0 is the most significant bit of a basis index, as in ``bellcheck``.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

ARITY = {"H": 1, "X": 1, "Z": 1, "CX": 2, "CZ": 2, "SWAP": 2, "TOFFOLI": 3}
KINDS = tuple(ARITY)
CLASSES = ("rewrite", "edit", "unrelated")
N_QUBITS = 4
GATES_PER_CIRCUIT = (36, 44)
REWRITE_PAIRS_INSERTED = 3
# An edit is redrawn until it moves the circuit at least this far, so that
# no "edit" pair lands near the verdict threshold.
MIN_EDIT_D2 = Fraction(1, 100)

Gate = tuple[str, tuple[int, ...]]


def simulate(gates: list[Gate], n: int) -> tuple[np.ndarray, int]:
    """Integer matrix S and H count k with U = S * 2**(-k/2)."""
    d = 1 << n
    idx = np.arange(d)
    s = np.eye(d, dtype=np.int64)
    k = 0

    def bit(q: int) -> np.ndarray:
        return (idx >> (n - 1 - q)) & 1

    def mask(q: int) -> int:
        return 1 << (n - 1 - q)

    for kind, t in gates:
        if kind == "H":
            lo = idx[bit(t[0]) == 0]
            hi = lo | mask(t[0])
            a0, a1 = s[lo].copy(), s[hi].copy()
            s[lo], s[hi] = a0 + a1, a0 - a1
            k += 1
        elif kind == "Z":
            s = s * (1 - 2 * bit(t[0]))[:, None]
        elif kind == "CZ":
            s = s * (1 - 2 * (bit(t[0]) & bit(t[1])))[:, None]
        else:
            # Every remaining gate is a permutation that is its own inverse,
            # so row y of the product is row perm[y] of the input.
            if kind == "X":
                perm = idx ^ mask(t[0])
            elif kind == "CX":
                perm = np.where(bit(t[0]) == 1, idx ^ mask(t[1]), idx)
            elif kind == "TOFFOLI":
                perm = np.where((bit(t[0]) & bit(t[1])) == 1, idx ^ mask(t[2]), idx)
            elif kind == "SWAP":
                differ = bit(t[0]) != bit(t[1])
                perm = np.where(differ, idx ^ mask(t[0]) ^ mask(t[1]), idx)
            else:
                raise ValueError(f"unknown gate {kind!r}")
            s = s[perm]
    if k > 100:
        raise ValueError(f"{k} H gates overflow the oracle's int64 amplitudes")
    return s, k


def oracle_unitary(gates: list[Gate], n: int) -> np.ndarray:
    """Floating-point unitary from the oracle, for cross-checks."""
    s, k = simulate(gates, n)
    return s * 2.0 ** (-k / 2)


def reference_d2(gates_a: list[Gate], gates_b: list[Gate], n: int) -> Fraction:
    """Exact squared circuit distance 1 - |Tr(Ua^T Ub)/d|^2."""
    sa, ka = simulate(gates_a, n)
    sb, kb = simulate(gates_b, n)
    trace = int(np.sum(sa.astype(object) * sb.astype(object)))
    return 1 - Fraction(trace * trace, (1 << (ka + kb)) * (1 << (2 * n)))


def circuit_text(gates: list[Gate], n: int) -> str:
    lines = [f"qubits {n}"] + [" ".join([kind, *map(str, t)]) for kind, t in gates]
    return "\n".join(lines) + "\n"


def _random_gate(rng: random.Random, n: int) -> Gate:
    kind = rng.choice([k for k in KINDS if ARITY[k] <= n])
    return kind, tuple(rng.sample(range(n), ARITY[kind]))


def _random_circuit(rng: random.Random, n: int) -> list[Gate]:
    return [_random_gate(rng, n) for _ in range(rng.randint(*GATES_PER_CIRCUIT))]


def _rewrite(rng: random.Random, gates: list[Gate], n: int) -> list[Gate]:
    """Same unitary: expand each SWAP into 3 CX, then insert self-inverse pairs."""
    out: list[Gate] = []
    for kind, t in gates:
        if kind == "SWAP":
            a, b = t
            out += [("CX", (a, b)), ("CX", (b, a)), ("CX", (a, b))]
        else:
            out.append((kind, t))
    for _ in range(REWRITE_PAIRS_INSERTED):
        gate = _random_gate(rng, n)
        pos = rng.randint(0, len(out))
        out[pos:pos] = [gate, gate]
    return out


def _edit(rng: random.Random, gates: list[Gate], n: int) -> list[Gate]:
    """Replace one gate by another that moves the unitary by D^2 >= MIN_EDIT_D2."""
    while True:
        out = list(gates)
        out[rng.randrange(len(out))] = _random_gate(rng, n)
        if reference_d2(gates, out, n) >= MIN_EDIT_D2:
            return out


@dataclass(frozen=True)
class Pair:
    klass: str
    path_a: str
    path_b: str
    d2_ref: Fraction

    @property
    def equivalent(self) -> bool:
        return self.d2_ref == 0


def generate_pairs(seed: int, count: int, out_dir: Path) -> list[Pair]:
    """Write ``count`` pairs of .qc files, classes in equal rotating shares."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = []
    for index in range(count):
        klass = CLASSES[index % len(CLASSES)]
        a = _random_circuit(rng, N_QUBITS)
        if klass == "rewrite":
            b = _rewrite(rng, a, N_QUBITS)
        elif klass == "edit":
            b = _edit(rng, a, N_QUBITS)
        else:
            b = _random_circuit(rng, N_QUBITS)
        d2 = reference_d2(a, b, N_QUBITS)
        if klass == "rewrite" and d2 != 0:
            raise RuntimeError(f"planted rewrite pair {index} has D^2 = {d2}")
        path_a = out_dir / f"pair{index:03d}_a.qc"
        path_b = out_dir / f"pair{index:03d}_b.qc"
        path_a.write_text(circuit_text(a, N_QUBITS), encoding="utf-8")
        path_b.write_text(circuit_text(b, N_QUBITS), encoding="utf-8")
        pairs.append(Pair(klass, str(path_a), str(path_b), d2))
    return pairs


def describe(pairs: list[Pair]) -> dict:
    """Class mix and the reference-distance distribution per class."""
    summary = {}
    for klass in CLASSES:
        ds = [float(p.d2_ref) ** 0.5 for p in pairs if p.klass == klass]
        if ds:
            summary[klass] = {
                "count": len(ds),
                "D_min": round(min(ds), 6),
                "D_median": round(statistics.median(ds), 6),
                "D_max": round(max(ds), 6),
            }
    return summary
