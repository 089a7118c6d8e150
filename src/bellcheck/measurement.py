"""Measurement bases that witness maximal Bell violation on the maximally
entangled state, their observable powers, outcome distributions, CHSH
observables, and the single-qubit product decomposition with its
sequential qubit-by-qubit readout.

Alice's setting-x basis vector for outcome a has amplitude
exp(+2*pi*i*k*(a - alpha_x)/d)/sqrt(d) at k with alpha_x = (x - 1/2)/m;
Bob's uses the opposite phase sign with beta_y = y/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import check_state

ALICE = "alice"
BOB = "bob"


def _phase_params(party: str, m: int, setting: int) -> tuple[float, float]:
    """(phase shift, sign of the exponent) for one party's setting."""
    if party == ALICE:
        return (setting - 0.5) / m, 1.0
    if party == BOB:
        return setting / m, -1.0
    raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {party!r}")


def _check_setting(m: int, setting: int) -> None:
    if m < 1:
        raise ValueError(f"settings count must be >= 1, got {m}")
    if not 1 <= setting <= m:
        raise ValueError(f"setting must be in 1..{m}, got {setting}")


@lru_cache(maxsize=32)
def _basis_matrix(d: int, m: int, setting: int, party: str) -> np.ndarray:
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    _check_setting(m, setting)
    shift, sign = _phase_params(party, m, setting)
    k = np.arange(d)[:, None]
    a = np.arange(d)[None, :]
    mat = np.exp(sign * 2j * np.pi * k * (a - shift) / d) / np.sqrt(d)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class MeasurementBasis:
    d: int
    m: int
    setting: int
    party: str
    vectors: np.ndarray  # (d, d); column a is the outcome-a eigenvector

    def vector(self, outcome: int) -> np.ndarray:
        return self.vectors[:, outcome]


def basis(d: int, m: int, setting: int, party: str) -> MeasurementBasis:
    """Projective basis for one setting; cached per (d, m, setting, party)."""
    return MeasurementBasis(
        d=d, m=m, setting=setting, party=party,
        vectors=_basis_matrix(int(d), int(m), int(setting), party),
    )


def observable_power(d: int, m: int, setting: int, power: int, party: str) -> np.ndarray:
    """Unitary power of the setting's observable.

    Alice's is sum_a omega^(a*power) |a><a| in her setting basis; Bob's is
    its entrywise complex conjugate.
    """
    if party not in (ALICE, BOB):
        raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {party!r}")
    if not 1 <= power <= d - 1:
        raise ValueError(f"power must be in 1..{d - 1}, got {power}")
    v = _basis_matrix(int(d), int(m), int(setting), ALICE)
    omega = np.exp(2j * np.pi * np.arange(d) * power / d)
    mat = (v * omega) @ v.conj().T
    return mat if party == ALICE else mat.conj()


@dataclass(frozen=True)
class OutcomeDistribution:
    x: int
    y: int
    probs: np.ndarray  # (d, d) grid p[a, b]


def outcome_distribution(psi: np.ndarray, x: int, y: int, d: int, m: int) -> OutcomeDistribution:
    """Joint outcome probabilities p(a, b | settings x, y) on a d x d state."""
    psi = check_state(psi, d)
    va = _basis_matrix(d, m, x, ALICE)
    vb = _basis_matrix(d, m, y, BOB)
    amp = va.conj().T @ psi.reshape(d, d) @ vb.conj()
    probs = np.abs(amp) ** 2
    probs.setflags(write=False)
    return OutcomeDistribution(x=x, y=y, probs=probs)


def _qubit_factor(j: int, value: int, shift: float, sign: float, d: int) -> np.ndarray:
    """(|0> + exp(sign * 2*pi*i * 2^(j-1) * (value - shift)/d) |1>)/sqrt(2)."""
    phase = np.exp(sign * 2j * np.pi * (1 << (j - 1)) * (value - shift) / d)
    return np.array([1.0, phase], dtype=complex) / np.sqrt(2.0)


def product_factors(n: int, m: int, setting: int, outcome: int, party: str) -> list[np.ndarray]:
    """Single-qubit factors whose tensor product is one basis eigenvector.

    Factor j (1-based, list index j-1) is ``_qubit_factor(j, outcome, ...)``;
    it carries the bit of weight 2^(j-1) of the outcome index and lives on
    qubit n-j under the most-significant-first convention, so assembling
    kron(factor_n, ..., factor_1) reproduces the eigenvector.  The
    decomposition exists only for qubit registers (d = 2^n).
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    d = 1 << n
    _check_setting(m, setting)
    if not 0 <= outcome < d:
        raise ValueError(f"outcome must be in 0..{d - 1}, got {outcome}")
    shift, sign = _phase_params(party, m, setting)
    return [_qubit_factor(j, outcome, shift, sign, d) for j in range(1, n + 1)]


def sequential_distribution(psi: np.ndarray, x: int, y: int, n: int, m: int) -> np.ndarray:
    """Exact joint outcome distribution from adaptive qubit-by-qubit readout.

    Each party measures factor j = n down to j = 1 (top wire first); the
    single-qubit basis at each step depends on the bits already observed,
    and the outcome index accumulates least-significant bit first.  Must
    agree with ``outcome_distribution`` on every state.
    """
    d = 1 << n
    psi = check_state(psi, d)
    _check_setting(m, x)
    _check_setting(m, y)
    a_shift, a_sign = _phase_params(ALICE, m, x)
    b_shift, b_sign = _phase_params(BOB, m, y)
    probs = np.zeros((d, d))

    def descend(state: np.ndarray, step: int, a_val: int, b_val: int, prob: float) -> None:
        if step == 2 * n:
            probs[a_val, b_val] = prob
            return
        on_alice = step < n
        j = n - (step % n)
        shift, sign = (a_shift, a_sign) if on_alice else (b_shift, b_sign)
        known = a_val if on_alice else b_val
        for bit in (0, 1):
            value = known + (bit << (n - j))
            v = _qubit_factor(j, value, shift, sign, d)
            child = np.tensordot(v.conj(), state, axes=(0, 0))
            p_branch = float(np.real(np.sum(child * child.conj())))
            if p_branch <= 0.0:
                continue
            collapsed = child / np.sqrt(p_branch)
            if on_alice:
                descend(collapsed, step + 1, value, b_val, prob * p_branch)
            else:
                descend(collapsed, step + 1, a_val, value, prob * p_branch)

    descend(psi.reshape((2,) * (2 * n)), 0, 0, 0, 1.0)
    return probs


def chsh_observables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CHSH observables (A0, A1, B0, B1) = (X, Z, (X+Z)/sqrt2, (X-Z)/sqrt2)."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    s = 1.0 / np.sqrt(2.0)
    return sx, sz, (sx + sz) * s, (sx - sz) * s
