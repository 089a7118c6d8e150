"""Measurement bases that witness maximal Bell violation on the maximally
entangled state, their observable powers and outcome distributions, the
wrap-diagonal layout of a state with its outcome-difference marginals, CHSH
observables, and the single-qubit product decomposition with its readout.

Alice's setting-x basis vector for outcome a has amplitude
exp(+2*pi*i*k*(a - alpha_x)/d)/sqrt(d) at k with alpha_x = (x - 1/2)/m;
Bob's uses the opposite phase sign with beta_y = y/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .tensor import TOL, check_state

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
def basis(d: int, m: int, setting: int, party: str) -> np.ndarray:
    """Read-only (d, d) projective basis for one setting; column a is the
    outcome-a eigenvector.  Cached per (d, m, setting, party)."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    _check_setting(m, setting)
    shift, sign = _phase_params(party, m, setting)
    k = np.arange(d)[:, None]
    a = np.arange(d)[None, :]
    mat = np.exp(sign * 2j * np.pi * k * (a - shift) / d) / np.sqrt(d)
    mat.setflags(write=False)
    return mat


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


@dataclass(frozen=True, eq=False)
class WrapDiagonals:
    """A d x d coefficient grid by its wrap diagonals: rows[i, k] is
    grid[k, (k + offsets[i]) mod d], and every unlisted diagonal is zero."""

    offsets: np.ndarray  # (R,) distinct integers in 0..d-1
    rows: np.ndarray  # (R, d)


def wrap_diagonals(state: np.ndarray | WrapDiagonals, d: int) -> tuple[WrapDiagonals, np.ndarray]:
    """The checked layout of a dense state (all d rows) or of a layout, and its wrapped mask."""
    k = np.arange(d)
    if isinstance(state, WrapDiagonals):
        offsets = np.asarray(state.offsets)
        rows = np.asarray(state.rows, dtype=complex)
        if (offsets.ndim != 1 or offsets.dtype.kind not in "iu" or rows.shape != (offsets.size, d)
                or len({r for r in offsets.tolist() if 0 <= r < d}) != offsets.size):
            raise ValueError(f"layout needs (R, {d}) rows for R distinct offsets in 0..{d - 1}")
        if abs(np.linalg.norm(rows) - 1.0) > TOL:
            raise ValueError("state is not normalized")
        layout = WrapDiagonals(offsets, rows)
    else:
        grid = check_state(state, d).reshape(d, d)
        layout = WrapDiagonals(k, grid[k, (k[:, None] + k) % d])
    return layout, layout.offsets[:, None] + k >= d


def difference_distributions(
    psi: np.ndarray | WrapDiagonals, pairs: Sequence[tuple[int, int]], d: int, m: int
) -> np.ndarray:
    """P((a - b) mod d = c | x, y) for each setting pair, in O(R d log d) per pair.

    psi is a dense state or a layout of R rows; row p of the result is for
    ``pairs[p]``, and no d x d outcome grid is formed.  With j = (k + r) mod d,
    the amplitude of (a, b) is sum_r exp(2*pi*i*r*(b - beta)/d) F[r, (a - b) mod d] / d,
    where F is the DFT along k of the layout row of offset r, times the ramp
    exp(2*pi*i*k*(alpha - beta)/d) and, on wrapped entries, exp(2*pi*i*beta).
    Parseval over b then gives q[c] = sum_r |F[r, c]|^2 / d.
    """
    layout, wrapped = wrap_diagonals(psi, d)
    k = np.arange(d)
    out = np.empty((len(pairs), d))
    for p, (x, y) in enumerate(pairs):
        _check_setting(m, x)
        _check_setting(m, y)
        alpha, _ = _phase_params(ALICE, m, x)
        beta, _ = _phase_params(BOB, m, y)
        ramped = layout.rows * np.exp(2j * np.pi * k * (alpha - beta) / d)
        ramped[wrapped] *= np.exp(2j * np.pi * beta)
        f = np.fft.fft(ramped, axis=1)
        out[p] = (f.real**2 + f.imag**2).sum(axis=0) / d
    return out


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
