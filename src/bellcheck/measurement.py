"""Measurement bases that witness maximal Bell violation on the maximally
entangled state, the wrap-diagonal layout of a state, CHSH observables, and
the single-qubit product decomposition with its readout.  ``bell.branch_laws``
reads the outcome-difference laws of the protocol from the layout.

Alice's setting-x basis vector for outcome a has amplitude
exp(+2*pi*i*k*(a - alpha_x)/d)/sqrt(d) at k with alpha_x = (x - 1/2)/m;
Bob's uses the opposite phase sign with beta_y = y/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import as_amplitudes, check_norms, check_params, check_positive, check_state

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
    if not 1 <= setting <= m:
        raise ValueError(f"setting must be in 1..{m}, got {setting}")


@lru_cache(maxsize=32)
def basis(d: int, m: int, setting: int, party: str) -> np.ndarray:
    """Read-only (d, d) projective basis for one setting; column a is the
    outcome-a eigenvector.  Cached per (d, m, setting, party)."""
    check_params(d, m)
    _check_setting(m, setting)
    shift, sign = _phase_params(party, m, setting)
    k = np.arange(d)
    mat = np.exp(sign * 2j * np.pi * k[:, None] * (k - shift) / d) / np.sqrt(d)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class WrapDiagonals:
    """A d x d coefficient grid by its wrap diagonals: rows[..., i, k] is
    grid[k, (k + offsets[i]) mod d], and every unlisted diagonal is zero.
    Leading axes of ``rows`` hold a stack of grids."""

    offsets: np.ndarray  # (R,) distinct integers in 0..d-1
    rows: np.ndarray  # (..., R, d)


def wrap_diagonals(state: np.ndarray | WrapDiagonals, d: int) -> tuple[WrapDiagonals, np.ndarray]:
    """The checked layout of a dense state (all d rows) or of a layout, and its wrapped mask.

    A dense stack of states, shape (..., d*d), becomes one layout with rows
    of shape (..., d, d), and a layout's rows may hold a stack of states,
    shape (..., R, d), over one set of offsets; the (R, d) mask broadcasts
    against them.  Every state in a stack must be normalized.  Rows are
    float for a real state and complex for a complex one (``as_amplitudes``).
    """
    k = np.arange(d)
    if isinstance(state, WrapDiagonals):
        offsets = np.asarray(state.offsets)
        rows = as_amplitudes(state.rows)
        if (offsets.ndim != 1 or offsets.dtype.kind not in "iu"
                or rows.shape[-2:] != (offsets.size, d)
                or len({r for r in offsets.tolist() if 0 <= r < d}) != offsets.size):
            raise ValueError(
                f"layout needs (..., R, {d}) rows for R distinct offsets in 0..{d - 1}"
            )
        check_norms(rows.reshape(*rows.shape[:-2], -1))
        layout = WrapDiagonals(offsets, rows)
    else:
        # one gather of grid[..., k, (k + r) mod d] = psi[..., k d + (k + r) mod d]
        # into C-ordered rows, so each row sums in the same order stacked or alone
        psi = check_state(state, d)
        layout = WrapDiagonals(k, np.take(psi, k * d + (k[:, None] + k) % d, axis=-1))
    # (R,) int64 thresholds, not an (R, d) sum; narrow offset types cannot hold d
    return layout, k >= (d - layout.offsets.astype(np.int64))[:, None]


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
    check_positive("qubit", n)
    d = 1 << n
    check_params(d, m)
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
    agree on every state with the dense grid |V_x^H grid conj(W_y)|^2 of
    Alice's basis V_x and Bob's basis W_y (``basis``).
    """
    d = 1 << n
    check_params(d, m)
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
            a_next, b_next = (value, b_val) if on_alice else (a_val, value)
            descend(child / np.sqrt(p_branch), step + 1, a_next, b_next, prob * p_branch)

    descend(psi.reshape((2,) * (2 * n)), 0, 0, 0, 1.0)
    return probs


def chsh_observables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CHSH observables (A0, A1, B0, B1) = (X, Z, (X+Z)/sqrt2, (X-Z)/sqrt2)."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    s = 1.0 / np.sqrt(2.0)
    return sx, sz, (sx + sz) * s, (sx - sz) * s
