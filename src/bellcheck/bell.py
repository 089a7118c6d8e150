"""Bell-expression evaluation by three independent routes, the weight table
and the round branches of the randomized protocol with their score-class
laws, CHSH quantities, and the analytic envelope and concentration bounds.

All three routes agree on any normalized state: the operator form sums
<A_i^l (x) conj(A_i^l)> over settings i and powers l, which collapses to
one basis change per setting, O(m d^3); the diagonal-sum form evaluates
it in O(R d) from R stored rows of the wrap-diagonal layout; the probability
form averages the expected round value over the class-law table of
``branch_laws``, read from the same layout.  They are tied together by
V = d*m*I' - m, where I' in [0, 1] is the normalized value.

A protocol round picks one branch index n in 0..2m-1, in
``protocol_branches`` order: n = 2(i - 1) + r for setting i in 1..m and
r in {0, 1}.  Row n of the class-law table is that branch's law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import (
    ALICE, WrapDiagonals, basis, chsh_observables, difference_distributions, wrap_diagonals,
)
from .tensor import RngStream, check_params, check_state, random_real_unit_vector


def bell_value_operator(psi: np.ndarray, d: int, m: int) -> float:
    """Bell value as the summed observable expectation, in O(m d^3).

    The powers A_i^l of setting i's observable are diagonal in Alice's
    setting-i basis V_i, so summing over l = 1..d-1 leaves
    sum_l <A_i^l (x) conj(A_i^l)> = d * sum_a |(V_i^H grid V_i)[a, a]|^2 - 1:
    one basis change per setting, and real by construction.
    """
    check_params(d, m)
    psi = check_state(psi, d)
    grid = psi.reshape(d, d)
    total = 0.0
    for i in range(1, m + 1):
        v = basis(d, m, i, ALICE)
        diag = np.einsum("ka,ka->a", v.conj(), grid @ v)
        total += d * float(np.sum(np.abs(diag) ** 2)) - 1.0
    return total


def bell_value_gamma(psi: np.ndarray | WrapDiagonals, d: int, m: int) -> float:
    """Bell value from wrap-diagonal sums of the coefficient grid, in O(R d).

    psi is a dense state (R = d) or a ``WrapDiagonals`` layout of R rows.
    V = m * sum over rows of (|sum of its upper entries|^2
                              + |sum of its wrapped entries|^2) - m.
    """
    check_params(d, m)
    layout, wrapped = wrap_diagonals(psi, d)
    upper = np.where(wrapped, 0, layout.rows).sum(axis=1)
    lower = np.where(wrapped, layout.rows, 0).sum(axis=1)
    return float(m * (np.sum(np.abs(upper) ** 2) + np.sum(np.abs(lower) ** 2)) - m)


def alpha_table(d: int, m: int) -> np.ndarray:
    """Read-only outcome-difference weights of the normalized Bell form,
    alpha_k = tan(pi/(2m)) * cot(pi*(k + 1/(2m))/d) / (2d), k = 0..d-1.

    |alpha_k| <= 1, strictly decreasing in k.
    """
    check_params(d, m)
    k = np.arange(d)
    theta = np.pi * (k + 1.0 / (2 * m)) / d
    values = np.tan(np.pi / (2 * m)) / (2 * d) * (np.cos(theta) / np.sin(theta))
    values.setflags(write=False)
    return values


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

    def class_distribution(self, diff_probs: np.ndarray) -> np.ndarray:
        """Class probabilities from P((a - b) mod d = c), a permutation of them."""
        probs = np.empty_like(diff_probs)
        probs[self.score_class(np.arange(diff_probs.size), 0)] = diff_probs
        return probs


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


def branch_laws(psi: np.ndarray | WrapDiagonals, d: int, m: int) -> np.ndarray:
    """(2m, d) table: row n is the law of ``protocol_branches(d, m)[n]``'s score class.

    Each row permutes the branch's difference distribution
    P((a - b) mod d | x, y), so no d x d outcome grid is formed.
    """
    branches = protocol_branches(d, m)
    diffs = difference_distributions(psi, [b.pair for b in branches], d, m)
    return np.array([b.class_distribution(q) for b, q in zip(branches, diffs)])


def normalized_bell_from_probabilities(laws: np.ndarray, d: int, m: int) -> float:
    """Normalized Bell value I' from the class-law table of ``branch_laws``.

    I' is the expected round value, the mean over the 2m branches of
    sum_k laws[n, k] * class_scores[k].  Satisfies d*m*I' - m = V and equals
    1 exactly on the maximally entangled state.
    """
    class_scores = protocol_branches(d, m)[0].class_scores
    laws = np.asarray(laws, dtype=float)
    if laws.shape != (2 * m, d):
        raise ValueError(f"class-law table has shape {laws.shape}, want {(2 * m, d)}")
    return float(np.sum(laws @ class_scores)) / (2 * m)


def chsh_value(psi: np.ndarray) -> float:
    """CHSH combination <A0 B0> + <A1 B0> + <A0 B1> - <A1 B1> on a two-qubit state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"CHSH needs a 4-amplitude state, got shape {psi.shape}")
    a0, a1, b0, b1 = chsh_observables()
    grid = psi.reshape(2, 2)

    def corr(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.vdot(grid, a @ grid @ b.T).real)

    return corr(a0, b0) + corr(a1, b0) + corr(a0, b1) - corr(a1, b1)


def chsh_saturation_residual(psi: np.ndarray) -> tuple[float, float]:
    """Norms of ((A0 +/- A1)/sqrt2 - B) applied to the state.

    Both vanish exactly at maximal CHSH violation and only there.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"CHSH needs a 4-amplitude state, got shape {psi.shape}")
    a0, a1, b0, b1 = chsh_observables()
    eye = np.eye(2)
    s = 1.0 / np.sqrt(2.0)

    def residual(a_comb: np.ndarray, b: np.ndarray) -> float:
        op = np.kron(a_comb, eye) - np.kron(eye, b)
        return float(np.linalg.norm(op @ psi))

    return residual((a0 + a1) * s, b0), residual((a0 - a1) * s, b1)


def lemma1_envelope(d: int, m: int) -> tuple[float, float]:
    """Bell-value range [-m, m(d-2)] for states orthogonal to the entangled one."""
    check_params(d, m)
    return -float(m), float(m * (d - 2))


def lemma2_bound(d: int, m: int, delta: float) -> float:
    """High-probability ceiling m*sqrt(4/(3*d*delta)) for uniformly random real states."""
    check_params(d, m)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return float(m * np.sqrt(4.0 / (3.0 * d * delta)))


def lemma2_exceedance(
    d: int, m: int, delta: float, samples: int, rng: RngStream
) -> tuple[float, float, np.ndarray]:
    """Empirical check of the random-state ceiling.

    Draws uniformly random real unit states, evaluates each Bell value, and
    returns (bound, fraction exceeding it, all values).  The fraction should
    not exceed delta beyond binomial noise.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    bound = lemma2_bound(d, m, delta)
    values = np.empty(samples)
    for idx in range(samples):
        psi = random_real_unit_vector(d * d, rng).astype(complex)
        values[idx] = bell_value_gamma(psi, d, m)
    fraction = float(np.mean(values > bound))
    return bound, fraction, values
