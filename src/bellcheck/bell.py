"""Bell-expression evaluation by three independent routes, the weight table
for the randomized protocol, CHSH quantities, and the analytic envelope and
concentration bounds.

All three routes agree on any normalized state: the operator form sums
<A_i^l (x) conj(A_i^l)> over settings i and powers l, which collapses to
one basis change per setting, O(m d^3); the diagonal-sum form evaluates
the same quantity in O(d^2) from the coefficient grid; the probability form
rescales outcome-difference statistics.  They are tied together by
V = d*m*I' - m, where I' in [0, 1] is the normalized value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .measurement import (
    ALICE,
    OutcomeDistribution,
    basis,
    chsh_observables,
    outcome_distribution,
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
        v = basis(d, m, i, ALICE).vectors
        diag = np.einsum("ka,ka->a", v.conj(), grid @ v)
        total += d * float(np.sum(np.abs(diag) ** 2)) - 1.0
    return total


def bell_value_gamma(psi: np.ndarray, d: int, m: int) -> float:
    """Bell value from wrap-diagonal sums of the coefficient grid, in O(d^2).

    V = m * sum_r (|sum of the r-th upper diagonal|^2
                   + |sum of the (r-d)-th wrapped diagonal|^2) - m.
    """
    check_params(d, m)
    psi = check_state(psi, d)
    grid = psi.reshape(d, d)
    total = 0.0
    for r in range(d):
        upper = grid.diagonal(r).sum()
        total += abs(upper) ** 2
        if r > 0:
            wrapped = grid.diagonal(r - d).sum()
            total += abs(wrapped) ** 2
    return float(m * total - m)


@dataclass(frozen=True)
class AlphaTable:
    """Outcome-difference weights for the normalized Bell form."""

    d: int
    m: int
    values: np.ndarray  # length d; |values| <= 1, strictly decreasing in k


def alpha_table(d: int, m: int) -> AlphaTable:
    """alpha_k = tan(pi/(2m)) * cot(pi*(k + 1/(2m))/d) / (2d), k = 0..d-1."""
    check_params(d, m)
    k = np.arange(d)
    theta = np.pi * (k + 1.0 / (2 * m)) / d
    values = np.tan(np.pi / (2 * m)) / (2 * d) * (np.cos(theta) / np.sin(theta))
    values.setflags(write=False)
    return AlphaTable(d=d, m=m, values=values)


@dataclass(frozen=True)
class Branch:
    """One (r, i) round branch of the protocol."""

    label: str  # "A{i+r}B{i}"
    pair: tuple[int, int]  # settings (x, y) Alice and Bob measure
    scores: np.ndarray  # (d, d) round value per outcome pair (a, b), in [-2, 2]


def protocol_branches(d: int, m: int) -> tuple[Branch, ...]:
    """The 2m round branches (r, i), r in {0, 1}, i in 1..m, in (i, r) order.

    Branch (0, i) measures settings (i, i) and scores 2*alpha[(a - b) mod d].
    Branch (1, i) measures (i+1, i) and scores 2*alpha[(b - a) mod d], where
    the (m+1)-th Alice setting is setting 1 with +1 added to its outcome mod
    d: branch (1, m) measures (1, m) and scores 2*alpha[(b - a - 1) mod d].
    """
    alpha = alpha_table(d, m).values
    a_idx = np.arange(d)[:, None]
    b_idx = np.arange(d)[None, :]
    branches = []
    for i in range(1, m + 1):
        branches.append(Branch(f"A{i}B{i}", (i, i), 2.0 * alpha[(a_idx - b_idx) % d]))
        x, relabel = (i + 1, 0) if i < m else (1, 1)
        branches.append(Branch(f"A{i + 1}B{i}", (x, i), 2.0 * alpha[(b_idx - a_idx - relabel) % d]))
    return tuple(branches)


def collect_distributions(psi: np.ndarray, d: int, m: int) -> dict[tuple[int, int], OutcomeDistribution]:
    """Exact outcome distributions for every setting pair the protocol needs."""
    return {b.pair: outcome_distribution(psi, *b.pair, d, m) for b in protocol_branches(d, m)}


def normalized_bell_from_probabilities(
    dists: Mapping[tuple[int, int], OutcomeDistribution], d: int, m: int
) -> float:
    """Normalized Bell value I' from outcome statistics.

    I' = (1/m) sum over the 2m protocol branches of the expected half-score,
    sum_{a,b} (scores[a, b] / 2) * P(a, b | pair).  Satisfies d*m*I' - m = V
    and equals 1 exactly on the maximally entangled state.
    """

    def grid_for(pair: tuple[int, int]) -> np.ndarray:
        if pair not in dists:
            raise ValueError(f"missing outcome distribution for setting pair {pair}")
        dist = dists[pair]
        if (dist.x, dist.y) != pair:
            raise ValueError(f"distribution labeled {(dist.x, dist.y)} supplied for pair {pair}")
        if dist.probs.shape != (d, d):
            raise ValueError(f"distribution for {pair} has shape {dist.probs.shape}, want {(d, d)}")
        return dist.probs

    acc = 0.0
    for branch in protocol_branches(d, m):
        acc += float(np.sum(0.5 * branch.scores * grid_for(branch.pair)))
    return acc / m


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
