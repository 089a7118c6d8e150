"""Finite-shot Monte Carlo estimation of the normalized Bell value and of
the circuit distance, with Hoeffding shot planning.

One round draws a branch (r, i) uniformly from {0,1} x {1..m}; the parties
measure that branch's setting pair and its score grid values the outcome
pair (a, b), both as ``bell.protocol_branches`` defines them.  The round
mean X is an unbiased estimate of I' and every round value lies in
[-2, 2], which yields the s > 8*ln(1/delta)/epsilon^2 shot budget.

Outcomes are drawn from the exact joint distribution of each setting pair
by inverse CDF over the d^2 cells.  Round j of an estimation run consumes
row j of a draw table that is a pure function of (seed, j), so partitioning
rounds across workers cannot change the reported estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bell import protocol_branches
from .circuit import embedded_pair_state
from .distance import normalized_to_distance
from .measurement import outcome_distribution
from .tensor import RngStream


@dataclass(frozen=True)
class ShotPlan:
    """Shot budget, optionally carrying the accuracy target that produced it."""

    s: int
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"shot count must be >= 1, got {self.s}")


def plan_shots(epsilon: float, delta: float) -> ShotPlan:
    """Smallest integer s with s > 8*ln(1/delta)/epsilon^2 (natural logarithm).

    Round values lie in [-2, 2], so Hoeffding's inequality bounds each
    one-sided tail by exp(-s*epsilon^2/8) < delta: P(X - I' >= epsilon) and
    P(I' - X >= epsilon) are each at most delta, and together
    P(|X - I'| >= epsilon) <= 2*delta.  This is the paper's budget; a
    two-sided guarantee at level delta would need 8*ln(2/delta)/epsilon^2.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    s = math.floor(8.0 * math.log(1.0 / delta) / epsilon**2) + 1
    return ShotPlan(s=s, epsilon=epsilon, delta=delta)


@dataclass(frozen=True)
class EstimationReport:
    """Result of one estimation run; X is the raw (unclamped) round mean."""

    s: int
    x: float
    distance_estimate: float
    epsilon: float | None
    delta: float | None
    seed: int
    d: int
    m: int
    setting_tallies: dict[str, int] = field(default_factory=dict)


class RoundSampler:
    """Per-state tables for single protocol rounds.

    Precomputes, for each of the 2m branches of ``protocol_branches``, the
    flattened inverse CDF of the exact joint outcome distribution and the
    per-cell scores.
    """

    def __init__(self, psi: np.ndarray, d: int, m: int):
        branches = protocol_branches(d, m)
        self.d = d
        self.m = m
        self.labels = [b.label for b in branches]
        self._cdfs = [
            np.cumsum(outcome_distribution(psi, *b.pair, d, m).probs.reshape(-1)) for b in branches
        ]
        self._scores = [b.scores.reshape(-1) for b in branches]

    def evaluate(self, r: np.ndarray, i: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Round scores for draw arrays r in {0,1}, i in 1..m, u in [0,1)."""
        r = np.asarray(r)
        i = np.asarray(i)
        u = np.asarray(u, dtype=float)
        branch = (i - 1) * 2 + r
        out = np.empty(u.shape[0])
        top = self.d * self.d - 1
        for idx in range(2 * self.m):
            mask = branch == idx
            if not np.any(mask):
                continue
            cells = np.searchsorted(self._cdfs[idx], u[mask], side="right")
            np.clip(cells, 0, top, out=cells)
            out[mask] = self._scores[idx][cells]
        return out

    def tally(self, r: np.ndarray, i: np.ndarray) -> dict[str, int]:
        branch = (np.asarray(i) - 1) * 2 + np.asarray(r)
        counts = np.bincount(branch, minlength=2 * self.m)
        return {label: int(count) for label, count in zip(self.labels, counts)}


def draw_table(seed: int, s: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round draws (r, i, u) for rounds 0..s-1; row j depends only on (seed, j)."""
    rng = RngStream(seed)
    r = rng.gen.integers(2, size=s)
    i = rng.gen.integers(1, m + 1, size=s)
    u = rng.gen.random(s)
    return r, i, u


def estimate_normalized_bell(
    psi: np.ndarray, d: int, m: int, plan: ShotPlan, seed: int
) -> EstimationReport:
    """Run plan.s rounds and report the mean X with its accuracy certificate.

    X itself is never clamped (keeping it unbiased); only the derived
    distance estimate clamps into [0, 1].
    """
    sampler = RoundSampler(psi, d, m)
    r, i, u = draw_table(seed, plan.s, m)
    values = sampler.evaluate(r, i, u)
    x = float(values.mean())
    return EstimationReport(
        s=plan.s,
        x=x,
        distance_estimate=normalized_to_distance(x),
        epsilon=plan.epsilon,
        delta=plan.delta,
        seed=int(seed),
        d=d,
        m=m,
        setting_tallies=sampler.tally(r, i),
    )


def estimate_distance(
    u1: np.ndarray, u2: np.ndarray, m: int, plan: ShotPlan, seed: int
) -> EstimationReport:
    """Shot-sampled distance between two unitaries via the doubling embedding.

    Both inputs are embedded with ancillas, the embedded pair acts on the
    maximally entangled state, and the sampled X converts to a distance
    exactly (up to shot noise) because the embedding pins the Bell value
    to a function of the distance alone.
    """
    psi = embedded_pair_state(u1, u2)
    d = np.asarray(u1).shape[0] ** 2
    return estimate_normalized_bell(psi, d, m, plan, seed)
