"""Finite-shot Monte Carlo estimation of the normalized Bell value and of
the circuit distance, with Hoeffding shot planning.

One round draws a branch index n uniformly from 0..2m-1; the parties
measure branch n's setting pair and its class scores value the outcome
pair (a, b), both as ``bell.protocol_branches`` defines them.  The round
mean X is an unbiased estimate of I' and every round value lies in
[-2, 2], which yields the s > 8*ln(1/delta)/epsilon^2 shot budget.

A round's value depends on (a, b) only through the branch's score class,
a function of (a - b) mod d, so outcomes are not drawn as cells of the d^2
grid: each branch holds a Walker/Vose alias table over its d classes, built
from its row of ``bell.branch_laws``, and a round draws its class in O(1).
Round j of an estimation run consumes row j of a draw table that is a pure
function of (seed, j), so partitioning rounds across workers, or extending
s, cannot change earlier rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bell import branch_laws, protocol_branches
from .circuit import embedded_pair_state
from .distance import normalized_to_distance
from .measurement import WrapDiagonals
from .tensor import RngStream


@dataclass(frozen=True)
class ShotPlan:
    """Shot budget: the number s of protocol rounds."""

    s: int

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
    return ShotPlan(s=s)


@dataclass(frozen=True)
class EstimationReport:
    """Result of one estimation run; X is the raw (unclamped) round mean."""

    s: int
    x: float
    distance_estimate: float
    setting_tallies: dict[str, int] = field(default_factory=dict)


class RoundSampler:
    """Per-state tables for single protocol rounds.

    For each of the 2m branches of ``protocol_branches``, an alias table over
    its d score classes, built from its row of ``branch_laws``: 2m x d
    entries, whatever the number of rounds.
    """

    def __init__(self, psi: np.ndarray | WrapDiagonals, d: int, m: int):
        branches = protocol_branches(d, m)
        self.d = d
        self.labels = [b.label for b in branches]
        tables = [_alias_table(law) for law in branch_laws(psi, d, m)]
        # Cell branch*d + c keeps class c with probability _prob[cell], else
        # takes class _alias[cell]; every branch shares the class scores.
        self._prob = np.concatenate([prob for prob, _ in tables])
        self._alias = np.concatenate([alias for _, alias in tables])
        self._scores = branches[0].class_scores

    def evaluate(self, branch: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Round scores for draw arrays branch in 0..2m-1 and u in [0,1).

        u * d splits into the column floor(u * d) and the coin frac(u * d);
        u < 1 keeps u * d below d after rounding.
        """
        scaled = np.asarray(u, dtype=float) * self.d
        col = scaled.astype(np.intp)
        cell = np.asarray(branch) * self.d + col
        keep = scaled - col < self._prob[cell]
        return self._scores[np.where(keep, col, self._alias[cell])]

    def tally(self, branch: np.ndarray) -> dict[str, int]:
        counts = np.bincount(branch, minlength=len(self.labels))
        return {label: int(count) for label, count in zip(self.labels, counts)}


def _alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table: column c keeps c with prob[c], else alias[c].

    Drawing the column uniformly gives class c with probability
    (prob[c] + sum over alias[j] = c of (1 - prob[j])) / n = probs[c].
    """
    n = probs.size
    scaled = (probs * n).tolist()
    prob = [1.0] * n
    alias = list(range(n))
    small = [c for c in range(n) if scaled[c] < 1.0]
    large = [c for c in range(n) if scaled[c] >= 1.0]
    while small and large:
        lo, hi = small.pop(), large[-1]
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(large.pop())
    return np.array(prob), np.array(alias, dtype=np.intp)


DRAW_BLOCK = 1 << 16


def draw_table(seed: int, s: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-round draws (branch, u) for rounds 0..s-1; row j depends only on (seed, j).

    Rows come in blocks of DRAW_BLOCK, block b from RngStream(seed,
    stream_id=b), two uniforms per row in row order: the first picks the
    branch index in 0..2m-1, the second is u.  Only the rows asked for are
    drawn.
    """
    draws = np.empty((s, 2))
    for block, lo in enumerate(range(0, s, DRAW_BLOCK)):
        RngStream(seed, stream_id=block).gen.random(out=draws[lo:lo + DRAW_BLOCK])
    # (1 - 2^-53) * 2m rounds below 2m, so the branch stays in range
    branch = (draws[:, 0] * (2 * m)).astype(np.intp)
    return branch, draws[:, 1]


def estimate_normalized_bell(
    psi: np.ndarray | WrapDiagonals, d: int, m: int, plan: ShotPlan, seed: int
) -> EstimationReport:
    """Run plan.s rounds and report their mean X.

    X itself is never clamped (keeping it unbiased); only the derived
    distance estimate clamps into [0, 1].
    """
    sampler = RoundSampler(psi, d, m)
    branch, u = draw_table(seed, plan.s, m)
    # u by keyword: bench/spans.py counts the rounds of a call from its u argument.
    values = sampler.evaluate(branch, u=u)
    x = float(values.mean())
    return EstimationReport(
        s=plan.s,
        x=x,
        distance_estimate=normalized_to_distance(x),
        setting_tallies=sampler.tally(branch),
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
    return estimate_normalized_bell(psi, psi.rows.shape[1], m, plan, seed)
