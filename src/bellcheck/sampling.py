"""Finite-shot Monte Carlo estimation of the normalized Bell value and of
the circuit distance, with Hoeffding shot planning.

One round draws a branch index n uniformly from 0..2m-1; the parties
measure branch n's setting pair, and the score class of their outcome pair
(a, b) gives the round value, both as ``bell.branch_laws`` states them.
The round mean X is an unbiased estimate of I' and every round value lies in
[-2, 2], which yields the s > 8*ln(1/delta)/epsilon^2 shot budget.
``estimate_distance`` takes a pair of circuits as W = U1 U2^T.

A round's value depends on (a, b) only through the branch's score class,
a function of (a - b) mod d, so X and the per-branch tallies depend on the
rounds only through the 2m x d counts of (branch, class) cells.  Those
counts are drawn directly by ``draw_counts``, not round by round: cell
(n, c) has probability ``bell.branch_laws``[n, c] / (2m), and the rounds
come in dyadic blocks.
Block 0 covers rounds [0, DRAW_BLOCK) and block b >= 1 covers
[DRAW_BLOCK * 2^(b-1), DRAW_BLOCK * 2^b).  Block b draws one multinomial
over the cells from rng_stream(seed, stream_id=b): of the block's size when
the run covers the block, else of the run's rounds that fall in it.  The
counts therefore have the law of s i.i.d. rounds at O(m d log s) cost, the
counts of rounds [0, s) are a function of (seed, s), and every complete
block of a run is shared by all longer runs.

A stack of states, shape (...), has class laws and counts of shape
(..., 2m, d) and takes one seed per state; each state's counts are drawn
from its own seed, as they would be alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import alpha_table, branch_labels, branch_laws
from .circuit import embedded_pair_state
from .distance import normalized_to_distance
from .measurement import WrapDiagonals
from .tensor import check_fraction, rng_stream


# The counts of a run are numpy int64 values.
MAX_SHOTS = 2**63 - 1
# Rounds of block 0; block b >= 1 holds DRAW_BLOCK * 2^(b-1).
DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class ShotPlan:
    """Shot budget: the number s of protocol rounds, an integer 1 <= s <= MAX_SHOTS."""

    s: int

    def __post_init__(self):
        # numpy would truncate a fractional round count, and a bool is not a count
        if isinstance(self.s, bool) or not isinstance(self.s, (int, np.integer)):
            raise ValueError(f"shot count must be an integer, got {self.s!r}")
        if not 1 <= self.s <= MAX_SHOTS:
            raise ValueError(f"shot count must be in 1..2^63-1, got {self.s}")


def plan_shots(epsilon: float, delta: float) -> ShotPlan:
    """Smallest integer s with s > 8*ln(1/delta)/epsilon^2 (natural logarithm).

    Round values lie in [-2, 2], so Hoeffding's inequality bounds each
    one-sided tail by exp(-s*epsilon^2/8) < delta: P(X - I' >= epsilon) and
    P(I' - X >= epsilon) are each at most delta, and together
    P(|X - I'| >= epsilon) <= 2*delta.  This is the paper's budget; a
    two-sided guarantee at level delta would need 8*ln(2/delta)/epsilon^2.
    """
    check_fraction("epsilon", epsilon)
    check_fraction("delta", delta)
    try:
        s = math.floor(8.0 * math.log(1.0 / delta) / epsilon**2) + 1
    except (ZeroDivisionError, OverflowError):  # epsilon**2 underflows, or a quotient overflows
        raise ValueError(
            f"epsilon={epsilon}, delta={delta} need a shot count beyond 2^63-1"
        ) from None
    return ShotPlan(s=s)


@dataclass(frozen=True)
class EstimationReport:
    """Result of one estimation run; X is the raw (unclamped) round mean.

    A stack of states gives arrays of shape (...) for x and the distance
    estimate, and per branch label a nested list of tallies of shape (...).
    """

    s: int
    x: float | np.ndarray
    distance_estimate: float | np.ndarray
    setting_tallies: dict[str, int | list]


def draw_counts(laws: np.ndarray, seed: int | np.ndarray, s: int) -> np.ndarray:
    """(..., 2m, d) int64 counts of the (branch, class) cells over rounds [0, s).

    ``laws`` is a ``branch_laws`` table, or a stack of them with an array of
    seeds of shape (...), one per table; each table is drawn as it would be alone.
    """
    # each table's own sum, not 2m, so numpy's check that pvals sum to 1 holds
    cell_law = laws / laws.sum(axis=(-2, -1), keepdims=True)
    flat = cell_law.reshape(-1, math.prod(laws.shape[-2:]))
    counts = np.zeros(flat.shape, dtype=np.int64)
    for pvals, item, item_seed in zip(flat, counts, np.ravel(seed).tolist(), strict=True):
        block, start, stop = 0, 0, DRAW_BLOCK
        while start < s:
            item += rng_stream(item_seed, stream_id=block).multinomial(min(stop, s) - start, pvals)
            block, start, stop = block + 1, stop, 2 * stop
    return counts.reshape(laws.shape)


def estimate_normalized_bell(
    psi: np.ndarray | WrapDiagonals, d: int, m: int, plan: ShotPlan, seed: int | np.ndarray
) -> EstimationReport:
    """Run plan.s rounds and report their mean X.

    X itself is never clamped (keeping it unbiased); only the derived
    distance estimate clamps into [0, 1].  A stack of states takes one seed
    per state and runs plan.s rounds on each.
    """
    counts = draw_counts(branch_laws(psi, d, m), seed, plan.s)
    x = np.vecdot(counts.sum(axis=-2), 2.0 * alpha_table(d, m)) / plan.s
    x = float(x) if x.ndim == 0 else x
    tallies = counts.sum(axis=-1)
    return EstimationReport(
        s=plan.s,
        x=x,
        distance_estimate=normalized_to_distance(x),
        setting_tallies={
            label: tallies[..., n].tolist() for n, label in enumerate(branch_labels(m))
        },
    )


def estimate_distance(
    w: np.ndarray, m: int, plan: ShotPlan, seed: int | np.ndarray
) -> EstimationReport:
    """Shot-sampled distance between two unitaries, from W = U1 U2^T, by the embedding.

    Both unitaries are embedded with ancillas, the embedded pair acts on the
    maximally entangled state, and the sampled X converts to a distance
    exactly (up to shot noise) because the embedding pins the Bell value
    to a function of the distance alone.  A stack of W, shape
    (..., 2^n, 2^n), takes an array of seeds of shape (...), one per pair.
    """
    psi = embedded_pair_state(w)
    return estimate_normalized_bell(psi, psi.rows.shape[-1], m, plan, seed)
