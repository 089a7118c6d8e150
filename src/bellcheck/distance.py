"""Circuit distance, the sandwich bounds implied by a Bell value, and the
exact inversion available after the ancilla-doubling embedding.

The distance is D(U1, U2) = sqrt(1 - |Tr(U1^T U2)/d|^2), with a plain
transpose as printed; for real circuits this coincides with the
conjugate-transpose convention, and for complex U the protocol certifies
U2 U1^T proportional to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import check_params

_RANGE_PAD = 1e-9


@dataclass(frozen=True)
class DistanceBounds:
    v: float
    lower: float
    upper: float
    d: int
    m: int


def circuit_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """sqrt(1 - |Tr(U1^T U2)/d|^2); zero iff equal up to a global phase."""
    u1 = np.asarray(u1)
    u2 = np.asarray(u2)
    if u1.ndim != 2 or u1.shape[0] != u1.shape[1]:
        raise ValueError(f"U1 must be square, got shape {u1.shape}")
    if u2.shape != u1.shape:
        raise ValueError(f"dimension mismatch: {u1.shape} vs {u2.shape}")
    d = u1.shape[0]
    overlap = np.trace(u1.T @ u2) / d
    return float(np.sqrt(np.clip(1.0 - abs(overlap) ** 2, 0.0, 1.0)))


def _check_v_range(v: float, d: int, m: int) -> None:
    if not (-m - _RANGE_PAD <= v <= m * (d - 1) + _RANGE_PAD):
        raise ValueError(
            f"Bell value {v} outside the physical range [{-m}, {m * (d - 1)}]"
        )


def _clamped_sqrt(radicand: float) -> float:
    return float(np.sqrt(np.clip(radicand, 0.0, 1.0)))


def distance_bounds_from_v(v: float, d: int, m: int) -> DistanceBounds:
    """Sandwich bounds on the circuit distance implied by an exact Bell value.

    lower = sqrt(1 - (V + m)/(m d)), upper = sqrt(1 - (V - m(d-2))/m), with
    radicands clamped to [0, 1] so statistical estimates of V stay legal.
    Both collapse to 0 exactly at the maximal value V = m(d-1).
    """
    check_params(d, m)
    v = float(v)
    _check_v_range(v, d, m)
    lower = _clamped_sqrt(1.0 - (v + m) / (m * d))
    upper = _clamped_sqrt(1.0 - (v - m * (d - 2)) / m)
    return DistanceBounds(v=v, lower=lower, upper=upper, d=d, m=m)


def distance_from_embedded_v(v: float, d: int, m: int) -> float:
    """Exact distance sqrt(1 - (V + m)/(m d)) after the doubling embedding.

    Valid only for embedded comparisons, where d = 4^n.  A radicand below
    d * eps is rounding residue of V, not a distance, and reads as 0.
    """
    check_params(d, m)
    n2 = d.bit_length() - 1
    if (1 << n2) != d or n2 % 2 != 0:
        raise ValueError(f"embedded protocol dimension must be a power of 4, got {d}")
    v = float(v)
    _check_v_range(v, d, m)
    radicand = 1.0 - (v + m) / (m * d)
    if radicand < d * np.finfo(float).eps:
        return 0.0
    return _clamped_sqrt(radicand)


def normalized_to_distance(i_prime: float) -> float:
    """Distance estimate sqrt(1 - I'), clamping I' into [0, 1] first."""
    clamped = min(1.0, max(0.0, float(i_prime)))
    return float(np.sqrt(1.0 - clamped))
