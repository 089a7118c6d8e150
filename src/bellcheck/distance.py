"""Circuit distance, the sandwich bounds implied by a Bell value, and the
exact inversion available after the ancilla-doubling embedding.

The distance is D(U1, U2) = sqrt(1 - |Tr(U1^T U2)/d|^2), with a plain
transpose as printed; for real circuits this coincides with the
conjugate-transpose convention, and for complex U the protocol certifies
U2 U1^T proportional to the identity.  As Tr(U1^T U2) = Tr(U1 U2^T), it is
read from the trace of the pair's one matrix W = U1 U2^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import TOL, check_pair, check_params


@dataclass(frozen=True)
class DistanceBounds:
    lower: float | np.ndarray
    upper: float | np.ndarray


def circuit_distance(w: np.ndarray) -> float | np.ndarray:
    """sqrt(1 - |Tr W / d|^2) of W = U1 U2^T, in O(d).

    Zero iff U1 = U2 up to a phase in exact arithmetic.  The W of a joined
    equal pair (``circuit_unitary(pair_circuit(c, c))``) is I exactly, its word
    cancelled to nothing, and reads 0; a product of separately synthesized
    unitaries, U1 @ U2.T, reads rounding residue instead (D of 2.6e-8 to 4.7e-8
    for 40-gate circuits at n = 3..6).  A stack of W, shape (..., d, d), gives
    an array of shape (...).
    """
    w = np.asarray(w)
    d = check_pair(w, w)
    overlap = np.trace(w, axis1=-2, axis2=-1) / d
    return _clamped_sqrt(1.0 - abs(overlap) ** 2)


def _normalized(v, d: int, m: int) -> np.ndarray:
    """I' = (V + m)/(m d) of Bell values V, or ValueError for any I' outside
    [1 - (1 + TOL)^2, (1 + TOL)^2]: every state within TOL of unit norm
    (``check_norms``) gives a V inside it, as its V scales with the squared norm."""
    v = np.asarray(v, dtype=float)
    i_prime = (v + m) / (m * d)
    inside = (i_prime >= 1.0 - (1.0 + TOL) ** 2) & (i_prime <= (1.0 + TOL) ** 2)
    if not inside.all():
        raise ValueError(
            f"Bell value {v[~inside][0]} outside the physical range [{-m}, {m * (d - 1)}]"
        )
    return i_prime


def _clamped_sqrt(radicand):
    """sqrt of the radicand clamped to [0, 1]: a float for a scalar, else an array."""
    root = np.sqrt(np.minimum(np.maximum(radicand, 0.0), 1.0))
    return float(root) if root.ndim == 0 else root


def distance_bounds_from_v(v, d: int, m: int) -> DistanceBounds:
    """Sandwich bounds on the circuit distance implied by an exact Bell value.

    lower = sqrt(1 - (V + m)/(m d)), upper = sqrt(1 - (V - m(d-2))/m), with
    radicands clamped to [0, 1] so statistical estimates of V stay legal.
    Both collapse to 0 exactly at the maximal value V = m(d-1).  An array
    of values gives arrays of bounds; any value out of range rejects it.
    """
    check_params(d, m)
    v = np.asarray(v, dtype=float)
    lower = _clamped_sqrt(1.0 - _normalized(v, d, m))
    upper = _clamped_sqrt(1.0 - (v - m * (d - 2)) / m)
    return DistanceBounds(lower=lower, upper=upper)


def distance_from_embedded_v(v, d: int, m: int) -> float | np.ndarray:
    """Exact distance sqrt(1 - (V + m)/(m d)) after the doubling embedding.

    Valid only for embedded comparisons, where d = 4^n.  An array of values
    gives an array; any value out of range rejects it.
    """
    check_params(d, m)
    n2 = d.bit_length() - 1
    if (1 << n2) != d or n2 % 2 != 0:
        raise ValueError(f"embedded protocol dimension must be a power of 4, got {d}")
    return _clamped_sqrt(1.0 - _normalized(v, d, m))


def normalized_to_distance(i_prime) -> float | np.ndarray:
    """Distance estimate sqrt(1 - I'), its radicand clamped into [0, 1].

    An array of values gives an array.
    """
    return _clamped_sqrt(1.0 - np.asarray(i_prime, dtype=float))
