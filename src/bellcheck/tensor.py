"""Dense complex linear algebra on bipartite registers plus seeded randomness.

Conventions: states are 1-D complex arrays.  A bipartite state with local
dimension d is indexed by k*d + j (first subsystem k, second subsystem j),
so ``psi.reshape(d, d)`` is the coefficient grid with rows indexed by the
first subsystem.  For any matrices M, N that grid transforms as
``M @ grid @ N.T`` under M (x) N, which is how every bilocal operation here
avoids materializing d^2 x d^2 matrices.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def check_params(d: int, m: int) -> None:
    """Reject a protocol size below the paper's d >= 2, m >= 2."""
    if d < 2 or m < 2:
        raise ValueError(f"need d >= 2 and m >= 2, got d={d}, m={m}")


def check_state(psi: np.ndarray, d: int) -> np.ndarray:
    """A normalized d x d bipartite state as a complex array, or ValueError."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (d * d,):
        raise ValueError(f"state must have {d * d} amplitudes, got shape {psi.shape}")
    if abs(np.linalg.norm(psi) - 1.0) > TOL:
        raise ValueError("state is not normalized")
    return psi


class RngStream:
    """Replayable random stream keyed by ``(seed, stream_id)``.

    Equal keys reproduce the same draw sequence byte for byte; distinct
    stream ids yield statistically independent streams.  A stream is
    stateful and must stay confined to one logical task at a time.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.gen = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        )

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled state sum_i |ii> / sqrt(d) on a d x d register."""
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return psi


def apply_bilocal(m: np.ndarray, n: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply M (x) N to a bipartite state without forming the product matrix."""
    m = np.asarray(m)
    n = np.asarray(n)
    psi = np.asarray(psi)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"M must be square, got shape {m.shape}")
    if n.shape != m.shape:
        raise ValueError(f"M and N shapes differ: {m.shape} vs {n.shape}")
    d = m.shape[0]
    if psi.shape != (d * d,):
        raise ValueError(f"state must have {d * d} amplitudes, got shape {psi.shape}")
    return (m @ psi.reshape(d, d) @ n.T).reshape(-1)


def random_real_orthogonal(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed real orthogonal matrix.

    QR decomposition of an i.i.d. Gaussian matrix with the sign of R's
    diagonal absorbed into Q, which makes the distribution exactly Haar.
    """
    if dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim}")
    g = rng.gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def random_real_unit_vector(dim: int, rng: RngStream) -> np.ndarray:
    """Uniform point on the unit sphere of R^dim (normalized Gaussian draw)."""
    if dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim}")
    while True:
        v = rng.gen.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 0.0:
            return v / norm
