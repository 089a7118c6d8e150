"""Dense linear algebra on bipartite registers plus seeded randomness.

Conventions: states are 1-D float or complex arrays.  A bipartite state with
local dimension d is indexed by k*d + j (first subsystem k, second subsystem
j), so ``psi.reshape(d, d)`` is the coefficient grid with rows indexed by the
first subsystem.  For any matrices M, N that grid transforms as
``M @ grid @ N.T`` under M (x) N, which is how every bilocal operation here
avoids materializing d^2 x d^2 matrices.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterator

import numpy as np

TOL = 1e-9
# Amplitudes per block of a batched figure run: one block's states and their
# temporaries stay under about 1 MiB, so peak memory does not grow with the
# sample count, while a block still holds hundreds of small samples.
BLOCK_AMPLITUDES = 1 << 13


def decimals(tokens: list[str]) -> tuple[int, ...]:
    """The tokens as ASCII decimal integers, ``-?[0-9]+``, the one integer rule of circuit
    files, integer options and $BELLCHECK_SEED; ValueError for any other token (``int``
    alone would also read ``+1``, ``0_1``, `` 1`` and non-ASCII digits)."""
    digits = "".join(tokens)
    if not digits.isascii() or (digits and not digits.replace("-", "").isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {' '.join(tokens)!r}")
    return tuple(map(int, tokens))  # int refuses a misplaced or repeated '-', and ''


def integer(token: str) -> int:
    """One token by ``decimals``: the type of every integer option, which argparse
    names in its refusal (``invalid integer value``)."""
    (value,) = decimals([token])
    return value


def check_params(d: int, m: int) -> None:
    """Reject a protocol size below the paper's d >= 2, m >= 2."""
    if d < 2 or m < 2:
        raise ValueError(f"need d >= 2 and m >= 2, got d={d}, m={m}")


def check_positive(noun: str, count: int) -> None:
    """Reject a count of ``noun`` (a sample, a qubit, a dimension) below one."""
    if count < 1:
        raise ValueError(f"need at least one {noun}, got {count}")


def check_fraction(noun: str, value: float) -> None:
    """Reject a ``noun`` outside the open interval (0, 1); a NaN fails (NaN compares False)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{noun} must be in (0, 1), got {value}")


def _gib(count: int) -> str:
    """``count`` bytes in GiB to three significant digits, as ``%.3g`` prints them."""
    try:
        return f"{count / 2**30:.3g}"
    except OverflowError:  # past the float range: the exact quotient, rounded once
        from decimal import Context
        return f"{Context(prec=3).divide(count, 2**30).normalize():g}"


def check_memory(task: str, need: int) -> None:
    """Refuse a task that needs more bytes than the machine's physical memory."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise ValueError(
            f"{task} needs about {_gib(need)} GiB, "
            f"more than the {_gib(physical)} GiB of physical memory"
        )


def check_width(task: str, n: int) -> None:
    """Refuse an n-qubit task before any power of n is formed once 2^n bytes, one per
    basis state, pass the float range (n >= 1024): ``check_memory`` names every smaller
    width's need, and past it forming 4^n or 8^n would itself take time and memory
    that grow with n."""
    if n >= sys.float_info.max_exp:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        raise ValueError(
            f"{task} needs more than 2^{n} bytes, "
            f"more than the {_gib(physical)} GiB of physical memory"
        )


def check_pair(a: np.ndarray, b: np.ndarray) -> int:
    """dim of two square matrices, or stacks (..., dim, dim), of one shape, or ValueError."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != a.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a.shape[-1]


def check_norms(amplitudes: np.ndarray) -> None:
    """Reject unless every state along the last axis has a norm within TOL of one;
    a NaN or inf norm fails (NaN compares False), and no arithmetic warning escapes."""
    with np.errstate(invalid="ignore", over="ignore"):
        drift = np.abs(np.sqrt(np.vecdot(amplitudes, amplitudes).real) - 1.0)
    if not np.all(drift <= TOL):
        raise ValueError("state is not normalized")


def check_amplitudes(psi: np.ndarray, d: int) -> None:
    """Reject unless the last axis holds the d*d amplitudes of a d x d bipartite state."""
    if psi.shape[-1:] != (d * d,):
        raise ValueError(f"state must have {d * d} amplitudes, got shape {psi.shape}")


def as_amplitudes(values) -> np.ndarray:
    """``values`` as float64 when real and complex128 when complex.

    Real states stay real, so no complex copy is made of them; an array
    that already has its dtype is returned as it is.
    """
    values = np.asarray(values)
    return values.astype(complex if np.iscomplexobj(values) else float, copy=False)


def check_state(psi: np.ndarray, d: int) -> np.ndarray:
    """A normalized d x d bipartite state as a float or complex array
    (``as_amplitudes``), or ValueError.

    Leading axes hold a stack of states, shape (..., d*d); every state in
    the stack must be normalized.
    """
    psi = as_amplitudes(psi)
    check_amplitudes(psi, d)
    check_norms(psi)
    return psi


def sample_blocks(samples: int, amplitudes: int) -> Iterator[tuple[int, int]]:
    """Consecutive [start, stop) ranges over ``samples`` items of ``amplitudes``
    amplitudes each, at most ``BLOCK_AMPLITUDES`` amplitudes (or one item) per range.

    The ranges are made as they are read, so their memory does not grow with ``samples``.
    """
    step = max(1, BLOCK_AMPLITUDES // amplitudes)
    return ((start, min(start + step, samples)) for start in range(0, samples, step))


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The replayable random stream keyed by ``(seed, stream_id)``, a numpy Generator.

    Equal keys reproduce the same draw sequence byte for byte; distinct
    stream ids yield statistically independent streams.  A stream is
    stateful and must stay confined to one logical task at a time.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id,)))


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled state sum_i |ii> / sqrt(d) on a d x d register."""
    check_positive("dimension", d)
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return psi


def apply_bilocal(m: np.ndarray, n: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply M (x) N to a bipartite state without forming the product matrix.

    Leading axes of M and N (shape (..., d, d)) and of psi (shape
    (..., d*d)) broadcast, giving a stack of states.
    """
    m = np.asarray(m)
    n = np.asarray(n)
    psi = np.asarray(psi)
    d = check_pair(m, n)
    check_amplitudes(psi, d)
    out = m @ psi.reshape(*psi.shape[:-1], d, d) @ np.swapaxes(n, -1, -2)
    return out.reshape(*out.shape[:-2], d * d)


def haar_orthogonal(gauss: np.ndarray) -> np.ndarray:
    """The Haar map: real orthogonal matrices from i.i.d. Gaussian ones, shape (..., dim, dim).

    QR decomposition of each matrix with the sign of R's diagonal absorbed
    into Q, which makes the distribution exactly Haar.  Each matrix of a
    stack maps as it would alone, bit for bit.
    """
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return q * signs[..., None, :]


def random_real_orthogonal(dim: int, rng: np.random.Generator,
                           size: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed real orthogonal matrices, shape (*size, dim, dim).

    ``haar_orthogonal`` of a stack drawn in C order from one Gaussian call,
    so it equals prod(size) single draws (``size=()``) made one after
    another, bit for bit.
    """
    check_positive("dimension", dim)
    return haar_orthogonal(rng.standard_normal((*size, dim, dim)))


def random_real_unit_vector(dim: int, rng: np.random.Generator,
                            size: tuple[int, ...] = ()) -> np.ndarray:
    """Uniform points on the unit sphere of R^dim (normalized Gaussian draws),
    shape (*size, dim).

    The stack equals prod(size) single draws (``size=()``) made one after
    another, bit for bit: a zero draw is replaced by the next one, as a
    single draw would redraw it, and is never divided by.
    """
    check_positive("dimension", dim)
    count = math.prod(size)
    v = rng.standard_normal((count, dim))
    norms = np.sqrt(np.vecdot(v, v))
    while not norms.all():
        keep = norms > 0.0
        v = np.concatenate([v[keep], rng.standard_normal((count - keep.sum(), dim))])
        norms = np.sqrt(np.vecdot(v, v))
    return (v / norms[:, None]).reshape(*size, dim)
