"""Bell-expression evaluation by three independent routes, the weight table
and the score-class laws of the randomized protocol's round branches, CHSH
quantities, and the analytic envelope and concentration bounds.

All three routes agree on any normalized state: the operator form sums
<A_i^l (x) conj(A_i^l)> over settings i and powers l, which collapses to
one basis change per setting, O(m d^3); the diagonal-sum form evaluates
it in O(R d) from R stored rows of the wrap-diagonal layout; the probability
form averages the expected round value over the class-law table of
``branch_laws``, read from the same layout by four FFTs for any m, in
O(R d log d + m R d).  They are tied together by V = d*m*I' - m, where
I' in [0, 1] is the normalized value.

A protocol round picks one branch index n in 0..2m-1: n = 2(i - 1) + r for
setting i in 1..m and r in {0, 1}.  ``branch_laws`` states what branch n
measures and how it scores, and its row n is that branch's law;
``branch_labels`` names the rows.
"""

from __future__ import annotations

import numpy as np

from .measurement import (
    ALICE, BOB, WrapDiagonals, _phase_params, basis, chsh_observables, wrap_diagonals,
)
from .tensor import (
    check_fraction, check_params, check_positive, check_state, random_real_unit_vector,
    sample_blocks,
)


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


def bell_value_gamma(psi: np.ndarray | WrapDiagonals, d: int, m: int) -> float | np.ndarray:
    """Bell value from wrap-diagonal sums of the coefficient grid, in O(R d).

    psi is a dense state (R = d), a dense stack of states, shape (..., d*d),
    or a ``WrapDiagonals`` layout of R rows.
    V = m * sum over rows of (|sum of its upper entries|^2
                              + |sum of its wrapped entries|^2) - m.
    One state gives a float and a stack an array of shape (...), each
    entry equal to that state's own value bit for bit.
    """
    check_params(d, m)
    layout, wrapped = wrap_diagonals(psi, d)
    upper = np.where(wrapped, 0, layout.rows).sum(axis=-1)
    lower = np.where(wrapped, layout.rows, 0).sum(axis=-1)
    v = m * (np.sum(np.abs(upper) ** 2, axis=-1) + np.sum(np.abs(lower) ** 2, axis=-1)) - m
    return float(v) if v.ndim == 0 else v


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


def branch_labels(m: int) -> list[str]:
    """Label "A{i+r}B{i}" of each round branch (r, i), in ``branch_laws`` row order.

    The wrapped branch (1, m) keeps the label A{m+1}B{m}.
    """
    return [f"A{i + r}B{i}" for i in range(1, m + 1) for r in (0, 1)]


def branch_laws(psi: np.ndarray | WrapDiagonals, d: int, m: int) -> np.ndarray:
    """(..., 2m, d) table of the score-class laws of the 2m round branches.

    psi is one state or a stack of states, dense or as a ``WrapDiagonals``
    layout; a stack gives one (2m, d) table per state, each equal to that
    state's own table bit for bit.

    A round picks branch (r, i), r in {0, 1} and setting i in 1..m, at row
    n = 2(i - 1) + r.  Branch (0, i) measures settings (i, i) and scores an
    outcome pair (a, b) as 2*alpha[(a - b) mod d]; branch (1, i) measures
    (i + 1, i) and scores 2*alpha[(b - a) mod d], where the (m+1)-th Alice
    setting is setting 1 with +1 added to its outcome mod d, so branch (1, m)
    measures (1, m) and scores 2*alpha[(b - a - 1) mod d].  Row n is the law
    of that branch's score class k, whose round value is 2*alpha[k] for
    alpha = ``alpha_table(d, m)``.

    Four FFTs serve every m, and no d x d outcome grid is formed.  Under
    settings (x, y), let F_u and F_w be the DFTs along k of the layout rows
    times exp(2*pi*i*k*(alpha_x - beta_y)/d), upper and wrapped entries apart.
    Parseval over b gives
    P((a - b) mod d = c) = sum over rows of |F_u[c] + exp(2*pi*i*beta_y) F_w[c]|^2 / d.
    As branch (r, i) measures (i + r, i), alpha - beta is (2r - 1)/(2m) for
    every i and F_u, F_w depend on r alone; an r = 1 law is index-reversed,
    as it scores (b - a) mod d.  The wrapped branch (1, m) has alpha - beta
    one less, which rolls its classes by one and cancels its -1 relabel.
    """
    check_params(d, m)
    layout, wrapped = wrap_diagonals(psi, d)
    laws = np.empty((*layout.rows.shape[:-2], 2 * m, d))
    ramp = np.empty(d, dtype=complex)
    # complex work arrays: a real layout's rows stay real until the ramp multiplies them
    upper, lower, f = (np.empty(layout.rows.shape, dtype=complex) for _ in range(3))
    for r in (0, 1):
        ramp[:] = np.arange(d)
        ramp *= 2j * np.pi * (_phase_params(ALICE, m, 1 + r)[0] - _phase_params(BOB, m, 1)[0]) / d
        np.multiply(layout.rows, np.exp(ramp, out=ramp), out=upper)
        np.multiply(upper, wrapped, out=lower)
        # copyto broadcasts the mask over a stack without a subscript's index arrays
        np.copyto(upper, 0, where=wrapped)
        # the unscaled inverse DFT is the DFT read at -c: the reversal of an r = 1 law
        transform, norm = (np.fft.ifft, "forward") if r else (np.fft.fft, "backward")
        transform(upper, axis=-1, norm=norm, out=upper)
        transform(lower, axis=-1, norm=norm, out=lower)
        for i in range(1, m + 1):
            np.multiply(lower, np.exp(2j * np.pi * _phase_params(BOB, m, i)[0]), out=f)
            f += upper
            law = laws[..., 2 * (i - 1) + r, :]
            np.einsum("...rc,...rc->...c", f.real, f.real, out=law)
            law += np.einsum("...rc,...rc->...c", f.imag, f.imag)
    laws /= d
    return laws


def normalized_bell_from_probabilities(laws: np.ndarray, d: int, m: int) -> float:
    """Normalized Bell value I' from the class-law table of ``branch_laws``.

    I' is the expected round value, the mean over the 2m branches of
    sum_k laws[n, k] * 2*alpha[k].  Satisfies d*m*I' - m = V and equals
    1 exactly on the maximally entangled state.
    """
    class_scores = 2.0 * alpha_table(d, m)
    laws = np.asarray(laws, dtype=float)
    if laws.shape != (2 * m, d):
        raise ValueError(f"class-law table has shape {laws.shape}, want {(2 * m, d)}")
    return float(np.sum(laws @ class_scores)) / (2 * m)


def _chsh_state(psi: np.ndarray) -> np.ndarray:
    """The one two-qubit state that CHSH reads, checked; a stack of states is refused."""
    psi = check_state(psi, 2)
    if psi.ndim != 1:
        raise ValueError(f"CHSH reads one two-qubit state, got a stack of shape {psi.shape}")
    return psi


def chsh_value(psi: np.ndarray) -> float:
    """CHSH combination <A0 B0> + <A1 B0> + <A0 B1> - <A1 B1> on a two-qubit state."""
    grid = _chsh_state(psi).reshape(2, 2)
    a0, a1, b0, b1 = chsh_observables()

    def corr(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.vdot(grid, a @ grid @ b.T).real)

    return corr(a0, b0) + corr(a1, b0) + corr(a0, b1) - corr(a1, b1)


def chsh_saturation_residual(psi: np.ndarray) -> tuple[float, float]:
    """Norms of ((A0 +/- A1)/sqrt2 - B) applied to the state.

    Both vanish exactly at maximal CHSH violation and only there.
    """
    psi = _chsh_state(psi)
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
    check_fraction("delta", delta)
    return float(m * np.sqrt(4.0 / (3.0 * d * delta)))


def lemma2_exceedance(
    d: int, m: int, delta: float, samples: int, rng: np.random.Generator
) -> tuple[float, float, np.ndarray]:
    """Empirical check of the random-state ceiling.

    Draws uniformly random real unit states, evaluates each Bell value, and
    returns (bound, fraction exceeding it, all values).  States are drawn
    and evaluated in blocks of ``sample_blocks``, which read the stream in
    order, so the values equal one-state-at-a-time draws bit for bit and
    memory beyond ``values`` does not grow with ``samples``.  The fraction should
    not exceed delta beyond binomial noise.
    """
    check_positive("sample", samples)
    bound = lemma2_bound(d, m, delta)
    values = np.empty(samples)
    for start, stop in sample_blocks(samples, d * d):
        psi = random_real_unit_vector(d * d, rng, (stop - start,))
        values[start:stop] = bell_value_gamma(psi, d, m)
    fraction = float(np.mean(values > bound))
    return bound, fraction, values
