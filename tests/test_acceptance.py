"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Desk scale throughout: d <= 64, every criterion well under two
minutes.
"""

import numpy as np
import pytest

from bellcheck.bell import (
    bell_value_gamma,
    bell_value_operator,
    branch_laws,
    chsh_saturation_residual,
    chsh_value,
    lemma1_envelope,
    lemma2_exceedance,
    normalized_bell_from_probabilities,
)
from bellcheck.circuit import embed_double
from bellcheck.distance import (
    circuit_distance,
    distance_bounds_from_v,
    distance_from_embedded_v,
)
from bellcheck.measurement import sequential_distribution
from bellcheck.sampling import ShotPlan, estimate_distance, estimate_normalized_bell, plan_shots
from bellcheck.tensor import (
    apply_bilocal,
    max_entangled,
    random_real_orthogonal,
    rng_stream,
)
from oracles import outcome_distribution

SIGMA_Z = np.diag([1.0, -1.0])


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {status}{suffix}")
    assert passed, f"criterion {number} failed: {name} {suffix}"


def random_state(dim2, rng):
    z = rng.standard_normal(dim2) + 1j * rng.standard_normal(dim2)
    return z / np.linalg.norm(z)


def test_criterion_01_tsirelson_point():
    worst = 0.0
    for d in (2, 4, 8, 16):
        rng = rng_stream(201, d)
        phi = max_entangled(d)
        for _ in range(100):
            u = random_real_orthogonal(d, rng)
            psi = apply_bilocal(u, u, phi)
            for m in (2, 3):
                worst = max(worst, abs(bell_value_gamma(psi, d, m) - m * (d - 1)))
    _report(1, "maximal violation for equal circuits", worst < 1e-9, f"max |V - m(d-1)| = {worst:.2e}")


def test_criterion_02_strict_gap_converse():
    d, m = 4, 2
    rng = rng_stream(202)
    phi = max_entangled(d)
    checked = 0
    min_gap = np.inf
    ok = True
    produced = 0
    while checked < 1000 and produced < 5000:
        u1 = random_real_orthogonal(d, rng)
        u2 = random_real_orthogonal(d, rng)
        produced += 1
        if circuit_distance(u1 @ u2.T) <= 0.01:
            continue
        v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
        gap = m * (d - 1) - v
        min_gap = min(min_gap, gap)
        ok = ok and gap > 1e-6
        checked += 1
    _report(2, "strict gap below the ceiling when circuits differ",
            ok and checked == 1000, f"min gap = {min_gap:.2e} over {checked} pairs")


def test_criterion_03_sandwich_and_tightness():
    d, m = 4, 2
    rng = rng_stream(203)
    phi = max_entangled(d)
    violations = 0
    tight = 0
    n_pairs = 1000
    for _ in range(n_pairs):
        u1 = random_real_orthogonal(d, rng)
        u2 = random_real_orthogonal(d, rng)
        v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
        dist = circuit_distance(u1 @ u2.T)
        bounds = distance_bounds_from_v(v, d, m)
        if not (bounds.lower - 1e-9 <= dist <= bounds.upper + 1e-9):
            violations += 1
        if dist - bounds.lower < 0.1:
            tight += 1
    _report(3, "sandwich bounds with a frequently tight lower bound",
            violations == 0 and tight >= 0.2 * n_pairs,
            f"violations = {violations}, tight fraction = {tight / n_pairs:.2f}")


def test_criterion_04_embedded_exactness():
    m = 2
    worst = 0.0
    for n in (1, 2):
        rng = rng_stream(204, n)
        dim = 2**n
        d = dim * dim
        phi = max_entangled(d)
        for _ in range(100):
            u1 = random_real_orthogonal(dim, rng)
            u2 = random_real_orthogonal(dim, rng)
            psi = apply_bilocal(embed_double(u1), embed_double(u2), phi)
            v = bell_value_gamma(psi, d, m)
            worst = max(worst, abs(distance_from_embedded_v(v, d, m) - circuit_distance(u1 @ u2.T)))
    # planted case: (I, Z) must give exactly V = -m and D = 1
    psi = apply_bilocal(embed_double(np.eye(2)), embed_double(SIGMA_Z), max_entangled(4))
    v_planted = bell_value_gamma(psi, 4, m)
    planted_ok = abs(v_planted + m) < 1e-9 and abs(distance_from_embedded_v(v_planted, 4, m) - 1.0) < 1e-9
    _report(4, "exact distance readout after embedding",
            worst < 1e-9 and planted_ok, f"max |D_bell - D_trace| = {worst:.2e}")


def test_criterion_05_three_way_agreement():
    worst = 0.0
    for d in (2, 4, 8):
        for m in (2, 3):
            rng = rng_stream(205, 10 * d + m)
            for _ in range(200):
                psi = random_state(d * d, rng)
                v_op = bell_value_operator(psi, d, m)
                v_gamma = bell_value_gamma(psi, d, m)
                i_prime = normalized_bell_from_probabilities(branch_laws(psi, d, m), d, m)
                v_prob = d * m * i_prime - m
                worst = max(worst, abs(v_op - v_gamma), abs(v_op - v_prob))
    _report(5, "operator, diagonal-sum, and probability forms agree",
            worst < 1e-9, f"max spread = {worst:.2e}")


def test_criterion_06_orthogonal_envelope():
    m = 2
    ok = True
    worst_excess = -np.inf
    for d in (2, 4, 8):
        rng = rng_stream(206, d)
        phi = max_entangled(d)
        lo, hi = lemma1_envelope(d, m)
        for _ in range(1000):
            psi = random_state(d * d, rng)
            psi = psi - np.vdot(phi, psi) * phi
            psi = psi / np.linalg.norm(psi)
            v = bell_value_gamma(psi, d, m)
            worst_excess = max(worst_excess, lo - v, v - hi)
            ok = ok and (lo - 1e-9 <= v <= hi + 1e-9)
    _report(6, "orthogonal-state envelope", ok, f"worst excess = {worst_excess:.2e}")


def test_criterion_07_random_state_concentration():
    d, m, delta = 16, 2, 0.1
    bound, fraction, _ = lemma2_exceedance(d, m, delta, 10_000, rng_stream(207))
    _report(7, "random-state concentration bound", fraction <= delta + 0.01,
            f"bound = {bound:.4f}, exceedance = {fraction:.4f}")


def test_criterion_08_sampler_coverage_and_unbiasedness():
    d, m = 4, 2
    psi = max_entangled(d)
    plan = plan_shots(0.1, 0.05)
    xs = np.array(
        [estimate_normalized_bell(psi, d, m, plan, seed=s).x for s in range(500)]
    )
    miss_fraction = float(np.mean(np.abs(xs - 1.0) >= 0.1))
    se = float(xs.std(ddof=1) / np.sqrt(xs.size))
    mean_ok = abs(float(xs.mean()) - 1.0) <= 3 * se
    _report(8, "shot-noise coverage and unbiasedness",
            miss_fraction <= 0.06 and mean_ok,
            f"s = {plan.s}, miss fraction = {miss_fraction:.3f}, "
            f"mean = {xs.mean():.5f} (3se = {3 * se:.5f})")


def test_criterion_09_estimator_convergence():
    n, m = 1, 2
    rng = rng_stream(209)
    dim = 2**n
    pairs = [
        (random_real_orthogonal(dim, rng), random_real_orthogonal(dim, rng))
        for _ in range(100)
    ]
    rms = {}
    for s in (100, 1000, 10_000):
        sq_errors = []
        for k, (u1, u2) in enumerate(pairs):
            report = estimate_distance(u1 @ u2.T, m, ShotPlan(s=s), seed=3000 * s + k)
            sq_errors.append((report.distance_estimate - circuit_distance(u1 @ u2.T)) ** 2)
        rms[s] = float(np.sqrt(np.mean(sq_errors)))
    monotone = rms[100] > rms[1000] > rms[10_000]
    _report(9, "estimate scatter tightens with shots",
            monotone and rms[10_000] < 0.05,
            f"rms = {rms[100]:.4f} / {rms[1000]:.4f} / {rms[10_000]:.4f}")


def test_criterion_10_chsh_layer():
    phi = max_entangled(2)
    value_ok = abs(chsh_value(phi) - 2 * np.sqrt(2)) < 1e-9
    rp, rm = chsh_saturation_residual(phi)
    residual_ok = rp < 1e-9 and rm < 1e-9
    psi = apply_bilocal(np.eye(2), SIGMA_Z, phi)
    rp2, rm2 = chsh_saturation_residual(psi)
    witness_ok = rp2 > 0.1 and rm2 > 0.1
    _report(10, "CHSH value and saturation residuals",
            value_ok and residual_ok and witness_ok,
            f"I_CHSH = {chsh_value(phi):.9f}, witness residuals = ({rp2:.3f}, {rm2:.3f})")


def test_criterion_11_product_measurement_equivalence():
    worst = 0.0
    for n, m_values in [(1, (2, 3)), (2, (2, 3)), (3, (2,))]:
        d = 2**n
        rng = rng_stream(211, n)
        for m in m_values:
            psi = random_state(d * d, rng)
            for x in range(1, m + 1):
                for y in range(1, m + 1):
                    seq = sequential_distribution(psi, x, y, n, m)
                    full = outcome_distribution(psi, x, y, d, m)
                    worst = max(worst, float(np.max(np.abs(seq - full))))
    _report(11, "qubit-by-qubit readout equals projective statistics",
            worst < 1e-9, f"max deviation = {worst:.2e}")
