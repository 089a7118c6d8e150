import numpy as np
import pytest
from numpy.testing import assert_allclose

from bellcheck.bell import bell_value_gamma
from bellcheck.circuit import GATE_MATRICES, embed_double
from bellcheck.distance import (
    circuit_distance,
    distance_bounds_from_v,
    distance_from_embedded_v,
    normalized_to_distance,
)
from bellcheck.tensor import RngStream, apply_bilocal, max_entangled, random_real_orthogonal

ATOL = 1e-9
SIGMA_Z = np.diag([1.0, -1.0])


class TestCircuitDistance:
    def test_identical_is_zero(self):
        assert circuit_distance(np.eye(4), np.eye(4)) == 0.0

    def test_global_sign_is_zero(self):
        # sqrt amplifies the ~1e-16 radicand error to ~1e-8 near zero
        rng = RngStream(121)
        u = random_real_orthogonal(4, rng)
        assert circuit_distance(u, -u) < 1e-7

    def test_traceless_is_one(self):
        assert circuit_distance(np.eye(2), SIGMA_Z) == 1.0

    def test_identity_vs_hadamard(self):
        # trace oracle: Tr(H) = 1/sqrt2 - 1/sqrt2 = 0, so D = 1
        assert circuit_distance(np.eye(2), GATE_MATRICES["H"]) == pytest.approx(1.0)

    def test_hadamard_vs_z(self):
        # trace oracle: Tr(H^T Z)/2 = 1/sqrt2, so D = sqrt(1 - 1/2)
        d = circuit_distance(GATE_MATRICES["H"], GATE_MATRICES["Z"])
        assert d == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_range(self):
        rng = RngStream(122)
        for _ in range(50):
            u1 = random_real_orthogonal(4, rng)
            u2 = random_real_orthogonal(4, rng)
            assert 0.0 <= circuit_distance(u1, u2) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            circuit_distance(np.eye(2), np.eye(4))


class TestDistanceBounds:
    def test_maximal_value_collapses_to_zero(self):
        for d, m in [(2, 2), (4, 2), (8, 3)]:
            bounds = distance_bounds_from_v(m * (d - 1), d, m)
            assert bounds.lower == 0.0 and bounds.upper == 0.0

    def test_worked_example(self):
        bounds = distance_bounds_from_v(4.0, 4, 2)
        assert_allclose(bounds.lower, 0.5, atol=1e-12)
        assert_allclose(bounds.upper, 1.0, atol=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError):
            distance_bounds_from_v(-2.1, 4, 2)
        with pytest.raises(ValueError):
            distance_bounds_from_v(6.1, 4, 2)

    def test_padded_edges_accepted(self):
        distance_bounds_from_v(-2.0 - 0.5e-9, 4, 2)
        distance_bounds_from_v(6.0 + 0.5e-9, 4, 2)

    def test_monotone_nonincreasing_in_v(self):
        d, m = 4, 2
        vs = np.linspace(-m, m * (d - 1), 101)
        lowers = [distance_bounds_from_v(v, d, m).lower for v in vs]
        uppers = [distance_bounds_from_v(v, d, m).upper for v in vs]
        assert np.all(np.diff(lowers) <= 1e-12)
        assert np.all(np.diff(uppers) <= 1e-12)

    def test_sandwich_on_random_pairs(self):
        rng = RngStream(123)
        d, m = 4, 2
        phi = max_entangled(d)
        for _ in range(100):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
            dist = circuit_distance(u1, u2)
            bounds = distance_bounds_from_v(v, d, m)
            assert bounds.lower - ATOL <= dist <= bounds.upper + ATOL

    def test_ordering_invariant(self):
        d, m = 4, 2
        for v in np.linspace(-m, m * (d - 1), 25):
            bounds = distance_bounds_from_v(v, d, m)
            assert 0.0 <= bounds.lower <= bounds.upper <= 1.0


class TestEmbeddedDistance:
    def test_equal_circuits_give_zero(self):
        assert distance_from_embedded_v(2 * (4 - 1), 4, 2) == 0.0

    def test_rounding_residue_reads_as_zero(self):
        # V one ulp-scale step below the ceiling m(d-1): a radicand of about 1e-16
        d, m = 16, 2
        v = m * (d - 1) - 4e-15
        assert distance_from_embedded_v(v, d, m) == 0.0
        # a radicand well above d * eps is a distance, reported unchanged
        v = m * (d - 1) - m * d * 1e-12
        assert distance_from_embedded_v(v, d, m) == pytest.approx(1e-6, rel=1e-3)

    def test_planted_sigma_z_case(self):
        # exact pipeline: V = -m and D = 1 for (I, Z) after embedding
        e1 = embed_double(np.eye(2))
        e2 = embed_double(SIGMA_Z)
        psi = apply_bilocal(e1, e2, max_entangled(4))
        v = bell_value_gamma(psi, 4, 2)
        assert abs(v - (-2.0)) < ATOL
        assert abs(distance_from_embedded_v(v, 4, 2) - 1.0) < ATOL
        assert abs(circuit_distance(np.eye(2), SIGMA_Z) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_inversion_matches_trace(self, n):
        rng = RngStream(124, n)
        dim = 2**n
        d = dim * dim
        m = 2
        phi = max_entangled(d)
        for _ in range(20):
            u1 = random_real_orthogonal(dim, rng)
            u2 = random_real_orthogonal(dim, rng)
            psi = apply_bilocal(embed_double(u1), embed_double(u2), phi)
            v = bell_value_gamma(psi, d, m)
            assert abs(distance_from_embedded_v(v, d, m) - circuit_distance(u1, u2)) < ATOL

    def test_rejects_non_embedded_dimension(self):
        with pytest.raises(ValueError):
            distance_from_embedded_v(0.0, 8, 2)
        with pytest.raises(ValueError):
            distance_from_embedded_v(0.0, 6, 2)


class TestNormalizedToDistance:
    def test_endpoints_and_midpoint(self):
        assert normalized_to_distance(1.0) == 0.0
        assert normalized_to_distance(0.0) == 1.0
        assert normalized_to_distance(0.75) == pytest.approx(0.5)

    def test_clamps_statistical_overshoot(self):
        assert normalized_to_distance(1.08) == 0.0
        assert normalized_to_distance(-0.2) == 1.0


class TestEquivalenceWitness:
    def test_strict_gap_for_distinct_pairs(self):
        rng = RngStream(125)
        d, m = 4, 2
        phi = max_entangled(d)
        checked = 0
        for _ in range(100):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            if circuit_distance(u1, u2) <= 0.01:
                continue
            v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
            assert v < m * (d - 1) - 1e-6
            checked += 1
        assert checked > 90
