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
from bellcheck.tensor import TOL, apply_bilocal, max_entangled, random_real_orthogonal, rng_stream

ATOL = 1e-9
SIGMA_Z = np.diag([1.0, -1.0])


class TestCircuitDistance:
    def test_identical_is_zero(self):
        assert circuit_distance(np.eye(4)) == 0.0

    def test_global_sign_is_zero(self):
        # sqrt amplifies the ~1e-16 radicand error to ~1e-8 near zero
        rng = rng_stream(121)
        u = random_real_orthogonal(4, rng)
        assert circuit_distance(u @ -u.T) < 1e-7

    def test_traceless_is_one(self):
        assert circuit_distance(np.eye(2) @ SIGMA_Z.T) == 1.0

    def test_identity_vs_hadamard(self):
        # trace oracle: Tr(H) = 1/sqrt2 - 1/sqrt2 = 0, so D = 1
        assert circuit_distance(np.eye(2) @ GATE_MATRICES["H"].T) == pytest.approx(1.0)

    def test_hadamard_vs_z(self):
        # trace oracle: Tr(H^T Z)/2 = 1/sqrt2, so D = sqrt(1 - 1/2)
        d = circuit_distance(GATE_MATRICES["H"] @ GATE_MATRICES["Z"].T)
        assert d == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_range(self):
        rng = rng_stream(122)
        for _ in range(50):
            u1 = random_real_orthogonal(4, rng)
            u2 = random_real_orthogonal(4, rng)
            assert 0.0 <= circuit_distance(u1 @ u2.T) <= 1.0

    def test_dimension_mismatch(self):
        # a mismatched pair has no W = U1 U2^T; a W that is not square is refused
        with pytest.raises(ValueError, match="must be square"):
            circuit_distance(np.ones((2, 4)))

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_stack_equals_per_item(self, dim):
        rng = rng_stream(125, dim)
        pairs = random_real_orthogonal(dim, rng, (20, 2))
        pairs[3, 1] = -pairs[3, 0]  # one pair at distance zero
        w = pairs[:, 0] @ pairs[:, 1].mT
        dists = circuit_distance(w)
        assert dists.shape == (20,)
        for j in range(20):
            single = circuit_distance(w[j])
            assert type(single) is float
            assert np.array_equal(dists[j], single)


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
        rng = rng_stream(123)
        d, m = 4, 2
        phi = max_entangled(d)
        for _ in range(100):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
            dist = circuit_distance(u1 @ u2.T)
            bounds = distance_bounds_from_v(v, d, m)
            assert bounds.lower - ATOL <= dist <= bounds.upper + ATOL

    def test_ordering_invariant(self):
        d, m = 4, 2
        for v in np.linspace(-m, m * (d - 1), 25):
            bounds = distance_bounds_from_v(v, d, m)
            assert 0.0 <= bounds.lower <= bounds.upper <= 1.0

    @pytest.mark.parametrize("d,m", [(4, 2), (16, 3)])
    def test_stack_equals_per_item(self, d, m):
        vs = np.linspace(-m, m * (d - 1), 200)
        bounds = distance_bounds_from_v(vs, d, m)
        assert bounds.lower.shape == bounds.upper.shape == (200,)
        for j, v in enumerate(vs):
            single = distance_bounds_from_v(v, d, m)
            assert type(single.lower) is float and type(single.upper) is float
            assert np.array_equal(bounds.lower[j], single.lower)
            assert np.array_equal(bounds.upper[j], single.upper)

    def test_one_value_out_of_range_rejects_the_stack(self):
        vs = np.linspace(-2.0, 6.0, 50)
        vs[17] = 6.1
        with pytest.raises(ValueError, match="Bell value 6.1 outside"):
            distance_bounds_from_v(vs, 4, 2)
        vs[17] = np.nan
        with pytest.raises(ValueError, match="Bell value nan outside"):
            distance_bounds_from_v(vs, 4, 2)


class TestEmbeddedDistance:
    def test_equal_circuits_give_zero(self):
        assert distance_from_embedded_v(2 * (4 - 1), 4, 2) == 0.0

    def test_planted_sigma_z_case(self):
        # exact pipeline: V = -m and D = 1 for (I, Z) after embedding
        e1 = embed_double(np.eye(2))
        e2 = embed_double(SIGMA_Z)
        psi = apply_bilocal(e1, e2, max_entangled(4))
        v = bell_value_gamma(psi, 4, 2)
        assert abs(v - (-2.0)) < ATOL
        assert abs(distance_from_embedded_v(v, 4, 2) - 1.0) < ATOL
        assert abs(circuit_distance(np.eye(2) @ SIGMA_Z.T) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_inversion_matches_trace(self, n):
        rng = rng_stream(124, n)
        dim = 2**n
        d = dim * dim
        m = 2
        phi = max_entangled(d)
        for _ in range(20):
            u1 = random_real_orthogonal(dim, rng)
            u2 = random_real_orthogonal(dim, rng)
            psi = apply_bilocal(embed_double(u1), embed_double(u2), phi)
            v = bell_value_gamma(psi, d, m)
            assert abs(distance_from_embedded_v(v, d, m) - circuit_distance(u1 @ u2.T)) < ATOL

    def test_stack_equals_per_item(self):
        d, m = 16, 2
        # the grid of the exact overlay
        vs = np.linspace(-m, m * (d - 1), 200)
        dists = distance_from_embedded_v(vs, d, m)
        assert dists.shape == (200,) and dists[-1] == 0.0
        for j, v in enumerate(vs):
            single = distance_from_embedded_v(v, d, m)
            assert type(single) is float
            assert np.array_equal(dists[j], single)

    def test_one_value_out_of_range_rejects_the_stack(self):
        vs = np.zeros((3, 4))
        vs[2, 1] = -2.5
        with pytest.raises(ValueError, match="Bell value -2.5 outside"):
            distance_from_embedded_v(vs, 16, 2)

    def test_rejects_non_embedded_dimension(self):
        with pytest.raises(ValueError):
            distance_from_embedded_v(0.0, 8, 2)
        with pytest.raises(ValueError):
            distance_from_embedded_v(0.0, 6, 2)


class TestNormTolerance:
    """Both distance functions accept the V of every state within TOL of unit norm, the
    tolerance of ``check_norms``, and refuse an I' past it; every d here is a power of 4."""

    SIZES = [(4, 2), (16, 3), (256, 7), (1024, 50)]

    @pytest.mark.parametrize("scale", [1 - 0.9 * TOL, 1 + 0.9 * TOL])
    @pytest.mark.parametrize("d,m", SIZES)
    def test_scaled_extreme_states_are_accepted(self, d, m, scale):
        minimal = np.zeros(d * d)
        minimal[[0, d + 1]] = np.sqrt(0.5), -np.sqrt(0.5)  # (|00> - |11>)/sqrt2 reads V = -m
        for psi, extreme in [(max_entangled(d), m * (d - 1)), (minimal, -m)]:
            v = bell_value_gamma(psi * scale, d, m)
            assert v == pytest.approx(extreme, rel=1e-8)
            bounds = distance_bounds_from_v(v, d, m)
            assert 0.0 <= bounds.lower <= bounds.upper <= 1.0
            assert distance_from_embedded_v(v, d, m) == bounds.lower
            if extreme > 0 and scale > 1:  # a value past the maximum reads distance 0
                assert bounds.lower == bounds.upper == 0.0

    @pytest.mark.parametrize("d,m", SIZES)
    def test_i_prime_past_the_tolerance_is_refused(self, d, m):
        for i_prime in [(1 + TOL) ** 2 + 1e-6, 1 - (1 + TOL) ** 2 - 1e-6]:
            v = m * d * i_prime - m
            with pytest.raises(ValueError, match="outside the physical range"):
                distance_bounds_from_v(v, d, m)
            with pytest.raises(ValueError, match="outside the physical range"):
                distance_from_embedded_v(v, d, m)


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
        rng = rng_stream(125)
        d, m = 4, 2
        phi = max_entangled(d)
        checked = 0
        for _ in range(100):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            if circuit_distance(u1 @ u2.T) <= 0.01:
                continue
            v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
            assert v < m * (d - 1) - 1e-6
            checked += 1
        assert checked > 90
