import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from bellcheck.tensor import (
    RngStream,
    apply_bilocal,
    max_entangled,
    random_real_orthogonal,
    random_real_unit_vector,
)

ATOL = 1e-9


def random_complex_matrix(dim, rng):
    return rng.gen.standard_normal((dim, dim)) + 1j * rng.gen.standard_normal((dim, dim))


class TestMaxEntangled:
    def test_d2_is_epr_pair(self):
        assert_allclose(max_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_d1_is_scalar_one(self):
        assert_allclose(max_entangled(1), [1.0], atol=1e-15)

    def test_d4_diagonal_pattern(self):
        psi = max_entangled(4)
        nonzero = np.flatnonzero(np.abs(psi) > 0)
        assert nonzero.tolist() == [0, 5, 10, 15]
        assert_allclose(psi[nonzero], 0.25 * np.ones(4) * 2, atol=1e-15)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            max_entangled(0)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_normalized(self, d):
        assert abs(np.linalg.norm(max_entangled(d)) - 1.0) < 1e-12


class TestApplyBilocal:
    def test_identity_fixes_state(self):
        phi = max_entangled(3)
        assert_allclose(apply_bilocal(np.eye(3), np.eye(3), phi), phi, atol=1e-15)

    def test_sigma_z_pair_fixes_epr(self):
        # hand oracle: diag(1,-1,-1,1) @ [1,0,0,1]/sqrt2 = [1,0,0,1]/sqrt2
        sz = np.diag([1.0, -1.0])
        phi = max_entangled(2)
        assert_allclose(apply_bilocal(sz, sz, phi), phi, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_kron_oracle(self, d):
        rng = RngStream(11, d)
        for _ in range(5):
            m = random_complex_matrix(d, rng)
            n = random_complex_matrix(d, rng)
            psi = random_complex_matrix(d, rng).reshape(-1)[: d * d]
            assert_allclose(apply_bilocal(m, n, psi), np.kron(m, n) @ psi, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_ricochet_identity(self, d):
        # (M x N) Phi_d == (I x N M^T) Phi_d for arbitrary matrices
        rng = RngStream(12, d)
        phi = max_entangled(d)
        eye = np.eye(d)
        for _ in range(20):
            m = random_complex_matrix(d, rng)
            n = random_complex_matrix(d, rng)
            lhs = apply_bilocal(m, n, phi)
            rhs = apply_bilocal(eye, n @ m.T, phi)
            assert np.linalg.norm(lhs - rhs) < ATOL

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_unitaries_preserve_norm(self, d):
        rng = RngStream(13, d)
        phi = max_entangled(d)
        for _ in range(10):
            u = random_real_orthogonal(d, rng)
            v = random_real_orthogonal(d, rng)
            assert abs(np.linalg.norm(apply_bilocal(u, v, phi)) - 1.0) < ATOL

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_trace_identity(self, d):
        # <Phi| (I x M) |Phi> == Tr(M)/d
        rng = RngStream(42, d)
        phi = max_entangled(d)
        for _ in range(10):
            m = random_complex_matrix(d, rng)
            lhs = np.vdot(phi, apply_bilocal(np.eye(d), m, phi))
            assert abs(lhs - np.trace(m) / d) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_bilocal(np.eye(2), np.eye(3), max_entangled(2))
        with pytest.raises(ValueError):
            apply_bilocal(np.eye(2), np.eye(2), max_entangled(3))


class TestRandomOrthogonal:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_orthogonality(self, dim):
        rng = RngStream(21)
        for _ in range(5):
            q = random_real_orthogonal(dim, rng)
            assert np.max(np.abs(q.T @ q - np.eye(dim))) < ATOL
            assert q.dtype == np.float64

    def test_dim1_gives_plus_minus_one(self):
        rng = RngStream(22)
        values = {float(random_real_orthogonal(1, rng)[0, 0]) for _ in range(50)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_deterministic_replay(self):
        a = random_real_orthogonal(4, RngStream(7, 3))
        b = random_real_orthogonal(4, RngStream(7, 3))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = random_real_orthogonal(4, RngStream(7, 0))
        b = random_real_orthogonal(4, RngStream(7, 1))
        assert not np.allclose(a, b)

    def test_first_column_sphere_marginal(self):
        # one coordinate x of a Haar column satisfies (x+1)/2 ~ Beta((n-1)/2, (n-1)/2)
        dim = 4
        rng = RngStream(23)
        samples = np.array(
            [random_real_orthogonal(dim, rng)[0, 0] for _ in range(10_000)]
        )
        result = stats.kstest((samples + 1) / 2, stats.beta((dim - 1) / 2, (dim - 1) / 2).cdf)
        assert result.pvalue > 0.01

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            random_real_orthogonal(0, RngStream(0))


class TestRandomUnitVector:
    def test_unit_norm(self):
        rng = RngStream(31)
        for dim in (1, 2, 5, 16):
            for _ in range(20):
                assert abs(np.linalg.norm(random_real_unit_vector(dim, rng)) - 1.0) < 1e-12

    def test_dim1_is_sign(self):
        rng = RngStream(32)
        values = {float(random_real_unit_vector(1, rng)[0]) for _ in range(20)}
        assert values <= {1.0, -1.0}

    def test_coordinate_mean_is_centered(self):
        dim, n = 3, 100_000
        rng = RngStream(33)
        total = np.zeros(dim)
        for _ in range(n):
            total += random_real_unit_vector(dim, rng)
        mean = total / n
        # per-coordinate variance is 1/dim, so SE of the mean is 1/sqrt(dim*n)
        assert np.max(np.abs(mean)) < 5.0 / np.sqrt(dim * n)


class TestRngStream:
    def test_sequences_replay(self):
        s1, s2 = RngStream(99, 5), RngStream(99, 5)
        assert np.array_equal(s1.gen.random(100), s2.gen.random(100))

    def test_stream_ids_independent(self):
        s1, s2 = RngStream(99, 0), RngStream(99, 1)
        assert not np.array_equal(s1.gen.random(100), s2.gen.random(100))
