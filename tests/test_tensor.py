import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from bellcheck import tensor
from bellcheck.bell import lemma2_bound, lemma2_exceedance
from bellcheck.tensor import (
    apply_bilocal,
    check_fraction,
    check_positive,
    check_state,
    max_entangled,
    random_real_orthogonal,
    random_real_unit_vector,
    rng_stream,
    sample_blocks,
)

ATOL = 1e-9


def random_complex_matrix(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


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
        rng = rng_stream(11, d)
        for _ in range(5):
            m = random_complex_matrix(d, rng)
            n = random_complex_matrix(d, rng)
            psi = random_complex_matrix(d, rng).reshape(-1)[: d * d]
            assert_allclose(apply_bilocal(m, n, psi), np.kron(m, n) @ psi, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_ricochet_identity(self, d):
        # (M x N) Phi_d == (I x N M^T) Phi_d for arbitrary matrices
        rng = rng_stream(12, d)
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
        rng = rng_stream(13, d)
        phi = max_entangled(d)
        for _ in range(10):
            u = random_real_orthogonal(d, rng)
            v = random_real_orthogonal(d, rng)
            assert abs(np.linalg.norm(apply_bilocal(u, v, phi)) - 1.0) < ATOL

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_trace_identity(self, d):
        # <Phi| (I x M) |Phi> == Tr(M)/d
        rng = rng_stream(42, d)
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

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_stack_equals_per_item(self, d):
        rng = rng_stream(14, d)
        ms = random_real_orthogonal(d, rng, (7,))
        ns = random_real_orthogonal(d, rng, (7,))
        psis = rng.standard_normal((7, d * d)) + 1j * rng.standard_normal((7, d * d))
        phi = max_entangled(d)
        on_phi = apply_bilocal(ms, ns, phi)
        on_stack = apply_bilocal(ms, ns, psis)
        assert on_phi.shape == on_stack.shape == (7, d * d)
        for j in range(7):
            assert np.array_equal(on_phi[j], apply_bilocal(ms[j], ns[j], phi))
            assert np.array_equal(on_stack[j], apply_bilocal(ms[j], ns[j], psis[j]))


class TestCheckState:
    def test_stack_passes_and_keeps_its_shape(self):
        stack = np.tile(max_entangled(4), (3, 2, 1))
        assert check_state(stack, 4).shape == (3, 2, 16)

    def test_one_unnormalized_state_rejects_the_stack(self):
        stack = np.tile(max_entangled(4), (5, 1))
        stack[3] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not normalized"):
            check_state(stack, 4)

    def test_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="16 amplitudes"):
            check_state(np.ones((2, 9)) / 3, 4)
        with pytest.raises(ValueError, match="16 amplitudes"):
            check_state(np.complex128(1.0), 4)


class TestCheckFraction:
    @pytest.mark.parametrize("value", [1e-300, 0.5, 1 - 1e-16])
    def test_open_interval_passes(self, value):
        check_fraction("delta", value)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 2.0, math.nan, math.inf])
    def test_outside_is_refused(self, value):
        with pytest.raises(ValueError, match=rf"^delta must be in \(0, 1\), got {value}$"):
            check_fraction("delta", value)


class TestSampleBlocks:
    def test_ranges_cover_in_order(self):
        per_block = tensor.BLOCK_AMPLITUDES // 16
        spans = list(sample_blocks(3 * per_block + 1, 16))
        assert spans[0] == (0, per_block)
        assert spans[-1] == (3 * per_block, 3 * per_block + 1)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert max(stop - start for start, stop in spans) * 16 <= tensor.BLOCK_AMPLITUDES

    def test_item_larger_than_a_block_gets_its_own(self):
        assert list(sample_blocks(3, 2 * tensor.BLOCK_AMPLITUDES)) == [(0, 1), (1, 2), (2, 3)]

    def test_ranges_are_made_as_they_are_read(self):
        # a list of 100,000 one-item ranges would take about 12 MiB
        tracemalloc.start()
        try:
            assert sum(1 for _ in sample_blocks(100_000, tensor.BLOCK_AMPLITUDES)) == 100_000
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("samples", [0, -3])
    def test_non_positive_sample_count_rejected(self, samples):
        with pytest.raises(ValueError, match=f"need at least one sample, got {samples}"):
            check_positive("sample", samples)


class TestRandomOrthogonal:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_orthogonality(self, dim):
        rng = rng_stream(21)
        for _ in range(5):
            q = random_real_orthogonal(dim, rng)
            assert np.max(np.abs(q.T @ q - np.eye(dim))) < ATOL
            assert q.dtype == np.float64

    def test_dim1_gives_plus_minus_one(self):
        rng = rng_stream(22)
        values = {float(random_real_orthogonal(1, rng)[0, 0]) for _ in range(50)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_deterministic_replay(self):
        a = random_real_orthogonal(4, rng_stream(7, 3))
        b = random_real_orthogonal(4, rng_stream(7, 3))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = random_real_orthogonal(4, rng_stream(7, 0))
        b = random_real_orthogonal(4, rng_stream(7, 1))
        assert not np.allclose(a, b)

    def test_first_column_sphere_marginal(self):
        # one coordinate x of a Haar column satisfies (x+1)/2 ~ Beta((n-1)/2, (n-1)/2)
        dim = 4
        rng = rng_stream(23)
        samples = np.array(
            [random_real_orthogonal(dim, rng)[0, 0] for _ in range(10_000)]
        )
        result = stats.kstest((samples + 1) / 2, stats.beta((dim - 1) / 2, (dim - 1) / 2).cdf)
        assert result.pvalue > 0.01

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            random_real_orthogonal(0, rng_stream(0))

    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    def test_stack_equals_sequential_draws(self, dim):
        rng_stack, rng_single = rng_stream(24, dim), rng_stream(24, dim)
        stack = random_real_orthogonal(dim, rng_stack, (50,))
        assert stack.shape == (50, dim, dim)
        for q in stack:
            assert np.array_equal(q, random_real_orthogonal(dim, rng_single))
        # both streams are left at the same place
        assert np.array_equal(rng_stack.random(4), rng_single.random(4))

    def test_pair_stack_interleaves_in_c_order(self):
        rng_stack, rng_single = rng_stream(25), rng_stream(25)
        pairs = random_real_orthogonal(4, rng_stack, (10, 2))
        for u1, u2 in pairs:
            assert np.array_equal(u1, random_real_orthogonal(4, rng_single))
            assert np.array_equal(u2, random_real_orthogonal(4, rng_single))


class TestRandomUnitVector:
    def test_unit_norm(self):
        rng = rng_stream(31)
        for dim in (1, 2, 5, 16):
            for _ in range(20):
                assert abs(np.linalg.norm(random_real_unit_vector(dim, rng)) - 1.0) < 1e-12

    def test_dim1_is_sign(self):
        rng = rng_stream(32)
        values = {float(random_real_unit_vector(1, rng)[0]) for _ in range(20)}
        assert values <= {1.0, -1.0}

    def test_coordinate_mean_is_centered(self):
        dim, n = 3, 100_000
        rng = rng_stream(33)
        total = np.zeros(dim)
        for _ in range(n):
            total += random_real_unit_vector(dim, rng)
        mean = total / n
        # per-coordinate variance is 1/dim, so SE of the mean is 1/sqrt(dim*n)
        assert np.max(np.abs(mean)) < 5.0 / np.sqrt(dim * n)


class _ScriptedStream:
    """A stand-in for a ``rng_stream`` Generator whose Gaussian draws are a fixed list, in order."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, shape):
        count = math.prod(shape)
        drawn, self.values = self.values[:count], self.values[count:]
        return np.array(drawn, dtype=float).reshape(shape)


class TestRandomUnitVectorStack:
    @pytest.mark.parametrize("dim", [1, 2, 16, 256])
    def test_stack_equals_sequential_draws(self, dim):
        rng_stack, rng_single = rng_stream(34, dim), rng_stream(34, dim)
        stack = random_real_unit_vector(dim, rng_stack, (300,))
        assert stack.shape == (300, dim)
        for v in stack:
            assert np.array_equal(v, random_real_unit_vector(dim, rng_single))
        assert np.array_equal(rng_stack.random(4), rng_single.random(4))

    def test_zero_draw_is_replaced_by_the_next(self):
        # rows [0, 0] are redrawn, never divided by; the stack consumes the
        # stream exactly as three single draws do
        script = [0, 0, 3, 4, 0, 0, 0, 0, 1, 0, 6, 8, 5, 12]
        stack_rng, single_rng = _ScriptedStream(script), _ScriptedStream(script)
        stack = random_real_unit_vector(2, stack_rng, (3,))
        singles = [random_real_unit_vector(2, single_rng) for _ in range(3)]
        assert np.array_equal(stack, np.array(singles))
        assert_allclose(stack, [[0.6, 0.8], [1.0, 0.0], [0.6, 0.8]], atol=1e-15)
        assert stack_rng.values == single_rng.values == [5, 12]


class TestRngStream:
    def test_sequences_replay(self):
        s1, s2 = rng_stream(99, 5), rng_stream(99, 5)
        assert np.array_equal(s1.random(100), s2.random(100))

    def test_stream_ids_independent(self):
        s1, s2 = rng_stream(99, 0), rng_stream(99, 1)
        assert not np.array_equal(s1.random(100), s2.random(100))


class TestGeneratorStreams:
    def test_rng_stream_is_the_seed_sequence_generator(self):
        for seed, stream_id in [(0, 0), (7, 3), (99, 5), (2**63, 1)]:
            stream = rng_stream(seed, stream_id)
            seeded = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id,)))
            assert type(stream) is np.random.Generator
            assert stream.bytes(256) == seeded.bytes(256)

    def test_kernels_take_any_generator(self):
        q = random_real_orthogonal(4, np.random.default_rng(0), (2,))
        assert_allclose(q @ q.mT, np.broadcast_to(np.eye(4), (2, 4, 4)), atol=1e-12)
        v = random_real_unit_vector(5, np.random.default_rng(0), (3,))
        assert_allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)
        bound, fraction, values = lemma2_exceedance(4, 2, 0.1, 20, np.random.default_rng(0))
        assert values.shape == (20,) and 0.0 <= fraction <= 1.0
        assert bound == lemma2_bound(4, 2, 0.1)
