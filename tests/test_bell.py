import numpy as np
import pytest
from numpy.testing import assert_allclose

from bellcheck.bell import (
    alpha_table,
    bell_value_gamma,
    bell_value_operator,
    branch_laws,
    chsh_saturation_residual,
    chsh_value,
    lemma1_envelope,
    lemma2_bound,
    lemma2_exceedance,
    normalized_bell_from_probabilities,
    protocol_branches,
)
from bellcheck.measurement import (
    ALICE,
    BOB,
    WrapDiagonals,
    observable_power,
    outcome_distribution,
    wrap_diagonals,
)
from bellcheck.circuit import embed_double, embedded_pair_state
from bellcheck.tensor import (
    RngStream,
    apply_bilocal,
    max_entangled,
    random_real_orthogonal,
)

ATOL = 1e-9
SIGMA_Z = np.diag([1.0, -1.0])


def random_state(dim2, rng):
    z = rng.gen.standard_normal(dim2) + 1j * rng.gen.standard_normal(dim2)
    return z / np.linalg.norm(z)


def oracle_wrap_sum_value(psi, d, m):
    """Independent oracle: literal loops over the wrap-diagonal sums."""
    grid = np.asarray(psi).reshape(d, d)
    total = 0.0
    for r in range(d):
        s1 = sum(grid[k, k + r] for k in range(0, d - r))
        s2 = sum(grid[k, k + r - d] for k in range(d - r, d))
        total += abs(s1) ** 2 + abs(s2) ** 2
    return m * total - m


def oracle_operator_sum(psi, d, m):
    """Independent oracle: the literal O(m d^4) sum of <A_i^l (x) conj(A_i^l)>."""
    grid = np.asarray(psi).reshape(d, d)
    total = 0j
    for i in range(1, m + 1):
        for power in range(1, d):
            a = observable_power(d, m, i, power, ALICE)
            b_bar = observable_power(d, m, i, power, BOB)
            total += np.vdot(grid, a @ grid @ b_bar.T)
    assert abs(total.imag) < 1e-12
    return total.real


class TestBellValueOperator:
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_literal_sum(self, d, m):
        rng = RngStream(106, d * 10 + m)
        for _ in range(3):
            psi = random_state(d * d, rng)
            assert abs(bell_value_operator(psi, d, m) - oracle_operator_sum(psi, d, m)) < 1e-12

    def test_agrees_with_gamma_on_embedded_n4_pair(self):
        rng = RngStream(107)
        d, m = 256, 2
        u1 = random_real_orthogonal(16, rng)
        u2 = random_real_orthogonal(16, rng)
        dense = apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))
        layout = embedded_pair_state(u1, u2)
        assert abs(bell_value_operator(dense, d, m) - bell_value_gamma(layout, d, m)) < ATOL

    @pytest.mark.parametrize("d,m", [(2, 2), (4, 2), (4, 3), (8, 2)])
    def test_entangled_state_reaches_ceiling(self, d, m):
        assert abs(bell_value_operator(max_entangled(d), d, m) - m * (d - 1)) < ATOL

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_equal_rotations_keep_ceiling(self, d):
        rng = RngStream(101, d)
        m = 2
        for _ in range(5):
            u = random_real_orthogonal(d, rng)
            psi = apply_bilocal(u, u, max_entangled(d))
            assert abs(bell_value_operator(psi, d, m) - m * (d - 1)) < ATOL

    def test_sigma_z_witness(self):
        # oracle: all wrap-diagonal sums vanish, so V = -m
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        assert abs(oracle_wrap_sum_value(psi, 2, 2) - (-2.0)) < 1e-12
        assert abs(bell_value_operator(psi, 2, 2) - (-2.0)) < ATOL

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bell_value_operator(max_entangled(2), 2, 1)
        with pytest.raises(ValueError):
            bell_value_operator(np.ones(4, dtype=complex), 2, 2)


class TestBellValueGamma:
    @pytest.mark.parametrize("d,m", [(2, 2), (4, 2), (8, 3)])
    def test_entangled_state(self, d, m):
        assert abs(bell_value_gamma(max_entangled(d), d, m) - m * (d - 1)) < ATOL

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_operator_form(self, d, m):
        rng = RngStream(102, d * 10 + m)
        for _ in range(20):
            psi = random_state(d * d, rng)
            assert abs(bell_value_gamma(psi, d, m) - bell_value_operator(psi, d, m)) < ATOL

    def test_agrees_with_loop_oracle(self):
        rng = RngStream(103)
        for d in (2, 4, 8):
            for _ in range(5):
                psi = random_state(d * d, rng)
                assert abs(bell_value_gamma(psi, d, 2) - oracle_wrap_sum_value(psi, d, 2)) < 1e-10

    def test_random_real_state_within_global_range(self):
        from bellcheck.tensor import random_real_unit_vector

        rng = RngStream(104)
        d, m = 4, 2
        for _ in range(50):
            psi = random_real_unit_vector(d * d, rng).astype(complex)
            v = bell_value_gamma(psi, d, m)
            assert -m - ATOL <= v <= m * (d - 1) + ATOL


def class_histograms(psi, d, m):
    """Independent oracle for ``branch_laws``: score-class histograms of the outcome grids."""
    outcomes = np.arange(d)
    rows = []
    for branch in protocol_branches(d, m):
        classes = branch.score_class(outcomes[:, None], outcomes)
        probs = outcome_distribution(psi, *branch.pair, d, m)
        rows.append(np.bincount(classes.ravel(), weights=probs.ravel(), minlength=d))
    return np.array(rows)


class TestWrapDiagonalLayout:
    """Gamma and the class laws read from a layout agree with the dense state."""

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    @pytest.mark.parametrize("m", [2, 3])
    def test_dense_state_layout(self, d, m):
        psi = random_state(d * d, RngStream(108, d * 10 + m))
        layout, _ = wrap_diagonals(psi, d)
        v = bell_value_gamma(layout, d, m)
        assert abs(v - oracle_wrap_sum_value(psi, d, m)) < 1e-12
        assert abs(v - bell_value_gamma(psi, d, m)) < 1e-12
        want = class_histograms(psi, d, m)
        assert np.max(np.abs(branch_laws(layout, d, m) - want)) < 1e-12
        assert np.max(np.abs(branch_laws(psi, d, m) - want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3])
    def test_embedded_pair_layout(self, n, m):
        rng = RngStream(109, n * 10 + m)
        dim = 2**n
        d = dim * dim
        u1 = random_real_orthogonal(dim, rng)
        u2 = random_real_orthogonal(dim, rng)
        dense = apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))
        layout = embedded_pair_state(u1, u2)
        assert abs(bell_value_gamma(layout, d, m) - bell_value_gamma(dense, d, m)) < 1e-12
        want = class_histograms(dense, d, m)
        assert np.max(np.abs(branch_laws(layout, d, m) - want)) < 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_unlisted_diagonals_read_as_zero(self, m):
        # a layout listing offsets out of order equals the dense grid with every other
        # wrap diagonal cleared
        d = 8
        offsets = np.array([5, 0, 3])
        full, _ = wrap_diagonals(random_state(d * d, RngStream(110, m)), d)
        rows = full.rows[offsets] / np.linalg.norm(full.rows[offsets])
        k = np.arange(d)
        grid = np.zeros((d, d), dtype=complex)
        grid[k, (offsets[:, None] + k) % d] = rows
        layout = WrapDiagonals(offsets, rows)
        dense = grid.reshape(-1)
        assert abs(bell_value_gamma(layout, d, m) - oracle_wrap_sum_value(dense, d, m)) < 1e-12
        assert abs(bell_value_gamma(layout, d, m) - bell_value_operator(dense, d, m)) < ATOL
        want = class_histograms(dense, d, m)
        assert np.max(np.abs(branch_laws(layout, d, m) - want)) < 1e-12


class TestProtocolBranches:
    def test_layout_in_i_r_order(self):
        branches = protocol_branches(4, 3)
        assert [b.label for b in branches] == ["A1B1", "A2B1", "A2B2", "A3B2", "A3B3", "A4B3"]
        assert [b.pair for b in branches] == [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)]

    def test_scores_and_wrapped_relabel(self):
        d, m = 4, 3
        alpha = alpha_table(d, m)
        branches = protocol_branches(d, m)

        def score(branch, a, b):
            return branch.class_scores[branch.score_class(a, b)]

        for a in range(d):
            for b in range(d):
                assert score(branches[0], a, b) == 2.0 * alpha[(a - b) % d]
                assert score(branches[1], a, b) == 2.0 * alpha[(b - a) % d]
                # Alice's (m+1)-th setting is setting 1 with outcome a + 1
                assert score(branches[-1], a, b) == 2.0 * alpha[(b - (a + 1)) % d]
        assert all(np.all(np.abs(br.class_scores) <= 2.0) for br in branches)

    @pytest.mark.parametrize("d,m", [(2, 2), (4, 3), (16, 2)])
    def test_class_distribution_is_the_class_histogram(self, d, m):
        # row n of the law table is the histogram of branch n's score class over the outcome grid
        psi = random_state(d * d, RngStream(121, d))
        outcomes = np.arange(d)
        laws = branch_laws(psi, d, m)
        assert laws.shape == (2 * m, d)
        for law, branch in zip(laws, protocol_branches(d, m)):
            classes = branch.score_class(outcomes[:, None], outcomes)
            probs = outcome_distribution(psi, *branch.pair, d, m)
            want = np.bincount(classes.ravel(), weights=probs.ravel(), minlength=d)
            assert np.max(np.abs(law - want)) < 1e-12


class TestNormalizedBell:
    @pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (4, 2), (4, 3)])
    def test_entangled_state_normalizes_to_one(self, d, m):
        phi = max_entangled(d)
        i_prime = normalized_bell_from_probabilities(branch_laws(phi, d, m), d, m)
        assert abs(i_prime - 1.0) < ATOL

    def test_sigma_z_witness_is_zero(self):
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        i_prime = normalized_bell_from_probabilities(branch_laws(psi, 2, 2), 2, 2)
        assert abs(i_prime) < ATOL

    @pytest.mark.parametrize("d,m", [(4, 2), (8, 3)])
    def test_rescaling_identity(self, d, m):
        rng = RngStream(105, d)
        for _ in range(10):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            psi = apply_bilocal(u1, u2, max_entangled(d))
            i_prime = normalized_bell_from_probabilities(branch_laws(psi, d, m), d, m)
            v = bell_value_operator(psi, d, m)
            assert abs(d * m * i_prime - m - v) < ATOL
            assert -ATOL <= i_prime <= 1.0 + ATOL

    def test_missing_pair_rejected(self):
        # a table without the wrapped branch's row has the wrong shape
        laws = branch_laws(max_entangled(2), 2, 2)
        with pytest.raises(ValueError, match="shape"):
            normalized_bell_from_probabilities(laws[:-1], 2, 2)

    def test_table_of_other_parameters_rejected(self):
        phi = max_entangled(8)
        for laws in (branch_laws(phi, 8, 3), branch_laws(phi, 8, 2).T, branch_laws(phi, 8, 2)[0]):
            with pytest.raises(ValueError, match="shape"):
                normalized_bell_from_probabilities(laws, 8, 2)


class TestAlphaTable:
    def test_frozen_d2_m2_values(self):
        # closed forms: cot(pi/8) = 1 + sqrt2, cot(5 pi/8) = 1 - sqrt2
        table = alpha_table(2, 2)
        assert_allclose(table[0], (1 + np.sqrt(2)) / 4, atol=1e-12)
        assert_allclose(table[1], (1 - np.sqrt(2)) / 4, atol=1e-12)

    def test_bounded_by_one(self):
        for d in (2, 4, 8, 16, 64):
            for m in (2, 3, 4, 6):
                assert np.max(np.abs(alpha_table(d, m))) <= 1.0

    def test_first_positive_and_strictly_decreasing(self):
        for d, m in [(4, 2), (8, 3), (16, 2)]:
            values = alpha_table(d, m)
            assert values[0] > 0
            assert np.all(np.diff(values) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_table(1, 2)
        with pytest.raises(ValueError):
            alpha_table(4, 1)


class TestChsh:
    def test_epr_maximal(self):
        assert abs(chsh_value(max_entangled(2)) - 2 * np.sqrt(2)) < ATOL

    def test_equal_rotations_stay_maximal(self):
        rng = RngStream(106)
        for _ in range(10):
            u = random_real_orthogonal(2, rng)
            psi = apply_bilocal(u, u, max_entangled(2))
            assert abs(chsh_value(psi) - 2 * np.sqrt(2)) < ATOL
            rp, rm = chsh_saturation_residual(psi)
            assert rp < ATOL and rm < ATOL

    def test_sigma_z_strictly_below(self):
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        assert chsh_value(psi) < 2 * np.sqrt(2) - 1e-6
        rp, rm = chsh_saturation_residual(psi)
        assert rp > 0.1 and rm > 0.1

    def test_epr_residuals_vanish(self):
        rp, rm = chsh_saturation_residual(max_entangled(2))
        assert rp < ATOL and rm < ATOL

    def test_residuals_vanish_iff_maximal(self):
        rng = RngStream(107)
        states = [random_state(4, rng) for _ in range(50)]
        states.append(max_entangled(2))
        u = random_real_orthogonal(2, rng)
        states.append(apply_bilocal(u, u, max_entangled(2)))
        for psi in states:
            saturated = abs(chsh_value(psi) - 2 * np.sqrt(2)) < 1e-6
            residuals_zero = max(chsh_saturation_residual(psi)) < ATOL
            assert saturated == residuals_zero


class TestLemma1:
    def test_envelope_values(self):
        assert lemma1_envelope(4, 2) == (-2.0, 4.0)
        assert lemma1_envelope(2, 3) == (-3.0, 0.0)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_orthogonal_states_within_envelope(self, d):
        m = 2
        lo, hi = lemma1_envelope(d, m)
        rng = RngStream(108, d)
        phi = max_entangled(d)
        for _ in range(50):
            psi = random_state(d * d, rng)
            psi = psi - np.vdot(phi, psi) * phi
            psi = psi / np.linalg.norm(psi)
            v = bell_value_gamma(psi, d, m)
            assert lo - ATOL <= v <= hi + ATOL

    def test_sigma_z_saturates_lower_end(self):
        psi = apply_bilocal(np.eye(2), SIGMA_Z, max_entangled(2))
        assert abs(np.vdot(max_entangled(2), psi)) < 1e-12
        assert abs(bell_value_gamma(psi, 2, 2) - lemma1_envelope(2, 2)[0]) < ATOL


class TestLemma2:
    def test_frozen_bound_value(self):
        assert_allclose(lemma2_bound(16, 2, 0.1), 2 * np.sqrt(4 / 4.8), atol=1e-12)
        assert_allclose(lemma2_bound(16, 2, 0.1), 1.8257418583505538, atol=1e-12)

    def test_bound_decreases_with_dimension(self):
        values = [lemma2_bound(d, 2, 0.1) for d in (4, 16, 64)]
        assert values[0] > values[1] > values[2]

    def test_delta_validation(self):
        for delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                lemma2_bound(16, 2, delta)

    def test_exceedance_within_tolerance(self):
        d, m, delta, samples = 16, 2, 0.1, 1000
        bound, fraction, values = lemma2_exceedance(d, m, delta, samples, RngStream(109))
        assert values.shape == (samples,)
        assert fraction <= delta + 3 * np.sqrt(delta * (1 - delta) / samples)

    def test_looser_delta_still_holds(self):
        d, m, delta, samples = 16, 2, 0.5, 1000
        bound, fraction, _ = lemma2_exceedance(d, m, delta, samples, RngStream(113))
        assert bound == pytest.approx(2 * np.sqrt(4 / (3 * 16 * 0.5)), abs=1e-12)
        assert fraction <= delta + 3 * np.sqrt(delta * (1 - delta) / samples)


class TestGlobalInvariants:
    def test_global_phase_invariance(self):
        rng = RngStream(110)
        d, m = 4, 2
        for _ in range(10):
            psi = random_state(d * d, rng)
            v = bell_value_gamma(psi, d, m)
            assert abs(bell_value_gamma(np.exp(1.3j) * psi, d, m) - v) < 1e-12

    def test_sign_flip_invariance(self):
        rng = RngStream(111)
        d, m = 4, 2
        phi = max_entangled(d)
        for _ in range(10):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            v_pos = bell_value_operator(apply_bilocal(u1, u2, phi), d, m)
            v_neg = bell_value_operator(apply_bilocal(-u1, u2, phi), d, m)
            assert abs(v_pos - v_neg) < ATOL

    def test_summed_operator_is_hermitian(self):
        d, m = 4, 2
        total = np.zeros((d * d, d * d), dtype=complex)
        for i in range(1, m + 1):
            for power in range(1, d):
                a = observable_power(d, m, i, power, ALICE)
                b = observable_power(d, m, i, power, BOB)
                total += np.kron(a, b)
        assert np.max(np.abs(total - total.conj().T)) < ATOL

    def test_tsirelson_ceiling_over_random_pairs(self):
        rng = RngStream(112)
        d, m = 4, 2
        phi = max_entangled(d)
        for _ in range(200):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
            assert v <= m * (d - 1) + ATOL
