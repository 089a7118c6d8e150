import tracemalloc

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
)
from bellcheck.measurement import (
    ALICE,
    BOB,
    WrapDiagonals,
    wrap_diagonals,
)
from bellcheck.circuit import (
    GATE_ARITY, circuit_unitary, embed_double, embedded_pair_state, pair_circuit, parse_circuit,
)
from bellcheck import tensor
from bellcheck.tensor import (
    apply_bilocal,
    max_entangled,
    random_real_orthogonal,
    random_real_unit_vector,
    rng_stream,
)
from oracles import (
    bell_value_embedded, observable_power, oracle_operator_sum, outcome_distribution,
    protocol_branches,
)

ATOL = 1e-9
SIGMA_Z = np.diag([1.0, -1.0])


def random_state(dim2, rng):
    z = rng.standard_normal(dim2) + 1j * rng.standard_normal(dim2)
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


class TestBellValueOperator:
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_literal_sum(self, d, m):
        rng = rng_stream(106, d * 10 + m)
        for _ in range(3):
            psi = random_state(d * d, rng)
            assert abs(bell_value_operator(psi, d, m) - oracle_operator_sum(psi, d, m)) < 1e-12

    def test_agrees_with_gamma_on_embedded_n4_pair(self):
        rng = rng_stream(107)
        d, m = 256, 2
        u1 = random_real_orthogonal(16, rng)
        u2 = random_real_orthogonal(16, rng)
        dense = apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))
        layout = embedded_pair_state(u1 @ u2.T)
        assert abs(bell_value_operator(dense, d, m) - bell_value_gamma(layout, d, m)) < ATOL

    @pytest.mark.parametrize("d,m", [(2, 2), (4, 2), (4, 3), (8, 2)])
    def test_entangled_state_reaches_ceiling(self, d, m):
        assert abs(bell_value_operator(max_entangled(d), d, m) - m * (d - 1)) < ATOL

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_equal_rotations_keep_ceiling(self, d):
        rng = rng_stream(101, d)
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
        rng = rng_stream(102, d * 10 + m)
        for _ in range(20):
            psi = random_state(d * d, rng)
            assert abs(bell_value_gamma(psi, d, m) - bell_value_operator(psi, d, m)) < ATOL

    def test_agrees_with_loop_oracle(self):
        rng = rng_stream(103)
        for d in (2, 4, 8):
            for _ in range(5):
                psi = random_state(d * d, rng)
                assert abs(bell_value_gamma(psi, d, 2) - oracle_wrap_sum_value(psi, d, 2)) < 1e-10

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_stack_equals_per_item(self, d):
        rng = rng_stream(105, d)
        stack = np.array([random_state(d * d, rng) for _ in range(12)]).reshape(3, 4, d * d)
        values = bell_value_gamma(stack, d, 3)
        assert values.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            single = bell_value_gamma(stack[idx], d, 3)
            assert type(single) is float
            assert np.array_equal(values[idx], single)

    def test_one_unnormalized_state_rejects_the_stack(self):
        stack = np.tile(max_entangled(4), (6, 1))
        stack[4] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not normalized"):
            bell_value_gamma(stack, 4, 2)

    def test_random_real_state_within_global_range(self):
        rng = rng_stream(104)
        d, m = 4, 2
        for _ in range(50):
            psi = random_real_unit_vector(d * d, rng).astype(complex)
            v = bell_value_gamma(psi, d, m)
            assert -m - ATOL <= v <= m * (d - 1) + ATOL


def rewrite_pair(rng, n, count=40):
    """W of a circuit against itself with one H H or X X pair inserted: equal, with rounding."""
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= n]
    lines = []
    for _ in range(count):
        kind = kinds[int(rng.integers(len(kinds)))]
        targets = rng.choice(n, size=GATE_ARITY[kind], replace=False)
        lines.append(" ".join([kind, *map(str, targets)]))
    cut = int(rng.integers(count + 1))
    rewritten = lines[:cut] + [f"{kinds[cut % 2]} 0"] * 2 + lines[cut:]
    c1, c2 = (parse_circuit("\n".join([f"qubits {n}", *body])) for body in (lines, rewritten))
    return circuit_unitary(pair_circuit(c1, c2))


class TestBellValueEmbedded:
    """The float trace formula, m |Tr W|^2 - m, against gamma on the embedded pair's layout.

    ``compare-exact`` reads the same sum exactly from the integer synthesis;
    this reference ties the formula to the layout it shortcuts."""

    @staticmethod
    def assert_agrees(w, m, printed=True):
        dim = w.shape[-1]
        trace_v = bell_value_embedded(w, m)
        gamma_v = bell_value_gamma(embedded_pair_state(w), dim * dim, m)
        assert type(trace_v) is float
        assert abs(trace_v - gamma_v) < 1e-12 * max(1.0, abs(gamma_v))  # V reaches m (4^n - 1)
        if printed:
            assert "%.12g" % trace_v == "%.12g" % gamma_v

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_orthogonal_w(self, n):
        # compare-exact's default m = 2 prints the same V by either route
        rng = rng_stream(106, n)
        for w in random_real_orthogonal(2**n, rng, (30,)):
            self.assert_agrees(w, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_orthogonal_w_at_larger_m(self, n):
        # V = m (Tr W)^2 - m cancels digits when V is small, so the two routes,
        # a few ulps apart, can straddle a 12-digit rounding boundary: at
        # m = 5, n = 1 this seed prints 0.0120553552391 against 0.012055355239
        rng = rng_stream(106, 10 * n + 5)
        for w in random_real_orthogonal(2**n, rng, (15,)):
            self.assert_agrees(w, 5, printed=False)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_plus_and_minus_identity(self, n, sign):
        # the maximal value m (d - 1), d = 4^n, exactly
        w = sign * np.eye(2**n)
        self.assert_agrees(w, 3)
        assert bell_value_embedded(w, 3) == 3 * (4**n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rewrite_style_equal_pairs(self, n):
        rng = rng_stream(107, n)
        for _ in range(5):
            w = rewrite_pair(rng, n)
            self.assert_agrees(w, 2)
            assert 2 * (4**n - 1) - bell_value_embedded(w, 2) < 1e-6

    def test_stack_equals_per_item(self):
        stack = random_real_orthogonal(8, rng_stream(108), (3, 4))
        values = bell_value_embedded(stack, 2)
        assert values.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert values[idx] == bell_value_embedded(stack[idx], 2)

    @pytest.mark.parametrize("w,m", [(np.eye(2), 1), (np.ones((2, 4)), 2)])
    def test_input_rules(self, w, m):
        with pytest.raises(ValueError):
            bell_value_embedded(w, m)


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
    @pytest.mark.parametrize("m", [2, 3, 64])
    def test_dense_state_layout(self, d, m):
        psi = random_state(d * d, rng_stream(108, d * 10 + m))
        layout, _ = wrap_diagonals(psi, d)
        v = bell_value_gamma(layout, d, m)
        assert abs(v - oracle_wrap_sum_value(psi, d, m)) < 1e-12
        assert abs(v - bell_value_gamma(psi, d, m)) < 1e-12
        want = class_histograms(psi, d, m)
        assert np.max(np.abs(branch_laws(layout, d, m) - want)) < 1e-12
        assert np.max(np.abs(branch_laws(psi, d, m) - want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 64])
    def test_embedded_pair_layout(self, n, m):
        rng = rng_stream(109, n * 10 + m)
        dim = 2**n
        d = dim * dim
        u1 = random_real_orthogonal(dim, rng)
        u2 = random_real_orthogonal(dim, rng)
        dense = apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))
        layout = embedded_pair_state(u1 @ u2.T)
        assert abs(bell_value_gamma(layout, d, m) - bell_value_gamma(dense, d, m)) < 1e-12
        want = class_histograms(dense, d, m)
        assert np.max(np.abs(branch_laws(layout, d, m) - want)) < 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_unlisted_diagonals_read_as_zero(self, m):
        # a layout listing offsets out of order equals the dense grid with every other
        # wrap diagonal cleared
        d = 8
        offsets = np.array([5, 0, 3])
        full, _ = wrap_diagonals(random_state(d * d, rng_stream(110, m)), d)
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


class TestRealStates:
    """A real state is read as float64 and gives the values of its complex cast."""

    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("m", [2, 3])
    def test_dense_states(self, d, m):
        psi = random_real_unit_vector(d * d, rng_stream(116, d), (3,))
        for state in (psi, psi[0]):
            cast = state.astype(complex)
            assert np.max(np.abs(bell_value_gamma(state, d, m)
                                 - bell_value_gamma(cast, d, m))) < 1e-12
            assert np.max(np.abs(branch_laws(state, d, m) - branch_laws(cast, d, m))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_embedded_layouts(self, n, m):
        dim = 2**n
        pairs = random_real_orthogonal(dim, rng_stream(117, n), (3, 2))
        layout = embedded_pair_state(pairs[:, 0] @ pairs[:, 1].mT)
        assert layout.rows.dtype == np.float64
        cast = WrapDiagonals(layout.offsets, layout.rows.astype(complex))
        d = dim * dim
        assert np.max(np.abs(bell_value_gamma(layout, d, m)
                             - bell_value_gamma(cast, d, m))) < 1e-12
        assert np.max(np.abs(branch_laws(layout, d, m) - branch_laws(cast, d, m))) < 1e-12

    def test_gamma_peak_on_an_embedded_layout(self):
        # n = 6 (8^6 entries): the real layout and one real temporary, about 1.1 complex
        # values per entry; a complex copy of the rows made it 2.6
        pair = random_real_orthogonal(64, rng_stream(118), (2,))
        w = pair[0] @ pair[1].T
        tracemalloc.start()
        try:
            bell_value_gamma(embedded_pair_state(w), 4096, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 16 * 8**6


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
        psi = random_state(d * d, rng_stream(121, d))
        outcomes = np.arange(d)
        laws = branch_laws(psi, d, m)
        assert laws.shape == (2 * m, d)
        for law, branch in zip(laws, protocol_branches(d, m)):
            classes = branch.score_class(outcomes[:, None], outcomes)
            probs = outcome_distribution(psi, *branch.pair, d, m)
            want = np.bincount(classes.ravel(), weights=probs.ravel(), minlength=d)
            assert np.max(np.abs(law - want)) < 1e-12

    def test_branch_laws_rejects_invalid_inputs(self):
        psi = max_entangled(4)
        with pytest.raises(ValueError):
            branch_laws(psi[:8], 4, 2)
        with pytest.raises(ValueError):
            branch_laws(2 * psi, 4, 2)
        stack = np.tile(psi, (3, 1))
        stack[1] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not normalized"):  # one bad state rejects a stack
            branch_laws(stack, 4, 2)
        with pytest.raises(ValueError, match="m >= 2"):
            branch_laws(psi, 4, 1)

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_dense_stack_equals_per_item(self, d):
        rng = rng_stream(123, d)
        stack = np.array([random_state(d * d, rng) for _ in range(12)]).reshape(3, 4, d * d)
        laws = branch_laws(stack, d, 3)
        assert laws.shape == (3, 4, 6, d)
        for idx in np.ndindex(3, 4):
            assert laws[idx].tobytes() == branch_laws(stack[idx], d, 3).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layout_stack_equals_per_item(self, n):
        dim = 2**n
        pairs = random_real_orthogonal(dim, rng_stream(124, n), (3, 4, 2))
        w = pairs[..., 0, :, :] @ pairs[..., 1, :, :].mT
        laws = branch_laws(embedded_pair_state(w), dim * dim, 2)
        assert laws.shape == (3, 4, 4, dim * dim)
        for idx in np.ndindex(3, 4):
            single = branch_laws(embedded_pair_state(w[idx]), dim * dim, 2)
            assert laws[idx].tobytes() == single.tobytes()

    def test_one_unnormalized_layout_rejects_the_stack(self):
        pairs = random_real_orthogonal(2, rng_stream(125), (3, 4, 2))
        stack = embedded_pair_state(pairs[..., 0, :, :] @ pairs[..., 1, :, :].mT)
        stack.rows[2, 1] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not normalized"):
            branch_laws(stack, 4, 2)

    def test_norm_is_checked_per_state(self):
        # four states of norm 1/2 have Frobenius norm 1 together, and none is normalized
        rows = np.tile(embedded_pair_state(np.eye(2)).rows, (4, 1, 1))
        with pytest.raises(ValueError, match="not normalized"):
            branch_laws(WrapDiagonals(np.array([0, 2]), rows / 2), 4, 2)
        # four normalized states have Frobenius norm 2 together, and each is normalized
        assert branch_laws(WrapDiagonals(np.array([0, 2]), rows), 4, 2).shape == (4, 4, 4)

    @pytest.mark.parametrize("m", [2, 3, 64])
    def test_branch_laws_takes_four_ffts_for_any_m(self, m, monkeypatch):
        # the FFT count of the laws does not grow with m
        calls = []
        for name in ("fft", "ifft"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, t=transform, **k: calls.append(1) or t(*a, **k)
            )
        laws = branch_laws(random_state(64, rng_stream(122, m)), 8, m)
        assert len(calls) == 4 and laws.shape == (2 * m, 8)


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
        rng = rng_stream(105, d)
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
        rng = rng_stream(106)
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
        rng = rng_stream(107)
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
        rng = rng_stream(108, d)
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
        bound, fraction, values = lemma2_exceedance(d, m, delta, samples, rng_stream(109))
        assert values.shape == (samples,)
        assert fraction <= delta + 3 * np.sqrt(delta * (1 - delta) / samples)

    def test_looser_delta_still_holds(self):
        d, m, delta, samples = 16, 2, 0.5, 1000
        bound, fraction, _ = lemma2_exceedance(d, m, delta, samples, rng_stream(113))
        assert bound == pytest.approx(2 * np.sqrt(4 / (3 * 16 * 0.5)), abs=1e-12)
        assert fraction <= delta + 3 * np.sqrt(delta * (1 - delta) / samples)

    @pytest.mark.parametrize("d", [4, 16, 64])
    def test_equals_per_sample_loop(self, d):
        # three blocks and one state more, so the last block is partial
        samples = 3 * (tensor.BLOCK_AMPLITUDES // (d * d)) + 1
        _, _, values = lemma2_exceedance(d, 3, 0.1, samples, rng_stream(114, d))
        assert np.array_equal(values, per_sample_lemma2_values(d, 3, samples, rng_stream(114, d)))

    def test_peak_memory_does_not_grow_with_samples(self):
        # one block's states and their gamma temporaries, plus the 160 KB of values;
        # drawing all 20,000 states at once would hold about 80 MiB
        rng = rng_stream(115)
        tracemalloc.start()
        try:
            lemma2_exceedance(16, 2, 0.1, 20_000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_non_positive_sample_count_rejected(self):
        with pytest.raises(ValueError, match="need at least one sample, got 0"):
            lemma2_exceedance(16, 2, 0.1, 0, rng_stream(1))


def per_sample_lemma2_values(d, m, samples, rng):
    """Reference for ``lemma2_exceedance``: one state drawn and evaluated at a time."""
    values = np.empty(samples)
    for idx in range(samples):
        psi = random_real_unit_vector(d * d, rng)
        values[idx] = bell_value_gamma(psi, d, m)
    return values


class TestGlobalInvariants:
    def test_global_phase_invariance(self):
        rng = rng_stream(110)
        d, m = 4, 2
        for _ in range(10):
            psi = random_state(d * d, rng)
            v = bell_value_gamma(psi, d, m)
            assert abs(bell_value_gamma(np.exp(1.3j) * psi, d, m) - v) < 1e-12

    def test_sign_flip_invariance(self):
        rng = rng_stream(111)
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
        rng = rng_stream(112)
        d, m = 4, 2
        phi = max_entangled(d)
        for _ in range(200):
            u1 = random_real_orthogonal(d, rng)
            u2 = random_real_orthogonal(d, rng)
            v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
            assert v <= m * (d - 1) + ATOL
