import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import bellcheck
from bellcheck.circuit import embedded_pair_state
from bellcheck.measurement import (
    ALICE,
    BOB,
    WrapDiagonals,
    basis,
    chsh_observables,
    product_factors,
    sequential_distribution,
    wrap_diagonals,
)
from bellcheck.tensor import (
    apply_bilocal, max_entangled, random_real_orthogonal, random_real_unit_vector, rng_stream,
)
from oracles import observable_power, outcome_distribution

ATOL = 1e-9


def random_state(dim2, rng):
    z = rng.standard_normal(dim2) + 1j * rng.standard_normal(dim2)
    return z / np.linalg.norm(z)


class TestBasis:
    def test_d2_alice_first_setting(self):
        # phase shift 1/4; outcome 0 amplitudes (1, e^{-i pi/4})/sqrt2
        b = basis(2, 2, 1, ALICE)
        want = np.array([1.0, np.exp(-1j * np.pi / 4)]) / np.sqrt(2)
        assert_allclose(b[:, 0], want, atol=1e-12)

    def test_bob_conjugate_form(self):
        # Bob's vectors follow the conjugated phase with shift y/m
        d, m, y = 4, 3, 2
        b = basis(d, m, y, BOB)
        k = np.arange(d)
        for outcome in range(d):
            want = np.exp(-2j * np.pi * k * (outcome - y / m) / d) / np.sqrt(d)
            assert_allclose(b[:, outcome], want, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_gram_matrix_is_identity(self, d, m):
        for party in (ALICE, BOB):
            for setting in range(1, m + 1):
                v = basis(d, m, setting, party)
                assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < ATOL

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_resolution_of_identity(self, d):
        for m in (2, 4):
            for setting in range(1, m + 1):
                v = basis(d, m, setting, ALICE)
                assert np.max(np.abs(v @ v.conj().T - np.eye(d))) < ATOL

    def test_setting_out_of_range(self):
        with pytest.raises(ValueError):
            basis(4, 2, 0, ALICE)
        with pytest.raises(ValueError):
            basis(4, 2, 3, ALICE)

    def test_invalid_party_and_dim(self):
        with pytest.raises(ValueError):
            basis(4, 2, 1, "carol")
        with pytest.raises(ValueError):
            basis(1, 2, 1, ALICE)

    def test_vectors_read_only(self):
        with pytest.raises(ValueError):
            basis(2, 2, 1, ALICE)[0, 0] = 0


class TestObservablePower:
    def test_unitary_all_settings_and_powers(self):
        d, m = 4, 2
        for setting in (1, 2):
            for power in range(1, d):
                for party in (ALICE, BOB):
                    a = observable_power(d, m, setting, power, party)
                    assert np.max(np.abs(a.conj().T @ a - np.eye(d))) < ATOL

    def test_eigenvalues_are_root_powers(self):
        d, m = 4, 2
        for power in (1, 2, 3):
            a = observable_power(d, m, 1, power, ALICE)
            got = np.sort_complex(np.linalg.eigvals(a))
            want = np.sort_complex(np.exp(2j * np.pi * np.arange(d) * power / d))
            assert_allclose(got, want, atol=1e-9)

    def test_bob_is_entrywise_conjugate(self):
        d, m = 8, 3
        for setting in (1, 3):
            a = observable_power(d, m, setting, 2, ALICE)
            b = observable_power(d, m, setting, 2, BOB)
            assert np.array_equal(b, a.conj())

    @pytest.mark.parametrize("d,m", [(2, 2), (4, 2), (8, 3)])
    def test_power_sum_on_entangled_state(self, d, m):
        # sum_l <Phi| A_i^l (x) conj(A_i^l) |Phi> = d - 1 for each setting
        phi = max_entangled(d)
        grid = phi.reshape(d, d)
        for setting in range(1, m + 1):
            total = 0j
            for power in range(1, d):
                a = observable_power(d, m, setting, power, ALICE)
                b = observable_power(d, m, setting, power, BOB)
                total += np.vdot(grid, a @ grid @ b.T)
            assert abs(total - (d - 1)) < ATOL

    def test_power_out_of_range(self):
        for power in (0, 4, -1):
            with pytest.raises(ValueError):
                observable_power(4, 2, 1, power, ALICE)


class TestOutcomeDistribution:
    @pytest.mark.parametrize("d,m", [(2, 2), (4, 2), (8, 3)])
    def test_sums_to_one(self, d, m):
        rng = rng_stream(71, d)
        psi = random_state(d * d, rng)
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                probs = outcome_distribution(psi, x, y, d, m)
                assert abs(probs.sum() - 1.0) < ATOL
                assert np.all(probs >= 0)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_entangled_state_marginals_uniform(self, d):
        phi = max_entangled(d)
        probs = outcome_distribution(phi, 1, 2, d, 2)
        assert_allclose(probs.sum(axis=1), np.full(d, 1 / d), atol=ATOL)
        assert_allclose(probs.sum(axis=0), np.full(d, 1 / d), atol=ATOL)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            outcome_distribution(np.ones(4, dtype=complex), 1, 1, 2, 2)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            outcome_distribution(max_entangled(2), 1, 1, 4, 2)

    def test_chsh_correlators_from_probabilities(self):
        # the d=2, m=2 protocol statistics reproduce the maximal CHSH value
        # when combined through the fixed CHSH observables' eigenbases
        a0, a1, b0, b1 = chsh_observables()
        phi = max_entangled(2)

        def eigenbasis(obs):
            vals, vecs = np.linalg.eigh(obs)
            order = np.argsort(-vals)  # eigenvalue +1 first
            return vals[order], vecs[:, order]

        def correlator(obs_a, obs_b):
            va, ua = eigenbasis(obs_a)
            vb, ub = eigenbasis(obs_b)
            probs = np.abs(ua.conj().T @ phi.reshape(2, 2) @ ub.conj()) ** 2
            return float(np.sum(np.outer(va, vb) * probs))

        chsh = (
            correlator(a0, b0)
            + correlator(a1, b0)
            + correlator(a0, b1)
            - correlator(a1, b1)
        )
        assert abs(chsh - 2 * np.sqrt(2)) < ATOL


class TestWrapDiagonals:
    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_dense_state_index_map(self, d):
        psi = random_state(d * d, rng_stream(152, d))
        grid = psi.reshape(d, d)
        layout, wrapped = wrap_diagonals(psi, d)
        assert_array_equal(layout.offsets, np.arange(d))
        for r in range(d):
            for k in range(d):
                assert layout.rows[r, k] == grid[k, (k + r) % d]
                assert wrapped[r, k] == (k + r >= d)

    def test_layout_passes_through(self):
        d = 4
        rows = np.zeros((2, d), dtype=complex)
        rows[0, 0] = rows[1, 3] = np.sqrt(0.5)
        layout, wrapped = wrap_diagonals(WrapDiagonals(np.array([3, 1]), rows), d)
        assert_array_equal(layout.offsets, [3, 1])
        assert_array_equal(layout.rows, rows)
        assert_array_equal(wrapped, [[False, True, True, True], [False, False, False, True]])

    def test_narrow_offset_type_whose_range_excludes_d(self):
        d = 256
        rows = np.full((2, d), np.sqrt(1 / (2 * d)))
        _, wrapped = wrap_diagonals(WrapDiagonals(np.array([0, 255], dtype=np.uint8), rows), d)
        assert_array_equal(wrapped.sum(axis=1), [0, 255])

    @pytest.mark.parametrize("dense", [True, False])
    def test_rows_keep_the_input_dtype(self, dense):
        # real rows stay float64 and are not copied; complex rows are complex128
        d = 4
        # amplitudes of +-1/4: normalized in single precision too
        real = np.where(random_real_unit_vector(d * d, rng_stream(154)) < 0, -0.25, 0.25)
        for state, dtype in [(real, np.float64), (real.astype(np.float32), np.float64),
                             (real * 1j, np.complex128),
                             ((real * 1j).astype(np.complex64), np.complex128)]:
            if not dense:
                state = WrapDiagonals(np.arange(d), state.reshape(d, d))
            layout, _ = wrap_diagonals(state, d)
            assert layout.rows.dtype == dtype
        layout, _ = wrap_diagonals(WrapDiagonals(np.arange(d), real.reshape(d, d)), d)
        assert np.shares_memory(layout.rows, real)

    def test_peak_memory_is_the_returned_arrays(self):
        # n = 6 embedded layout (d = 4096, 64 real rows): the real rows pass through
        # uncopied, so the peak is the bool mask; a copy of the rows or an (R, d) int64
        # offset sum would each add eight times the mask's size
        rng = rng_stream(153)
        u1, u2 = random_real_orthogonal(64, rng), random_real_orthogonal(64, rng)
        state = embedded_pair_state(u1 @ u2.T)
        tracemalloc.start()
        try:
            layout, wrapped = wrap_diagonals(state, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * wrapped.nbytes

    def test_rejects_bad_layouts(self):
        d = 4
        rows = np.full((2, d), np.sqrt(1 / 8), dtype=complex)
        for offsets in ([0, 0], [0, 4], [-1, 1], [0.0, 1.0], [[0, 1]]):
            with pytest.raises(ValueError):
                wrap_diagonals(WrapDiagonals(np.array(offsets), rows), d)
        with pytest.raises(ValueError):
            wrap_diagonals(WrapDiagonals(np.array([0, 1]), rows[:, :3]), d)
        with pytest.raises(ValueError):
            wrap_diagonals(WrapDiagonals(np.array([0, 1]), 2 * rows), d)
        with pytest.raises(ValueError):
            wrap_diagonals(max_entangled(4), 3)


class TestChshObservables:
    def test_squares_are_identity(self):
        for obs in chsh_observables():
            assert_allclose(obs @ obs, np.eye(2), atol=ATOL)

    def test_pauli_orthogonality(self):
        a0, a1, _, _ = chsh_observables()
        assert abs(np.trace(a0 @ a1)) < 1e-12

    def test_hermitian_with_unit_eigenvalues(self):
        for obs in chsh_observables():
            assert_allclose(obs, obs.conj().T, atol=1e-12)
            assert_allclose(np.sort(np.linalg.eigvalsh(obs)), [-1.0, 1.0], atol=1e-12)

    def test_epr_correlator(self):
        a0, _, b0, _ = chsh_observables()
        phi = max_entangled(2)
        val = np.vdot(phi, np.kron(a0, b0) @ phi)
        assert abs(val - 1 / np.sqrt(2)) < ATOL


class TestProductFactors:
    def test_single_qubit_factor_is_basis_vector(self):
        for party in (ALICE, BOB):
            for outcome in (0, 1):
                factors = product_factors(1, 2, 1, outcome, party)
                assert len(factors) == 1
                assert_allclose(
                    factors[0], basis(2, 2, 1, party)[:, outcome], atol=1e-12
                )

    @pytest.mark.parametrize("n", [2, 3])
    def test_kron_assembly_reproduces_basis_vector(self, n):
        d = 2**n
        rng = rng_stream(81, n)
        for party in (ALICE, BOB):
            for _ in range(6):
                m = int(rng.integers(2, 5))
                setting = int(rng.integers(1, m + 1))
                outcome = int(rng.integers(d))
                factors = product_factors(n, m, setting, outcome, party)
                vec = factors[-1]
                for f in reversed(factors[:-1]):
                    vec = np.kron(vec, f)
                assert_allclose(
                    vec, basis(d, m, setting, party)[:, outcome], atol=ATOL
                )

    def test_factor_shapes_and_magnitudes(self):
        factors = product_factors(3, 2, 2, 5, BOB)
        assert len(factors) == 3
        for f in factors:
            assert abs(np.linalg.norm(f) - 1.0) < 1e-12
            assert_allclose(np.abs(f), np.full(2, 1 / np.sqrt(2)), atol=1e-12)

    def test_outcome_range(self):
        with pytest.raises(ValueError):
            product_factors(2, 2, 1, 4, ALICE)
        with pytest.raises(ValueError):
            product_factors(0, 2, 1, 0, ALICE)


class TestSequentialDistribution:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_projective_distribution(self, n):
        d = 2**n
        rng = rng_stream(91, n)
        for m in (2, 3):
            psi = random_state(d * d, rng)
            for x in range(1, m + 1):
                for y in range(1, m + 1):
                    seq = sequential_distribution(psi, x, y, n, m)
                    full = outcome_distribution(psi, x, y, d, m)
                    assert np.max(np.abs(seq - full)) < ATOL

    def test_matches_on_circuit_output_state(self):
        n, d, m = 2, 4, 2
        rng = rng_stream(92)
        u1 = random_real_orthogonal(d, rng)
        u2 = random_real_orthogonal(d, rng)
        psi = apply_bilocal(u1, u2, max_entangled(d))
        seq = sequential_distribution(psi, 2, 1, n, m)
        full = outcome_distribution(psi, 2, 1, d, m)
        assert np.max(np.abs(seq - full)) < ATOL


def test_every_cache_is_bounded():
    cached = []
    for info in pkgutil.iter_modules(bellcheck.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"bellcheck.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                cached.append(name)
                assert value.cache_info().maxsize is not None, f"{info.name}.{name} is unbounded"
    assert "basis" in cached
