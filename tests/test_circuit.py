import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bellcheck.circuit import (
    GATE_ARITY,
    GATE_MATRICES,
    Circuit,
    CircuitParseError,
    CircuitWidthError,
    Gate,
    circuit_unitary,
    cz_layer,
    embed_double,
    embedded_pair_state,
    parse_circuit,
)
from bellcheck.measurement import wrap_diagonals
from bellcheck.tensor import RngStream, apply_bilocal, max_entangled, random_real_orthogonal

ATOL = 1e-9


class TestParse:
    def test_single_gate(self):
        c = parse_circuit("qubits 1\nH 0")
        assert c.n_qubits == 1
        assert c.gates == (Gate("H", (0,)),)

    def test_toffoli(self):
        c = parse_circuit("qubits 3\nTOFFOLI 0 1 2")
        assert c.gates == (Gate("TOFFOLI", (0, 1, 2)),)

    def test_comments_and_blanks(self):
        src = "# full line comment\n\nqubits 2  # trailing\n  CX 0 1 # note\n"
        c = parse_circuit(src)
        assert c.n_qubits == 2
        assert c.gates == (Gate("CX", (0, 1)),)

    def test_unknown_gate_rejected_with_line(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 1\nY 0")
        assert err.value.line == 2
        assert "Y" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("H 0")
        with pytest.raises(CircuitParseError):
            parse_circuit("# only comments\n")

    def test_bad_qubit_count(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 0\n")
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits two\n")

    def test_width_error(self):
        with pytest.raises(CircuitWidthError) as err:
            parse_circuit("qubits 2\nH 0\nCX 0 2")
        assert err.value.line == 3

    def test_width_error_is_parse_error(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 1\nZ 5")

    def test_arity_mismatch(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nCX 0")

    def test_duplicate_targets(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nSWAP 1 1")

    def test_negative_index(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nX -1")

    def test_non_integer_index(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nX a")


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        assert_allclose(circuit_unitary(Circuit(2)), np.eye(4), atol=1e-15)

    def test_hadamard(self):
        u = circuit_unitary(parse_circuit("qubits 1\nH 0"))
        assert_allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)

    def test_z_squared_is_identity(self):
        u = circuit_unitary(parse_circuit("qubits 1\nZ 0\nZ 0"))
        assert_allclose(u, np.eye(2), atol=1e-15)

    def test_application_order(self):
        # gates listed first are applied first: matrix is X @ H
        u = circuit_unitary(parse_circuit("qubits 1\nH 0\nX 0"))
        assert_allclose(u, GATE_MATRICES["X"] @ GATE_MATRICES["H"], atol=1e-15)

    def test_cx_control_is_most_significant(self):
        u = circuit_unitary(parse_circuit("qubits 2\nCX 0 1"))
        want = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], float)
        assert_allclose(u, want, atol=1e-15)

    def test_cx_reversed_targets(self):
        # control on qubit 1 (LSB): |01> <-> |11>
        u = circuit_unitary(parse_circuit("qubits 2\nCX 1 0"))
        want = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], float)
        assert_allclose(u, want, atol=1e-15)

    def test_swap_matrix(self):
        u = circuit_unitary(parse_circuit("qubits 2\nSWAP 0 1"))
        assert_allclose(u, GATE_MATRICES["SWAP"], atol=1e-15)

    def test_toffoli_on_three_qubits(self):
        u = circuit_unitary(parse_circuit("qubits 3\nTOFFOLI 0 1 2"))
        want = np.eye(8)
        want[[6, 7]] = want[[7, 6]]
        assert_allclose(u, want, atol=1e-15)

    def test_single_qubit_gate_placement(self):
        # Z on qubit 1 of 2 is I (x) Z under the MSB-first convention
        u = circuit_unitary(parse_circuit("qubits 2\nZ 1"))
        assert_allclose(u, np.kron(np.eye(2), GATE_MATRICES["Z"]), atol=1e-15)
        u0 = circuit_unitary(parse_circuit("qubits 2\nZ 0"))
        assert_allclose(u0, np.kron(GATE_MATRICES["Z"], np.eye(2)), atol=1e-15)

    def test_random_circuits_are_real_orthogonal(self):
        rng = RngStream(51)
        names = list(GATE_MATRICES)
        for _ in range(20):
            n = int(rng.gen.integers(1, 4))
            gates = []
            for _ in range(int(rng.gen.integers(0, 12))):
                usable = [g for g in names if GATE_ARITY[g] <= n]
                kind = usable[int(rng.gen.integers(len(usable)))]
                targets = tuple(
                    int(t) for t in rng.gen.choice(n, size=GATE_ARITY[kind], replace=False)
                )
                gates.append(Gate(kind, targets))
            u = circuit_unitary(Circuit(n, tuple(gates)))
            assert np.isrealobj(u)
            assert np.max(np.abs(u.T @ u - np.eye(2**n))) < ATOL


class TestCzLayer:
    def test_single_pair(self):
        assert_allclose(cz_layer(1), np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-15)

    def test_pairing_rule_n2(self):
        # independent oracle: sign (-1)^(a1 b1 + a2 b2) at index a1 a2 b1 b2
        layer = cz_layer(2)
        for idx in range(16):
            a1, a2, b1, b2 = (idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
            assert layer[idx, idx] == (-1.0) ** (a1 * b1 + a2 * b2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_involution(self, n):
        layer = cz_layer(n)
        assert_allclose(layer @ layer, np.eye(4**n), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_gate_list(self, n):
        gates = tuple(Gate("CZ", (i, n + i)) for i in range(n))
        assert_allclose(cz_layer(n), circuit_unitary(Circuit(2 * n, gates)), atol=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cz_layer(0)


class TestEmbedDouble:
    def test_identity_embeds_to_cz_layer(self):
        assert_allclose(embed_double(np.eye(2)), cz_layer(1), atol=1e-15)
        assert_allclose(embed_double(np.eye(4)), cz_layer(2), atol=1e-15)

    def test_sigma_z_hand_product(self):
        # diag(1,1,1,-1) @ (Z (x) I) = diag(1,1,-1,1)
        sz = np.diag([1.0, -1.0])
        assert_allclose(embed_double(sz), np.diag([1.0, 1.0, -1.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unitary(self, n):
        rng = RngStream(61, n)
        u = random_real_orthogonal(2**n, rng)
        e = embed_double(u)
        assert np.max(np.abs(e.T @ e - np.eye(4**n))) < ATOL

    @pytest.mark.parametrize("n", [1, 2])
    def test_preserves_distance(self, n):
        from bellcheck.distance import circuit_distance

        rng = RngStream(62, n)
        for _ in range(10):
            u1 = random_real_orthogonal(2**n, rng)
            u2 = random_real_orthogonal(2**n, rng)
            assert abs(
                circuit_distance(embed_double(u1), embed_double(u2))
                - circuit_distance(u1, u2)
            ) < ATOL

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            embed_double(np.eye(3))
        with pytest.raises(ValueError):
            embed_double(np.eye(1))
        with pytest.raises(ValueError):
            embed_double(np.zeros((2, 3)))


def random_unitary(dim, rng):
    """Haar complex unitary: QR of a complex Gaussian with R's diagonal phases absorbed."""
    g = rng.gen.standard_normal((dim, dim)) + 1j * rng.gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestEmbeddedPairState:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("draw", [random_real_orthogonal, random_unitary])
    def test_matches_embed_then_apply(self, n, draw):
        # the layout holds the dense oracle's diagonals at offsets t * 2^n; the rest are zero
        rng = RngStream(64, n)
        dim = 2**n
        d = dim * dim
        for _ in range(3):
            u1 = draw(dim, rng)
            u2 = draw(dim, rng)
            dense = apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))
            want, _ = wrap_diagonals(dense, d)
            got = embedded_pair_state(u1, u2)
            assert_array_equal(got.offsets, np.arange(dim) * dim)
            assert_allclose(got.rows, want.rows[got.offsets], rtol=0, atol=1e-12)
            omitted = np.setdiff1d(np.arange(d), got.offsets)
            assert np.all(want.rows[omitted] == 0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            embedded_pair_state(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            embedded_pair_state(np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            embedded_pair_state(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            embedded_pair_state(np.eye(2), np.eye(4))


@pytest.mark.parametrize("n", [1, 2])
def test_embedded_coefficient_grid_structure(n):
    """Coefficient-grid properties that make the embedded Bell value exact.

    For psi = (E1 (x) E2) Phi with E = embed_double(U): writing row index
    k = (a, b) and column index j = (c, e) as n-bit half-blocks,
    (1) gamma[k, j] = 0 whenever the ancilla halves b, e differ, and
    (2) for b == e and a_i != c_i, flipping ancilla bit i on both sides
        negates the entry.  Together these cancel every wrap-diagonal sum
        with r != 0.
    """
    rng = RngStream(63, n)
    dim = 2**n
    d = dim * dim
    for _ in range(8):
        u1 = random_real_orthogonal(dim, rng)
        u2 = random_real_orthogonal(dim, rng)
        psi = apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))
        grid = psi.reshape(d, d)
        mask = dim - 1
        for k in range(d):
            a, b = k >> n, k & mask
            for j in range(d):
                c, e = j >> n, j & mask
                if b != e:
                    assert abs(grid[k, j]) < 1e-12
                    continue
                for i in range(n):
                    bit = 1 << i
                    if (a ^ c) & bit:
                        k_flip = k ^ bit
                        j_flip = j ^ bit
                        assert abs(grid[k_flip, j_flip] + grid[k, j]) < 1e-12
        # wrap-diagonal sums vanish away from the main diagonal
        for r in range(1, d):
            assert abs(grid.diagonal(r).sum()) < 1e-12
            assert abs(grid.diagonal(r - d).sum()) < 1e-12
