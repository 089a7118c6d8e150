import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bellcheck import circuit as circuit_module
from bellcheck.circuit import (
    GATE_ARITY,
    GATE_MATRICES,
    Circuit,
    CircuitParseError,
    CircuitWidthError,
    Gate,
    circuit_unitary,
    embed_double,
    embedded_pair_state,
    integer_unitary,
    pair_circuit,
    parse_circuit,
)
from bellcheck.distance import circuit_distance
from bellcheck.measurement import wrap_diagonals
from bellcheck.tensor import apply_bilocal, max_entangled, random_real_orthogonal, rng_stream
from oracles import cz_layer, oracle_circuit_unitary, scaled_integer_unitary

PAIRS_PATH = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"

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

    @pytest.mark.parametrize("token", ["0_1", "+1", "\u0662", "\uff11"])  # ٢ and １
    def test_count_and_indices_are_ascii_decimals(self, token):
        # int() reads each of these; the grammar takes only -?[0-9]+
        with pytest.raises(CircuitParseError) as count:
            parse_circuit(f"qubits {token}\nH 0")
        assert str(count.value) == f"line 1: invalid qubit count {token!r}"
        with pytest.raises(CircuitParseError) as index:
            parse_circuit(f"qubits 3\nH 0\nCX 0 {token}")
        assert str(index.value) == "line 3: qubit indices must be integers"

    def test_each_gate_checked_once(self, monkeypatch):
        lines = []
        check_gate = circuit_module._check_gate

        def counting_check(kind, targets, n_qubits, line=None):
            lines.append(line)
            check_gate(kind, targets, n_qubits, line)

        monkeypatch.setattr(circuit_module, "_check_gate", counting_check)
        parsed = parse_circuit("qubits 3\nH 0\n# note\nCX 0 1\nTOFFOLI 2 0 1\nZ 2\n")
        assert lines == [2, 4, 5, 6]
        assert parsed == Circuit(3, parsed.gates)


class TestGateRule:
    @pytest.mark.parametrize("line", ["Y 0", "CX 0", "X -1", "SWAP 1 1", "CX 0 2"])
    def test_built_circuit_obeys_the_parser_rule(self, line):
        with pytest.raises(CircuitParseError) as parsed:
            parse_circuit(f"qubits 2\n{line}")
        kind, *targets = line.split()
        with pytest.raises(type(parsed.value)) as built:
            Circuit(2, (Gate(kind, tuple(map(int, targets))),))
        assert str(parsed.value) == f"line 2: {built.value}"
        assert built.value.line is None

    def test_empty_register_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            Circuit(0)


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        assert_allclose(circuit_unitary(Circuit(2)), np.eye(4), atol=1e-15)

    def test_hadamard(self):
        u = circuit_unitary(parse_circuit("qubits 1\nH 0"))
        assert_allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
        s, h = integer_unitary(parse_circuit("qubits 1\nH 0"))
        assert s.dtype == np.int64 and h == 1
        assert_array_equal(s, [[1, 1], [1, -1]])

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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_signed_permutations_match_the_oracle_exactly(self, n):
        # without H the synthesis is the signed-row map alone: entries in {-1, 0, 1},
        # bit for bit the dense oracle's, also through runs of sign flips that take
        # a row's sign bit across d and back
        rng = rng_stream(74, n)
        no_h = [kind for kind in GATE_MATRICES if kind != "H"]
        flips = tuple(Gate(kind, (q,)) for q in {0, n - 1} for kind in ("Z", "X", "Z", "Z", "X"))
        for _ in range(20):
            gates = random_gates(rng, n, int(rng.integers(0, 30)), no_h)
            circuit = Circuit(n, gates + flips + random_gates(rng, n, 10, no_h) + flips)
            u = circuit_unitary(circuit)
            assert_array_equal(u, oracle_circuit_unitary(circuit))
            assert set(np.unique(u)) <= {-1.0, 0.0, 1.0}
            s, h = integer_unitary(circuit)
            assert h == 0
            assert_array_equal(s, u)

    def test_random_circuits_are_real_orthogonal(self):
        rng = rng_stream(51)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            u = circuit_unitary(Circuit(n, random_gates(rng, n, int(rng.integers(0, 12)))))
            assert np.isrealobj(u)
            assert np.max(np.abs(u.T @ u - np.eye(2**n))) < ATOL


def random_gates(rng, n, count, kinds=tuple(GATE_MATRICES)):
    """``count`` gates drawn from ``kinds`` on n qubits, targets in random order."""
    gates = []
    usable = [kind for kind in kinds if GATE_ARITY[kind] <= n]
    for _ in range(count):
        kind = usable[int(rng.integers(len(usable)))]
        targets = rng.choice(n, size=GATE_ARITY[kind], replace=False)
        gates.append(Gate(kind, tuple(int(t) for t in targets)))
    return tuple(gates)


class TestAgainstOracle:
    """The row-action synthesis against the moveaxis/matmul loop it replaced.

    The old loop's 2 x 2 products run through BLAS, which may fuse the
    multiply-add, so circuits with H agree to rounding; signed permutations
    are exact on both sides.  ``circuit_unitary`` is the float view of the
    integer synthesis S 2^(-h/2), each entry rounded once, bit for bit.
    """

    @staticmethod
    def check(circuit):
        got, want = circuit_unitary(circuit), oracle_circuit_unitary(circuit)
        if any(gate.kind == "H" for gate in circuit.gates):
            assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            assert_array_equal(got, want)
        assert_array_equal(scaled_integer_unitary(*integer_unitary(circuit)), got)

    def test_float_view_past_the_float_range(self):
        # 30,000 gates drawn uniformly over the seven kinds: S goes on as Python ints and
        # reaches h > 2,046, where 2^(h/2) and most entries of S are past the float range
        rng = rng_stream(9)
        circuit = Circuit(3, random_gates(rng, 3, 30000))
        s, h = integer_unitary(circuit)
        assert s.dtype == object and h > 2046
        got = circuit_unitary(circuit)
        assert_allclose(got, oracle_circuit_unitary(circuit), rtol=0, atol=1e-12)
        assert np.isrealobj(got)
        assert_allclose(got.T @ got, np.eye(8), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_circuits(self, n):
        rng = rng_stream(71, n)
        for _ in range(100):
            self.check(Circuit(n, random_gates(rng, n, int(rng.integers(0, 40)))))

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_gate_and_target_order(self, n):
        h_layer = tuple(Gate("H", (q,)) for q in range(n))
        for kind, arity in GATE_ARITY.items():
            for targets in itertools.permutations(range(n), arity):
                gate = Gate(kind, targets)
                self.check(Circuit(n, (gate,)))
                self.check(Circuit(n, h_layer + (gate, Gate("H", (targets[-1],)), gate)))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_empty_h_only_and_no_h(self, n):
        rng = rng_stream(72, n)
        no_h = [kind for kind in GATE_MATRICES if kind != "H"]
        self.check(Circuit(n))
        for _ in range(10):
            self.check(Circuit(n, random_gates(rng, n, int(rng.integers(1, 30)), ("H",))))
            self.check(Circuit(n, random_gates(rng, n, int(rng.integers(1, 60)), no_h)))

    def test_action_cache_is_bounded(self):
        action = circuit_module._row_action
        action.cache_clear()
        keys = [
            (kind, targets, n)
            for n in range(1, 6)
            for kind, arity in GATE_ARITY.items()
            for targets in itertools.permutations(range(n), arity)
        ]
        assert len(keys) > action.cache_info().maxsize
        for key in keys:
            action(*key)
        info = action.cache_info()
        assert info.misses == len(keys)
        assert info.currsize <= info.maxsize
        action.cache_clear()


class TestPairCircuit:
    """W = U1 U2^T is one synthesis: circuit 2's gates reversed, then circuit 1's."""

    @pytest.mark.parametrize("kind", sorted(GATE_MATRICES))
    def test_every_gate_is_a_symmetric_involution(self, kind):
        # reversing a circuit transposes its unitary only for such gates: an S or T gate fails here
        mat = GATE_MATRICES[kind]
        assert_array_equal(mat, mat.T)
        assert_allclose(mat @ mat, np.eye(len(mat)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_synthesis_equals_the_product(self, n):
        rng = rng_stream(73, n)
        for _ in range(20):
            c1 = Circuit(n, random_gates(rng, n, int(rng.integers(0, 40))))
            c2 = Circuit(n, random_gates(rng, n, int(rng.integers(0, 40))))
            w = circuit_unitary(pair_circuit(c1, c2))
            assert_allclose(w, circuit_unitary(c1) @ circuit_unitary(c2).T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_pairs_read_zero_from_w(self, n):
        # c against itself with an H H pair inserted: the joined W is +-I exactly, so D is 0
        rng = rng_stream(75, n)
        for _ in range(40):
            gates = random_gates(rng, n, 40)
            cut = int(rng.integers(41))
            pair = (Gate("H", (int(rng.integers(n)),)),) * 2
            w = circuit_unitary(pair_circuit(Circuit(n, gates),
                                             Circuit(n, gates[:cut] + pair + gates[cut:])))
            assert circuit_distance(w) == 0.0

    def test_gates_are_not_checked_again(self, monkeypatch):
        c1 = parse_circuit("qubits 3\nH 0\nCX 0 1\nTOFFOLI 2 0 1\n")
        c2 = parse_circuit("qubits 3\nSWAP 0 2\nZ 1\n")

        def refuse(*args):
            pytest.fail("a joined gate was checked again")

        monkeypatch.setattr(circuit_module, "_check_gate", refuse)
        joined = pair_circuit(c1, c2)
        monkeypatch.undo()
        assert joined == Circuit(3, c2.gates[::-1] + c1.gates)

    def test_widths_must_match(self):
        with pytest.raises(CircuitWidthError, match="circuit widths differ: 1 vs 2 qubits"):
            pair_circuit(Circuit(1), Circuit(2))


@pytest.fixture(scope="module")
def bench_pairs():
    """``bench/pairs.py``, loaded from its path unedited: an integer simulator of its own."""
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_matches_bench_integer_simulator(bench_pairs, tmp_path):
    pairs = bench_pairs.generate_pairs(11, 12, tmp_path)
    rewrites = 0
    for pair in pairs:
        unitaries = []
        for path in (pair.path_a, pair.path_b):
            circuit = parse_circuit(Path(path).read_text())
            gates = [(gate.kind, gate.targets) for gate in circuit.gates]
            unitaries.append(circuit_unitary(circuit))
            want = bench_pairs.oracle_unitary(gates, circuit.n_qubits)
            assert_allclose(unitaries[-1], want, rtol=0, atol=1e-12)
            s, h = integer_unitary(circuit)  # below 2n + h = 124: no halving
            want_s, want_h = bench_pairs.simulate(gates, circuit.n_qubits)
            assert h == want_h
            assert_array_equal(s, want_s)
        if pair.klass == "rewrite":
            rewrites += 1
            assert circuit_distance(unitaries[0] @ unitaries[1].T) <= 1e-7
    assert len(pairs) * 2 == 24 and rewrites == 4


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
        rng = rng_stream(61, n)
        u = random_real_orthogonal(2**n, rng)
        e = embed_double(u)
        assert np.max(np.abs(e.T @ e - np.eye(4**n))) < ATOL

    @pytest.mark.parametrize("n", [1, 2])
    def test_preserves_distance(self, n):
        from bellcheck.distance import circuit_distance

        rng = rng_stream(62, n)
        for _ in range(10):
            u1 = random_real_orthogonal(2**n, rng)
            u2 = random_real_orthogonal(2**n, rng)
            assert abs(
                circuit_distance(embed_double(u1) @ embed_double(u2).T)
                - circuit_distance(u1 @ u2.T)
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
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestEmbeddedPairState:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("draw", [random_real_orthogonal, random_unitary])
    def test_matches_embed_then_apply(self, n, draw):
        # the layout holds the dense oracle's diagonals at offsets t * 2^n; the rest are zero
        rng = rng_stream(64, n)
        dim = 2**n
        d = dim * dim
        for _ in range(3):
            u1 = draw(dim, rng)
            u2 = draw(dim, rng)
            dense = apply_bilocal(embed_double(u1), embed_double(u2), max_entangled(d))
            want, _ = wrap_diagonals(dense, d)
            got = embedded_pair_state(u1 @ u2.T)
            assert_array_equal(got.offsets, np.arange(dim) * dim)
            assert_allclose(got.rows, want.rows[got.offsets], rtol=0, atol=1e-12)
            omitted = np.setdiff1d(np.arange(d), got.offsets)
            assert np.all(want.rows[omitted] == 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("draw", [random_real_orthogonal, random_unitary])
    def test_stack_equals_per_item(self, n, draw):
        rng = rng_stream(65, n)
        dim = 2**n
        pairs = np.array([[draw(dim, rng) for _ in range(2)] for _ in range(12)])
        pairs = pairs.reshape(3, 4, 2, dim, dim)
        w = pairs[..., 0, :, :] @ pairs[..., 1, :, :].mT
        got = embedded_pair_state(w)
        assert got.rows.shape == (3, 4, dim, dim * dim)
        assert_array_equal(got.offsets, np.arange(dim) * dim)
        for idx in np.ndindex(3, 4):
            single = embedded_pair_state(w[idx])
            assert got.rows[idx].tobytes() == single.rows.tobytes()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            embedded_pair_state(np.eye(3))
        with pytest.raises(ValueError):
            embedded_pair_state(np.eye(1))
        with pytest.raises(ValueError):
            embedded_pair_state(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            embedded_pair_state(np.zeros((2, 4)))


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
    rng = rng_stream(63, n)
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
