import csv
import io
import math
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import bellcheck
from bellcheck import cli, svgplot, tensor
from bellcheck.bell import bell_value_gamma
from bellcheck.cli import COMPARE_HEADER, FIG1_HEADER, LEMMA2_HEADER, _fmt, _write_csv, main
from bellcheck.circuit import (
    GATE_ARITY, _row_action, circuit_unitary, embedded_pair_state, integer_unitary, pair_circuit,
    parse_circuit,
)
from bellcheck.distance import circuit_distance, distance_bounds_from_v
from bellcheck.tensor import (
    RngStream, apply_bilocal, max_entangled, random_real_orthogonal, random_real_unit_vector,
)
from oracles import _fig3_point, oracle_circuit_unitary, per_pair_fig3, scaled_integer_unitary

DATA = Path(__file__).parent / "data"
NOT_UTF8 = str(DATA / "not_utf8.txt")  # a circuit or CSV file whose first byte is 0xff
SVG = "http://www.w3.org/2000/svg"
HADAMARD = "qubits 1\nH 0\n"
PAULI_Z = "qubits 1\nZ 0\n"
# trailing Z X Z X block realizes a -I factor: a pure global sign
HADAMARD_SIGNED = "qubits 1\nH 0\nZ 0\nX 0\nZ 0\nX 0\n"


def wide_pair(tmp_path, n):
    """Two n-qubit circuit files that differ by one trailing CX, and their distance."""
    body = f"qubits {n}\nH 0\nCX 0 1\nH 2\nTOFFOLI 0 2 3\nSWAP 1 {n - 1}\nCX 3 4\n"
    a, b = tmp_path / "a.qc", tmp_path / "b.qc"
    a.write_text(body)
    b.write_text(body + f"CX 2 {n - 1}\n")
    dist = circuit_distance(circuit_unitary(parse_circuit(a.read_text()))
                            @ circuit_unitary(parse_circuit(b.read_text())).T)
    return str(a), str(b), dist


def run_python(*args):
    """A fresh interpreter run with ``args``; it imports the same bellcheck as this
    process, installed or not."""
    src = str(Path(bellcheck.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


COLD_PEAK = """
import sys, tracemalloc
from bellcheck.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""


def refused_at_traced_peak(argv, code, task, capsys, monkeypatch):
    """A request that exits with ``code`` is refused once physical memory equals its traced peak.

    The peak is traced cold, in a fresh process from the first call on, so it
    holds what a request builds once (the parser, the gate actions, numpy's
    first calls) as well as what grows with its size.
    """
    proc = run_python("-c", COLD_PEAK, *argv)
    exit_code, peak = map(int, proc.stderr.split()[-2:])
    assert exit_code == code
    pages = {"SC_PHYS_PAGES": peak, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {task} needs about ")


def random_lines(rng, n, count, kinds=tuple(GATE_ARITY)):
    """``count`` gate lines drawn uniformly from ``kinds`` on n qubits."""
    usable = [kind for kind in kinds if GATE_ARITY[kind] <= n]
    lines = []
    for _ in range(count):
        kind = usable[int(rng.integers(len(usable)))]
        lines.append(" ".join([kind, *map(str, rng.choice(n, GATE_ARITY[kind], replace=False))]))
    return lines


def write_pair(tmp_path, n, lines_a, lines_b):
    """Two n-qubit circuit files of the given gate lines; their paths."""
    paths = []
    for name, lines in (("a.qc", lines_a), ("b.qc", lines_b)):
        (tmp_path / name).write_text("\n".join([f"qubits {n}", *lines]) + "\n")
        paths.append(str(tmp_path / name))
    return paths


def joined_circuit(a, b):
    """The circuit of W = U1 U2^T for two circuit files."""
    return pair_circuit(parse_circuit(Path(a).read_text()), parse_circuit(Path(b).read_text()))


def recorded_syntheses(monkeypatch):
    """The (S, h) of every ``integer_unitary`` call that ``compare-exact`` makes from now on."""
    syntheses = []

    def recording(circuit):
        syntheses.append(integer_unitary(circuit))
        return syntheses[-1]

    monkeypatch.setattr(cli, "integer_unitary", recording)
    return syntheses


def read_value(out, name):
    return float(next(line for line in out.splitlines()
                      if line.startswith(f"{name} = ")).split("=")[1])


@pytest.fixture
def circuits(tmp_path):
    paths = {}
    for name, text in [("h", HADAMARD), ("z", PAULI_Z), ("h_signed", HADAMARD_SIGNED)]:
        p = tmp_path / f"{name}.qc"
        p.write_text(text)
        paths[name] = str(p)
    return paths


H_Z = ["{h}", "{z}"]
OUT = ["--out", "{out}"]
SAMPLED = ["--shots", "10", "--seed", "1", *OUT]
HELP_COMMANDS = ["compare-exact", "compare-sampled", "fig1", "fig3", "lemma2", "plot"]
PYTHON_INT_CLAUSE = ("slower if TOFFOLI gates keep an odd entry past 2n + h = 124, h the number "
                     "of H gates")

# One row per outcome of every command: argv (with file placeholders), the
# environment, the exit code, and a fragment of the one error: line (exit 2)
# or of stdout (exit 0 or 1).
EXIT_CODE_TABLE = [
    pytest.param([], {}, 2, "required: command", id="usage-no-command"),
    pytest.param(["no-such-command"], {}, 2, "invalid choice", id="usage-unknown-command"),
    pytest.param(["compare-exact", "{h}"], {}, 2, "required: circuit_b", id="usage-compare-exact"),
    pytest.param(["compare-sampled", "{h}"], {}, 2, "required: circuit_b",
                 id="usage-compare-sampled"),
    pytest.param(["fig1", *OUT], {}, 2, "required: --samples", id="usage-fig1"),
    pytest.param(["fig3", "--n", "1", "--samples", "2", *OUT], {}, 2, "required: --shots",
                 id="usage-fig3"),
    pytest.param(["lemma2", "--d", "16", "--samples", "2", *OUT], {}, 2, "required: --delta",
                 id="usage-lemma2"),
    pytest.param(["plot", "{csv}", "--x", "V", "--y", "D"], {}, 2, "required: --out",
                 id="usage-plot"),
    pytest.param(["compare-exact", "{missing}", "{h}", *OUT], {}, 2,
                 "cannot read circuit file {missing}", id="unreadable-compare-exact"),
    pytest.param(["compare-sampled", "{h}", "{missing}", *SAMPLED], {}, 2,
                 "cannot read circuit file {missing}", id="unreadable-compare-sampled"),
    pytest.param(["plot", "{missing}", "--x", "V", "--y", "D", *OUT], {}, 2, "{missing}",
                 id="unreadable-plot"),
    pytest.param(["compare-exact", NOT_UTF8, "{h}", *OUT], {}, 2,
                 f"cannot read circuit file {NOT_UTF8}: 'utf-8' codec can't decode byte 0xff",
                 id="non-utf8-compare-exact"),
    pytest.param(["compare-sampled", "{h}", NOT_UTF8, *SAMPLED], {}, 2,
                 f"cannot read circuit file {NOT_UTF8}: 'utf-8' codec can't decode byte 0xff",
                 id="non-utf8-compare-sampled"),
    pytest.param(["plot", NOT_UTF8, "--x", "V", "--y", "D", *OUT], {}, 2,
                 f"cannot read {NOT_UTF8}: 'utf-8' codec can't decode byte 0xff",
                 id="non-utf8-plot"),
    pytest.param(["plot", "{nan_csv}", "--x", "V", "--y", "D", *OUT], {}, 2,
                 "{nan_csv}: row 1, column 'D': 'nan' is not a finite number",
                 id="non-finite-plot"),
    pytest.param(["plot", "{inf_csv}", "--x", "V", "--y", "D", *OUT], {}, 2,
                 "{inf_csv}: row 2, column 'V': '-inf' is not a finite number",
                 id="infinite-plot"),
    pytest.param(["compare-exact", "{bad}", "{h}", *OUT], {}, 2,
                 "{bad}: line 2: unknown gate 'Y'", id="parse-error-compare-exact"),
    pytest.param(["compare-sampled", "{h}", "{bad}", *SAMPLED], {}, 2,
                 "{bad}: line 2: unknown gate 'Y'", id="parse-error-compare-sampled"),
    pytest.param(["compare-exact", "{h}", "{two}", *OUT], {}, 2,
                 "circuit widths differ: {h} has 1 qubits, {two} has 2",
                 id="width-mismatch-compare-exact"),
    pytest.param(["compare-sampled", "{two}", "{h}", *SAMPLED], {}, 2,
                 "circuit widths differ: {two} has 2 qubits, {h} has 1",
                 id="width-mismatch-compare-sampled"),
    pytest.param(["compare-sampled", *H_Z, "--shots", str(2**63), "--seed", "1", *OUT],
                 {}, 2, "shot count must be in 1..2^63-1, got 9223372036854775808",
                 id="oversized-shots"),
    pytest.param(["compare-sampled", *H_Z, "--m", "1000000000000", *SAMPLED], {}, 2,
                 "1-qubit sampled comparison needs about", id="oversized-m-sampled"),
    pytest.param(["compare-exact", *H_Z, "--m", "1", *OUT], {}, 2,
                 "need d >= 2 and m >= 2, got d=2, m=1", id="m1-raw"),
    pytest.param(["compare-exact", *H_Z, "--embedded", "--m", "1", *OUT], {}, 2,
                 "need d >= 2 and m >= 2, got d=4, m=1", id="m1-embedded"),
    pytest.param(["compare-sampled", *H_Z, "--m", "1", *SAMPLED], {}, 2,
                 "need d >= 2 and m >= 2, got d=4, m=1", id="m1-sampled"),
    pytest.param(["compare-sampled", *H_Z, "--shots", "10", "--seed", "-1", *OUT], {}, 2,
                 "--seed must be a non-negative integer, got -1", id="negative-seed-sampled"),
    pytest.param(["compare-sampled", *H_Z, "--shots", "10", *OUT], {"BELLCHECK_SEED": "-1"}, 2,
                 "BELLCHECK_SEED must be a non-negative integer, got '-1'",
                 id="negative-env-seed-sampled"),
    pytest.param(["fig1", "--samples", "2", *OUT], {"BELLCHECK_SEED": "seven"}, 2,
                 "BELLCHECK_SEED must be a non-negative integer, got 'seven'",
                 id="non-integer-env-seed-fig1"),
    pytest.param(["fig1", "--samples", "2", "--seed", "-1", *OUT], {}, 2,
                 "--seed must be a non-negative integer, got -1", id="negative-seed-fig1"),
    pytest.param(["fig3", "--n", "1", "--shots", "100", "--samples", "2", "--seed", "-1", *OUT],
                 {}, 2, "--seed must be a non-negative integer, got -1", id="negative-seed-fig3"),
    pytest.param(["lemma2", "--d", "16", "--delta", "0.1", "--samples", "2", "--seed", "-1",
                  *OUT], {}, 2, "--seed must be a non-negative integer, got -1",
                 id="negative-seed-lemma2"),
    pytest.param(["compare-sampled", *H_Z, "--seed", "1", *OUT], {}, 2,
                 "need --shots, or both --epsilon and --delta", id="missing-shots"),
    pytest.param(["compare-exact", "{h}", "{h_signed}", "--embedded", *OUT], {}, 0,
                 "verdict = EQUIVALENT", id="equivalent"),
    pytest.param(["compare-exact", *H_Z, "--embedded", "--m", "3", *OUT], {}, 1,
                 "verdict = INEQUIVALENT", id="inequivalent"),
    pytest.param(["compare-sampled", *H_Z, "--m", "3", "--shots", "100", "--seed", "5", *OUT],
                 {}, 0, "mode = embedded, d = 4, m = 3", id="compare-sampled"),
    pytest.param(["fig1", "--samples", "2", "--seed", "1", *OUT], {}, 0, "wrote 2 pairs",
                 id="fig1"),
    pytest.param(["fig3", "--n", "1", "--shots", "100", "--samples", "2", "--seed", "1", *OUT],
                 {}, 0, "wrote 2 pairs", id="fig3"),
    pytest.param(["lemma2", "--d", "4", "--delta", "0.1", "--samples", "2", "--seed", "1", *OUT],
                 {}, 0, "exceedance_fraction = ", id="lemma2"),
    pytest.param(["plot", "{csv}", "--x", "V", "--y", "D", *OUT], {}, 0, "wrote {out}",
                 id="plot"),
]


class TestCompareExact:
    def test_identical_files_equivalent(self, circuits, capsys):
        rc = main(["compare-exact", circuits["h"], circuits["h"], "--m", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict = EQUIVALENT" in out
        assert "V = 2" in out  # m(d-1) = 2 at d=2, m=2

    def test_global_sign_flip_equivalent(self, circuits, capsys):
        rc = main(["compare-exact", circuits["h"], circuits["h_signed"], "--m", "2"])
        assert rc == 0
        assert "verdict = EQUIVALENT" in capsys.readouterr().out

    def test_h_vs_z_embedded(self, circuits, capsys):
        rc = main(["compare-exact", circuits["h"], circuits["z"], "--m", "2", "--embedded"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "verdict = INEQUIVALENT" in out
        # trace oracle: Tr(H^T Z)/2 = 1/sqrt2 so D = sqrt(1/2)
        d_line = next(line for line in out.splitlines() if line.startswith("D = "))
        assert float(d_line.split("=")[1]) == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_raw_mode_prints_bounds(self, circuits, capsys):
        rc = main(["compare-exact", circuits["h"], circuits["z"], "--m", "2", "--raw"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "lower = " in out and "upper = " in out

    def test_embedded_n4_skips_operator_route(self, tmp_path, capsys, monkeypatch):
        # the operator route is bell_value_operator and its basis changes
        for route in ("bell_value_operator", "basis"):
            def refuse(*args, route=route, **kwargs):
                raise AssertionError(f"{route} called")

            holders = [module for name, module in sys.modules.items()
                       if name.startswith("bellcheck") and hasattr(module, route)]
            assert holders, f"no bellcheck module holds {route}"
            for module in holders:
                monkeypatch.setattr(module, route, refuse)
        a = tmp_path / "a.qc"
        b = tmp_path / "b.qc"
        a.write_text("qubits 4\nH 0\nCX 0 1\nCX 1 2\nTOFFOLI 0 2 3\n")
        b.write_text("qubits 4\nH 0\nCX 0 1\nCX 1 2\nSWAP 2 3\n")
        rc = main(["compare-exact", str(a), str(b), "--embedded", "--m", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mode = embedded, d = 256, m = 2" in out

    def test_embedded_n5_matches_trace(self, tmp_path, capsys):
        # b = TOFFOLI after a, so Tr(U1^T U2)/32 = Tr(TOFFOLI (x) I_4)/32 = 3/4
        a = tmp_path / "a.qc"
        b = tmp_path / "b.qc"
        body = "qubits 5\nH 0\nCX 0 1\nCX 1 2\nH 3\nSWAP 2 4\n"
        a.write_text(body)
        b.write_text(body + "TOFFOLI 0 1 2\n")
        rc = main(["compare-exact", str(a), str(b), "--embedded", "--m", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mode = embedded, d = 1024, m = 2" in out
        d_line = next(line for line in out.splitlines() if line.startswith("D = "))
        assert float(d_line.split("=")[1]) == pytest.approx(np.sqrt(1 - 0.75**2), abs=1e-9)

    @pytest.mark.parametrize("n", [6, 7])
    def test_embedded_wide_matches_circuit_distance(self, n, tmp_path, capsys):
        # d = 4^n; the embedded pair is read from its 2^n nonzero wrap diagonals
        a, b, dist = wide_pair(tmp_path, n)
        assert 0.1 < dist < 0.9
        rc = main(["compare-exact", a, b, "--embedded", "--m", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"mode = embedded, d = {4**n}, m = 2" in out
        assert read_value(out, "D") == pytest.approx(dist, abs=1e-9)

    def test_raw_size_guard_covers_the_traced_peak(self, tmp_path, capsys, monkeypatch):
        # physical memory equal to the traced peak of a raw n = 8 comparison cannot hold it
        a, b, _ = wide_pair(tmp_path, 8)
        refused_at_traced_peak(["compare-exact", a, b, "--raw"], 1,
                               "8-qubit raw comparison", capsys, monkeypatch)

    def test_embedded_size_guard_covers_the_traced_peak(self, tmp_path, capsys, monkeypatch):
        # the embedded factor of 2 complex values per amplitude and the fixed cost of a
        # request, against its n = 6 peak, where the fixed cost is most of it
        a, b, _ = wide_pair(tmp_path, 6)
        refused_at_traced_peak(["compare-exact", a, b, "--embedded"], 1,
                               "6-qubit embedded comparison", capsys, monkeypatch)

    def test_embedded_n10_fits_in_one_gib(self, tmp_path, capsys, monkeypatch):
        # V is read from Tr W, so no 8^n-entry layout is counted: 48 GiB before
        a, b, dist = wide_pair(tmp_path, 10)
        pages = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        assert main(["compare-exact", a, b, "--embedded"]) == 1
        out = capsys.readouterr().out
        assert f"mode = embedded, d = {4**10}, m = 2" in out
        assert read_value(out, "D") == pytest.approx(dist, abs=1e-9)

    def test_embedded_equal_pair_at_n11_reads_equivalent(self, tmp_path, capsys):
        # float synthesis left this equal pair's V short of m(d - 1) by about m d eps
        # per H gate (242 gates, 40 of them H, at n = 11 and m = 128), more than any
        # fixed gap; the integer synthesis reads the maximum exactly
        rng = np.random.default_rng(11)
        lines = ["qubits 11"]
        for _ in range(20):
            q = rng.permutation(11)
            lines += [f"H {q[0]}", f"CX {q[1]} {q[2]}", f"TOFFOLI {q[3]} {q[4]} {q[5]}",
                      f"SWAP {q[6]} {q[7]}", f"CZ {q[8]} {q[9]}", f"X {q[10]}"]
        a, b = tmp_path / "a.qc", tmp_path / "b.qc"
        a.write_text("\n".join(lines) + "\n")
        b.write_text("\n".join(lines) + "\nX 0\nX 0\n")
        assert main(["compare-exact", str(a), str(b), "--embedded", "--m", "128"]) == 0
        out = capsys.readouterr().out
        assert "V = 536870784\n" in out  # 128 (4^11 - 1)
        assert "D = 0\n" in out and "verdict = EQUIVALENT" in out

    @pytest.mark.parametrize("n", range(1, 7))
    def test_printed_v_matches_gamma_on_the_float_state(self, n, tmp_path, capsys):
        # the exact readout against the gamma route on each mode's state from float W
        rng = np.random.default_rng(126 + n)
        for j in range(6):
            lines_a = random_lines(rng, n, int(rng.integers(5, 40)))
            lines_b = (lines_a + ["X 0", "X 0"] if j % 3 == 0 else lines_a[:-1] if j % 3 == 1
                       else random_lines(rng, n, int(rng.integers(5, 40))))
            a, b = write_pair(tmp_path, n, lines_a, lines_b)
            w = circuit_unitary(joined_circuit(a, b))
            for mode, state, d in (("--embedded", embedded_pair_state(w), 4**n),
                                   ("--raw", w.reshape(-1) / np.sqrt(2**n), 2**n)):
                main(["compare-exact", a, b, mode, "--m", "3"])
                want = bell_value_gamma(state, d, 3)
                got = read_value(capsys.readouterr().out, "V")
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (j, mode)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_pairs_read_zero(self, n, tmp_path, capsys):
        # a circuit against itself with an H H pair inserted: D and both bounds read 0 exactly
        rng = np.random.default_rng(226 + n)
        lines = random_lines(rng, n, 40)
        cut = int(rng.integers(41))
        q = int(rng.integers(n))
        a, b = write_pair(tmp_path, n, lines, lines[:cut] + [f"H {q}", f"H {q}"] + lines[cut:])
        for mode in ("--raw", "--embedded"):
            assert main(["compare-exact", a, b, mode]) == 0
            out = capsys.readouterr().out
            assert "D = 0\n" in out and "verdict = EQUIVALENT\n" in out
            if mode == "--raw":
                assert "lower = 0\n" in out and "upper = 0\n" in out

    def test_clifford_pair_past_the_int64_bound_halves(self, tmp_path, capsys, monkeypatch):
        # a Clifford W has entries 0 or +-2^(-k/2), k <= n, so S is even past h = k + 1:
        # past 2n + h = 124 the rows halve and stay int64
        n = 3
        rng = np.random.default_rng(127)
        lines = random_lines(rng, n, 500, ("H", "X", "Z", "CX", "CZ", "SWAP"))
        assert 2 * n + 2 * sum(line.startswith("H ") for line in lines) > 124
        a, b = write_pair(tmp_path, n, lines, lines + ["X 0", "X 0"])
        syntheses = recorded_syntheses(monkeypatch)
        for mode in ("--raw", "--embedded"):
            assert main(["compare-exact", a, b, mode]) == 0
            assert "D = 0\n" in capsys.readouterr().out
        w = oracle_circuit_unitary(joined_circuit(a, b))
        for s, h in syntheses:
            assert s.dtype == np.int64 and 2 * n + h <= 124
            assert np.abs(scaled_integer_unitary(s, h) - w).max() < 1e-12

    def test_toffoli_rich_circuit_reaches_python_ints(self, tmp_path, capsys, monkeypatch):
        # 20,000 gates drawn uniformly over the seven kinds: an odd entry stays past
        # 2n + h = 124, and the rows go on as Python ints
        n = 3
        rng = np.random.default_rng(128)
        lines = random_lines(rng, n, 20000)
        syntheses = recorded_syntheses(monkeypatch)
        for lines_b in (lines + ["X 0", "X 0"], lines[:-10]):
            a, b = write_pair(tmp_path, n, lines, lines_b)
            w = oracle_circuit_unitary(joined_circuit(a, b))
            for mode in ("--raw", "--embedded"):
                code = main(["compare-exact", a, b, mode])
                out = capsys.readouterr().out
                s, h = syntheses[-1]
                assert s.dtype == object
                assert np.abs(scaled_integer_unitary(s, h) - w).max() < 1e-12
                if lines_b[-1] == "X 0":
                    assert code == 0 and "D = 0\n" in out
                else:
                    assert code == 1
                    assert read_value(out, "D") == pytest.approx(circuit_distance(w), abs=1e-9)

    def test_python_int_size_guard_covers_the_traced_peak(self, tmp_path, capsys, monkeypatch):
        # H on every qubit makes S dense, and each H of the three-qubit H-TOFFOLI cycle
        # keeps an odd entry, so S goes on as Python ints for the last 6 of its 119 H:
        # a cold request peaks above the int64 count but not above the Python-int one
        n = 8
        lines = [f"H {q}" for q in range(n)]
        for _ in range(37):
            lines += ["H 0", "TOFFOLI 0 1 2", "H 1", "TOFFOLI 1 2 0", "H 2", "TOFFOLI 2 0 1"]
        a, b = write_pair(tmp_path, n, lines, [])
        refused_at_traced_peak(["compare-exact", a, b, "--embedded"], 1,
                               "8-qubit integer synthesis past int64", capsys, monkeypatch)

    def test_csv_row_output(self, circuits, tmp_path):
        out = tmp_path / "row.csv"
        main(["compare-exact", circuits["h"], circuits["z"], "--m", "2",
              "--embedded", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("circuit_a,circuit_b,mode,d,m")
        assert "INEQUIVALENT" in lines[1]

    @pytest.mark.parametrize("argv,code,columns,labels", [
        (["compare-exact", "--raw"], 1, "V I_prime D lower upper verdict", {}),
        (["compare-exact", "--embedded"], 1, "V I_prime D verdict", {}),
        (["compare-sampled", "--shots", "100", "--seed", "3"], 0, "s seed I_prime D",
         {"I_prime": "X", "D": "distance_estimate"}),
    ], ids=["raw", "embedded", "sampled"])
    def test_csv_row_with_a_comma_in_a_path(self, argv, code, columns, labels, tmp_path,
                                            capsys):
        # the path is one quoted cell, so every later cell reads back under its own name
        (tmp_path / "q").mkdir()
        a, b = tmp_path / "q" / "a,1.qc", tmp_path / "q" / "b.qc"
        a.write_text(HADAMARD)
        b.write_text(PAULI_Z)
        out = tmp_path / "o.csv"
        assert main([argv[0], str(a), str(b), *argv[1:], "--out", str(out)]) == code
        printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                       if " = " in line)
        with open(out, newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["circuit_a"], row["circuit_b"]) == (str(a), str(b))
        assert printed["mode"] == f"{row['mode']}, d = {row['d']}, m = {row['m']}"
        # each value the mode gives is printed as its cell reads, and only the rest are blank
        for column in COMPARE_HEADER[5:]:
            expected = printed[labels.get(column, column)] if column in columns.split() else ""
            assert row[column] == expected, column
        assert main(["plot", str(out), "--x", "I_prime", "--y", "D",
                     "--out", str(tmp_path / "o.svg")]) == 0


class TestCompareSampled:
    def test_plan_echoed(self, circuits, capsys):
        rc = main(["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                   "--epsilon", "0.1", "--delta", "0.05", "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "s = 2397" in out
        assert "seed = 4" in out

    def test_identical_circuits_small_distance(self, circuits, capsys):
        rc = main(["compare-sampled", circuits["h"], circuits["h"], "--m", "2",
                   "--shots", "10000", "--seed", "11"])
        out = capsys.readouterr().out
        assert rc == 0
        dist = float(next(l for l in out.splitlines()
                          if l.startswith("distance_estimate")).split("=")[1])
        assert dist <= 0.1

    def test_byte_identical_replay(self, circuits, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                "--shots", "500", "--seed", "21"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_embedded_n6_within_epsilon(self, tmp_path, capsys):
        a, b, dist = wide_pair(tmp_path, 6)
        rc = main(["compare-sampled", a, b, "--m", "2", "--epsilon", "0.05",
                   "--delta", "0.05", "--seed", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode = embedded, d = 4096, m = 2" in out
        assert abs(read_value(out, "X") - (1 - dist**2)) < 0.05

    @pytest.mark.parametrize("n", [5, 6])
    def test_sampled_size_guard_covers_the_traced_peak(self, n, tmp_path, capsys, monkeypatch):
        # the sampled factor of 5 complex values per layout entry and its per-branch
        # rows, against the peak of a `sampled-n4`-shaped request; at n = 5 the fixed
        # cost of a request is a larger share of the peak
        a, b, _ = wide_pair(tmp_path, n)
        refused_at_traced_peak(["compare-sampled", a, b, "--m", "3", "--shots", "239659",
                                "--seed", "5"], 0,
                               f"{n}-qubit sampled comparison", capsys, monkeypatch)

    def test_ten_trillion_shots(self, circuits, capsys):
        # the cell counts take one draw per dyadic block: 29 draws hold 10^13 rounds
        exact = 1 - circuit_distance(circuit_unitary(parse_circuit(HADAMARD))
                                     @ circuit_unitary(parse_circuit(PAULI_Z)).T) ** 2
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rc = main(["compare-sampled", circuits["h"], circuits["z"],
                       "--shots", str(10**13), "--seed", "1"])
            wall = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert rc == 0
        tallies = out.split("setting_tallies: ")[1].split(", ")
        assert sum(int(tally.split("=")[1]) for tally in tallies) == 10**13
        assert abs(read_value(out, "X") - exact) < 1e-4
        assert wall < 1.0 and peak < 1 << 20

    def test_shots_and_epsilon_conflict(self, circuits, capsys):
        rc = main(["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                   "--shots", "100", "--epsilon", "0.1", "--delta", "0.1"])
        assert rc == 2

    def test_epsilon_without_delta(self, circuits, capsys):
        rc = main(["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                   "--epsilon", "0.1"])
        assert rc == 2

    def test_failed_estimate_leaves_stdout_empty(self, circuits, capsys, monkeypatch):
        # "planned shots:" is printed with the rest of the result, after the estimate
        def failing(*args):
            raise RuntimeError("estimate failed")

        monkeypatch.setattr(cli, "estimate_distance", failing)
        rc = main(["compare-sampled", circuits["h"], circuits["z"],
                   "--epsilon", "0.1", "--delta", "0.05", "--seed", "4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: estimate failed\n"

    def test_env_var_seed(self, circuits, capsys, monkeypatch):
        monkeypatch.setenv("BELLCHECK_SEED", "77")
        rc = main(["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                   "--shots", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed = 77" in out


class TestFig1:
    def test_csv_schema_and_sandwich(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        rc = main(["fig1", "--samples", "200", "--seed", "6", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair_id,V,D,lower,upper"
        assert len(lines) == 201
        for line in lines[1:]:
            _, v, d, lo, hi = line.split(",")
            assert float(lo) - 1e-9 <= float(d) <= float(hi) + 1e-9

    def test_planted_equal_pair(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        main(["fig1", "--samples", "50", "--seed", "6", "--out", str(out),
              "--include-equal-pair"])
        capsys.readouterr()
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[1]) > 2 * 3 - 0.01  # V close to m(d-1) = 6
        assert float(first[2]) < 0.05

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig1", "--samples", "50", "--seed", "9", "--out", str(a)])
        main(["fig1", "--samples", "50", "--seed", "9", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestFig3:
    def test_csv_schema_and_consistency(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        rc = main(["fig3", "--n", "1", "--shots", "100", "--samples", "20",
                   "--seed", "13", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair_id,n,s,V_hat,D_true,D_est"
        assert len(lines) == 21
        # D_true column must match an independent recomputation of the pair
        for line in lines[1:]:
            pair_id, n, s, v_hat, d_true, d_est = line.split(",")
            u1, u2 = _fig3_point(13, int(n), int(pair_id))[:2]
            assert float(d_true) == pytest.approx(circuit_distance(u1 @ u2.T), abs=1e-12)

    def test_invalid_shots_choice(self, tmp_path, capsys):
        rc = main(["fig3", "--n", "1", "--shots", "123", "--samples", "5",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_oversized_samples_refused_by_the_memory_sentence(self, tmp_path, capsys,
                                                             monkeypatch):
        # 8 bytes of RMS error per sample are counted before the array is made
        def must_not_run(*args, **kwargs):
            pytest.fail("a fig3 kernel ran for a request that cannot fit")

        for kernel in ("haar_orthogonal", "circuit_distance", "estimate_distance"):
            monkeypatch.setattr(cli, kernel, must_not_run)
        pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        out = tmp_path / "fig3.csv"
        rc = main(["fig3", "--n", "1", "--shots", "100", "--samples", "1000000000000",
                   "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("error: fig3 at n=1 with 1000000000000 samples needs about "
                                "7.45e+03 GiB, more than the 8 GiB of physical memory\n")
        assert captured.out == "" and not out.exists()


class TestLemma2Command:
    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "l2.csv"
        rc = main(["lemma2", "--d", "16", "--m", "2", "--delta", "0.1",
                   "--samples", "2000", "--seed", "8", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "seed=8" in stdout
        assert "d=16 m=2 delta=0.1 samples=2000" in stdout
        assert "bound = 1.82574185835" in stdout
        fraction = float(next(l for l in stdout.splitlines()
                              if l.startswith("exceedance_fraction")).split("=")[1])
        assert fraction <= 0.1 + 3 * np.sqrt(0.1 * 0.9 / 2000)
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_id,V"
        assert len(lines) == 2001

    def test_delta_validation(self, tmp_path, capsys):
        rc = main(["lemma2", "--d", "16", "--delta", "1.5", "--samples", "10",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_oversized_request_refused_before_output(self, tmp_path, capsys, monkeypatch):
        # 1 MiB of physical memory: a d = 256 state alone is 1 MiB of complex amplitudes
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        out = tmp_path / "l2.csv"
        argv = ["--delta", "0.1", "--seed", "1", "--out", str(out)]
        rc = main(["lemma2", "--d", "256", "--samples", "4", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: lemma2 at d=256 with 4 samples needs about ")
        assert captured.out == "" and not out.exists()
        assert main(["lemma2", "--d", "16", "--samples", "4", *argv]) == 0

    def test_need_past_the_float_range_is_named(self, tmp_path, capsys, monkeypatch):
        # 64 d^2 bytes at d = 10^200 overflow a float; the sentence is the usual one
        def must_not_run(*args):
            pytest.fail("lemma2 ran for a request that cannot fit")

        monkeypatch.setattr(cli, "lemma2_exceedance", must_not_run)
        pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        out = tmp_path / "l2.csv"
        d = 10**200
        rc = main(["lemma2", "--d", str(d), "--delta", "0.1", "--samples", "2", "--seed", "1",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (f"error: lemma2 at d={d} with 2 samples needs about 5.96e+392 "
                                "GiB, more than the 8 GiB of physical memory\n")
        assert captured.out == "" and not out.exists()


def per_sample_fig1(path, samples, seed, include_equal_pair):
    """Reference for ``fig1``: one pair drawn and evaluated at a time."""
    rng = RngStream(seed)
    d, m = 4, 2
    phi = max_entangled(d)
    rows = []
    for pair_id in range(samples):
        u1 = random_real_orthogonal(d, rng)
        u2 = random_real_orthogonal(d, rng)
        if include_equal_pair and pair_id == 0:
            u2 = u1
        v = bell_value_gamma(apply_bilocal(u1, u2, phi), d, m)
        bounds = distance_bounds_from_v(v, d, m)
        rows.append([pair_id, v, circuit_distance(u1 @ u2.T), bounds.lower, bounds.upper])
    _write_csv(path, FIG1_HEADER, rows)


def per_sample_lemma2(path, d, m, samples, seed):
    """Reference for ``lemma2``'s CSV: one state drawn and evaluated at a time."""
    rng = RngStream(seed)
    rows = []
    for idx in range(samples):
        psi = random_real_unit_vector(d * d, rng)
        rows.append([idx, bell_value_gamma(psi, d, m)])
    _write_csv(path, LEMMA2_HEADER, rows)


class TestFig3MatchesPerPairLoop:
    """Blocked ``fig3`` writes the bytes and the summary of the per-pair oracle loop."""

    def run(self, n, shots, samples, seed, tmp_path, capsys):
        out, ref = tmp_path / "fig3.csv", tmp_path / "ref.csv"
        assert main(["fig3", "--n", str(n), "--shots", str(shots), "--samples", str(samples),
                     "--seed", str(seed), "--out", str(out)]) == 0
        rms = per_pair_fig3(ref, n, shots, samples, seed)
        assert out.read_bytes() == ref.read_bytes()
        assert f"rms_error={format(rms, '.12g')})" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [0, 22, 2**40 + 3])
    @pytest.mark.parametrize("shots", [100, 1000, 10000])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_blocks(self, n, shots, seed, tmp_path, capsys, monkeypatch):
        # blocks of 5 pairs: three full blocks and a ragged one of 2
        monkeypatch.setattr(tensor, "BLOCK_AMPLITUDES", 5 * 8**n)
        self.run(n, shots, 17, seed, tmp_path, capsys)

    @pytest.mark.parametrize("n,samples", [(2, 130), (3, 39), (1, 50)])
    def test_default_blocks(self, n, samples, tmp_path, capsys):
        # n = 2: blocks of 128 and 2; n = 3: 16, 16 and 7; n = 1: one block of 50
        self.run(n, 1000, samples, 23, tmp_path, capsys)


class TestBlockBoundaries:
    """Blocked figure runs write the bytes of the per-sample loops at every block boundary."""

    @pytest.fixture(params=["default", 64])
    def block_amplitudes(self, request, monkeypatch):
        if request.param != "default":
            monkeypatch.setattr(tensor, "BLOCK_AMPLITUDES", request.param)
        return tensor.BLOCK_AMPLITUDES

    @pytest.mark.parametrize("blocks,extra", [(1, 0), (1, 1), (3, 1)])
    def test_fig1_matches_per_sample_loop(self, blocks, extra, block_amplitudes, tmp_path, capsys):
        samples = blocks * (block_amplitudes // 16) + extra
        out, ref = tmp_path / "fig1.csv", tmp_path / "ref.csv"
        assert main(["fig1", "--samples", str(samples), "--seed", "17", "--out", str(out),
                     "--include-equal-pair"]) == 0
        per_sample_fig1(ref, samples, 17, include_equal_pair=True)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("blocks,extra", [(1, 0), (1, 1), (3, 1)])
    def test_lemma2_matches_per_sample_loop(self, blocks, extra, block_amplitudes, tmp_path, capsys):
        samples = blocks * max(1, block_amplitudes // 256) + extra
        out, ref = tmp_path / "lemma2.csv", tmp_path / "ref.csv"
        assert main(["lemma2", "--d", "16", "--delta", "0.1", "--samples", str(samples),
                     "--seed", "18", "--out", str(out)]) == 0
        per_sample_lemma2(ref, 16, 2, samples, 18)
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("argv", [
    ["lemma2", "--d", "16", "--delta", "0.1", "--samples", "100000"],
    ["fig1", "--samples", "20000"],
    ["fig3", "--n", "3", "--shots", "100", "--samples", "2000"],
], ids=["lemma2", "fig1", "fig3"])
def test_figure_memory_does_not_grow_with_samples(argv, tmp_path, capsys):
    # rows go to the file as they are made; a list of every row takes 9 to 25 MiB here
    out = tmp_path / "out.csv"
    assert main([*argv[:-1], "100", "--seed", "3", "--out", str(out)]) == 0  # warm caches
    tracemalloc.start()
    try:
        assert main([*argv, "--seed", "3", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def old_fmt(value):
    """The per-cell formatting rule that ``_cell_format`` restates as %-formats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


class TestWriteCsv:
    # one row of each cell type _write_csv formats, and a second with the same types
    MIXED = [
        ["", "text", 7, np.int64(-12), 2**40 + 3, 2**63 - 1, np.float64(0.1), -0.0,
         1e-300, 1e300, math.nan, math.inf, np.float64(-math.inf)],
        ["x", "", -3, np.int64(2**62), 0, -(2**63), np.float64(-1 / 3), 0.0,
         5e-324, -1.7976931348623157e308, -math.nan, -math.inf, np.float64(math.nan)],
    ]

    def test_rows_equal_a_per_cell_join(self, tmp_path):
        path = tmp_path / "mixed.csv"
        header = [f"c{j}" for j in range(len(self.MIXED[0]))]
        _write_csv(path, header, iter(self.MIXED))
        want = ",".join(header) + "\n"
        want += "".join(",".join(map(old_fmt, row)) + "\n" for row in self.MIXED)
        assert path.read_text(encoding="utf-8") == want
        assert [_fmt(cell) for row in self.MIXED for cell in row] == [
            old_fmt(cell) for row in self.MIXED for cell in row
        ]

    def test_twelve_digits_on_random_float_bit_patterns(self):
        bits = np.random.default_rng(5).integers(0, 2**64, 20_000, dtype=np.uint64)
        values = bits.view(np.float64).tolist() + [-0.0, 5e-324, 2.2250738585072014e-308]
        assert [_fmt(v) for v in values] == [format(v, ".12g") for v in values]

    def test_header_only_when_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, LEMMA2_HEADER, [])
        assert path.read_text(encoding="utf-8") == "sample_id,V\n"

    def test_text_cells_are_quoted_as_the_csv_module_does(self, tmp_path):
        # a comma, a double quote or a line break quotes the cell, inner quotes doubled
        rows = [["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", 3, 0.5],
                ["", ",", '"', "\r\n", "x", "y", -1, math.inf]]
        header = [f"c{j}" for j in range(8)]
        path = tmp_path / "text.csv"
        _write_csv(path, header, rows)
        want = ",".join(header) + "\n"
        for row in rows:
            # the module's own "\r\n" row ending makes it quote a lone "\r" as well
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\r\n").writerow(map(old_fmt, row))
            want += buffer.getvalue()[:-2] + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1:] == [[old_fmt(c) for c in row] for row in rows]


class TestPlot:
    def test_scatter_with_bound_overlays(self, tmp_path, capsys):
        csv_path = tmp_path / "fig1.csv"
        main(["fig1", "--samples", "30", "--seed", "2", "--out", str(csv_path)])
        svg_path = tmp_path / "fig1.svg"
        rc = main(["plot", str(csv_path), "--x", "V", "--y", "D",
                   "--out", str(svg_path), "--overlay", "bounds", "--d", "4", "--m", "2"])
        assert rc == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 30
        assert svg.count("<polyline") == 2

    def test_exact_overlay_single_curve(self, tmp_path, capsys):
        csv_path = tmp_path / "fig3.csv"
        main(["fig3", "--n", "1", "--shots", "100", "--samples", "5",
              "--seed", "3", "--out", str(csv_path)])
        svg_path = tmp_path / "fig3.svg"
        rc = main(["plot", str(csv_path), "--x", "V_hat", "--y", "D_est",
                   "--out", str(svg_path), "--overlay", "exact", "--d", "4", "--m", "2"])
        assert rc == 0
        assert svg_path.read_text().count("<polyline") == 1

    def test_empty_csv_still_valid(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("pair_id,V,D,lower,upper\n")
        svg_path = tmp_path / "empty.svg"
        rc = main(["plot", str(csv_path), "--x", "V", "--y", "D", "--out", str(svg_path)])
        assert rc == 0
        svg = svg_path.read_text()
        assert "<circle" not in svg and svg.rstrip().endswith("</svg>")

    def test_missing_column_schema_error(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("pair_id,V\n")
        rc = main(["plot", str(csv_path), "--x", "V", "--y", "nope",
                   "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("V,D\n1,0.5\n-1,0.25\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for csv_path in (plain, marked):
            rc = main(["plot", str(csv_path), "--x", "V", "--y", "D",
                       "--out", str(csv_path.with_suffix(".svg"))])
            assert rc == 0
        assert marked.with_suffix(".svg").read_bytes() == plain.with_suffix(".svg").read_bytes()

    def test_overlay_requires_protocol_params(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("pair_id,V,D,lower,upper\n")
        rc = main(["plot", str(csv_path), "--x", "V", "--y", "D",
                   "--out", str(tmp_path / "x.svg"), "--overlay", "bounds"])
        assert rc == 2

    def test_fig1_svg_bytes_are_pinned(self, tmp_path, capsys):
        # 500 points and both bound overlays, against bytes the per-point renderer wrote
        csv_path, svg_path = tmp_path / "fig1.csv", tmp_path / "fig1.svg"
        assert main(["fig1", "--samples", "500", "--seed", "41", "--include-equal-pair",
                     "--out", str(csv_path)]) == 0
        assert main(["plot", str(csv_path), "--x", "V", "--y", "D", "--out", str(svg_path),
                     "--overlay", "bounds", "--d", "4", "--m", "2"]) == 0
        assert svg_path.read_bytes() == (DATA / "fig1_500_seed41.svg").read_bytes()

    def test_pixel_maps_equal_the_scalar_expressions(self, tmp_path, monkeypatch):
        # the .2f text cannot see a last-ulp change, so the unrounded array maps of the
        # points and the overlay are compared with the per-point scalar expressions
        rng = np.random.default_rng(44)
        xs, ys = rng.normal(0.3, 2.0, 300).tolist(), rng.uniform(-1.0, 7.0, 300).tolist()
        ox = np.linspace(-5.0, 9.0, 77)
        oy = np.cos(ox) * 3.0
        csv_path = tmp_path / "points.csv"
        csv_path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
        mapped = []

        def recording_zip(*columns):
            mapped.append(columns)
            return zip(*columns)

        monkeypatch.setattr(svgplot, "zip", recording_zip, raising=False)
        svgplot.emit_svg_scatter(csv_path, "x", "y", tmp_path / "points.svg",
                                 overlays=[("curve", ox, oy)])
        monkeypatch.undo()
        x_lo, x_hi = svgplot._padded_range(np.concatenate([xs, ox]))
        y_lo, y_hi = svgplot._padded_range(np.concatenate([ys, oy]))

        def px(v):
            return svgplot._ML + (v - x_lo) / (x_hi - x_lo) * (svgplot._WIDTH - svgplot._ML
                                                               - svgplot._MR)

        def py(v):
            return svgplot._HEIGHT - svgplot._MB - (v - y_lo) / (y_hi - y_lo) * (
                svgplot._HEIGHT - svgplot._MT - svgplot._MB)

        assert len(mapped) == 2
        for (got_x, got_y), (vx, vy) in zip(mapped, [(xs, ys), (ox, oy)]):
            assert np.array(got_x).tobytes() == np.array([px(float(v)) for v in vx]).tobytes()
            assert np.array(got_y).tobytes() == np.array([py(float(v)) for v in vy]).tobytes()

    def test_reads_like_dict_reader(self, tmp_path, capsys):
        # a quoted cell holding a comma, a blank line and a repeated header name (whose
        # last column is read) plot as the values csv.DictReader reads
        text = 'name,V,D,V\n"a,b",9,0.5,1.5\n\n"c",9,0.25,-2\nd,9,0.75,0.125\n'
        csv_path, plain = tmp_path / "tricky.csv", tmp_path / "plain.csv"
        csv_path.write_text(text, encoding="utf-8")
        with open(csv_path, newline="", encoding="utf-8") as fh:
            cells = [(row["V"], row["D"]) for row in csv.DictReader(fh)]
        assert cells == [("1.5", "0.5"), ("-2", "0.25"), ("0.125", "0.75")]
        plain.write_text("V,D\n" + "".join(f"{v},{d}\n" for v, d in cells), encoding="utf-8")
        svgs = []
        for source in (csv_path, plain):
            out = tmp_path / f"{source.stem}.svg"
            assert main(["plot", str(source), "--x", "V", "--y", "D", "--out", str(out)]) == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1] and svgs[0].count(b"<circle") == 3

    def test_short_row_names_its_missing_cell(self, tmp_path, capsys):
        # a row without its D cell reads D as None, as csv.DictReader fills it
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("V,D\n1,0.5\n\n2\n", encoding="utf-8")
        out = tmp_path / "short.svg"
        assert main(["plot", str(csv_path), "--x", "V", "--y", "D", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {csv_path}: row 2, column 'D': None is not a finite number\n"
        )
        assert not out.exists()


    def test_names_and_labels_are_escaped(self, tmp_path, capsys):
        # column names and overlay labels holding &, < or > stay well-formed SVG text
        csv_path, svg_path = tmp_path / "odd.csv", tmp_path / "odd.svg"
        csv_path.write_text("a<b&c,D\n1,0.5\n2,0.25\n", encoding="utf-8")
        assert main(["plot", str(csv_path), "--x", "a<b&c", "--y", "D", "--out", str(svg_path),
                     "--overlay", "bounds", "--d", "4", "--m", "2"]) == 0
        svgplot.emit_svg_scatter(csv_path, "D", "a<b&c", tmp_path / "labelled.svg",
                                 overlays=[("p < q & r > s", [0.0, 1.0], [0.0, 1.0])])
        for path, texts in [(svg_path, {"a<b&c", "D", "lower bound", "upper bound"}),
                            (tmp_path / "labelled.svg", {"a<b&c", "D", "p < q & r > s"})]:
            nodes = ET.parse(path).iter("{http://www.w3.org/2000/svg}text")
            assert texts <= {node.text for node in nodes}

    def test_extreme_finite_column_plots(self, tmp_path):
        # the span of +-1e308 passes the float range; halved operands keep it finite
        csv_path, svg_path = tmp_path / "wide.csv", tmp_path / "wide.svg"
        csv_path.write_text("V,D\n1e308,0.5\n-1e308,0.25\n", encoding="utf-8")
        assert main(["plot", str(csv_path), "--x", "V", "--y", "D", "--out", str(svg_path)]) == 0
        text = svg_path.read_text(encoding="utf-8")
        assert "nan" not in text and "inf" not in text
        labels = [node.text for node in ET.fromstring(text).iter(f"{{{SVG}}}text")]
        assert labels[:5] == ["-1.08e+308", "-5.4e+307", "0", "5.4e+307", "1.08e+308"]

    def test_constant_huge_column_plots(self, tmp_path):
        # +-0.5 is absorbed at 1e20; the pad of about one ulp keeps the range open
        csv_path, svg_path = tmp_path / "flat.csv", tmp_path / "flat.svg"
        csv_path.write_text("V,D\n1e20,0.5\n1e20,0.25\n", encoding="utf-8")
        assert main(["plot", str(csv_path), "--x", "V", "--y", "D", "--out", str(svg_path)]) == 0
        circles = ET.parse(svg_path).iter(f"{{{SVG}}}circle")
        assert {circle.get("cx") for circle in circles} == {"342.00"}  # the axis centre

    @pytest.mark.parametrize("x,y", [("V", "D"), ("D", "V")])
    def test_range_past_the_float_range_is_refused(self, x, y, tmp_path, capsys):
        csv_path, out = tmp_path / "past.csv", tmp_path / "past.svg"
        csv_path.write_text("V,D\n1.79e308,0.5\n-1.79e308,0.25\n", encoding="utf-8")
        assert main(["plot", str(csv_path), "--x", x, "--y", y, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: column 'V': its padded plot range passes the float range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("overlay", ["bounds", "exact"])
    def test_overlay_of_a_huge_m_plots(self, overlay, tmp_path, capsys):
        # an m past int64 spans the overlay in floats, not in numpy object arrays
        csv_path, svg_path = tmp_path / "small.csv", tmp_path / "huge_m.svg"
        csv_path.write_text("V,D\n1,0.5\n2,0.25\n", encoding="utf-8")
        assert main(["plot", str(csv_path), "--x", "V", "--y", "D", "--out", str(svg_path),
                     "--overlay", overlay, "--d", "4", "--m", str(10**300)]) == 0
        ET.parse(svg_path)

    def test_oversized_field_names_its_file(self, tmp_path, capsys):
        # csv's field limit is a refusal that names the file, not a bare csv.Error
        csv_path, out = tmp_path / "big.csv", tmp_path / "big.svg"
        csv_path.write_text("V,D\n1," + "9" * 200_000 + "\n", encoding="utf-8")
        assert main(["plot", str(csv_path), "--x", "V", "--y", "D", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {csv_path}: field larger than field limit (131072)\n"
        )
        assert not out.exists()


class TestEntryPoints:
    @pytest.mark.parametrize("argv,env,code,fragment", EXIT_CODE_TABLE)
    def test_exit_code_table(self, argv, env, code, fragment, circuits, tmp_path, capsys,
                             monkeypatch):
        files = {**circuits, "missing": str(tmp_path / "no-such-file"),
                 "out": str(tmp_path / "out")}
        for name, text in [("two", "qubits 2\nH 0\n"), ("bad", "qubits 1\nY 0\n"),
                           ("csv", "pair_id,V,D,lower,upper\n0,1,0.5,0.25,0.75\n"),
                           ("nan_csv", "V,D\n1,nan\n"), ("inf_csv", "V,D\n1,0.5\n-inf,0.5\n")]:
            files[name] = str(tmp_path / name)
            Path(files[name]).write_text(text)
        monkeypatch.delenv("BELLCHECK_SEED", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if code == 2:
            # every refusal comes before synthesis, float or integer
            def must_not_run(circuit):
                pytest.fail("a synthesis ran for a refused request")

            monkeypatch.setattr("bellcheck.cli.circuit_unitary", must_not_run)
            monkeypatch.setattr("bellcheck.cli.integer_unitary", must_not_run)
        rc = main([arg.format(**files) for arg in argv])
        captured = capsys.readouterr()
        assert rc == code
        if code != 2:
            assert fragment.format(**files) in captured.out
            assert captured.err == ""
            return
        error_lines = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(error_lines) == 1
        assert fragment.format(**files) in error_lines[0]
        if not captured.err.startswith("usage:"):  # argparse prints its usage lines first
            assert captured.err == error_lines[0] + "\n" and captured.err.startswith("error: ")
        assert captured.out == ""
        assert not Path(files["out"]).exists()

    @pytest.mark.parametrize("argv,message", [
        (["compare-exact", "{bad}", "{two}"], "{bad}: line 2: unknown gate 'Y'"),
        (["compare-sampled", "{two}", "{h}", "--m", "1", "--shots", "10", "--seed", "1"],
         "circuit widths differ: {two} has 2 qubits, {h} has 1"),
        (["compare-sampled", *H_Z, "--m", "1", "--shots", "0", "--seed", "1"],
         "need d >= 2 and m >= 2, got d=4, m=1"),
        (["compare-sampled", *H_Z, "--shots", "0", "--seed", "-1"],
         "shot count must be in 1..2^63-1, got 0"),
        (["compare-sampled", *H_Z, "--m", "1000000000000", "--shots", "10", "--seed", "-1"],
         "--seed must be a non-negative integer, got -1"),
        (["compare-exact", "{wide24}", "{wide24}", "--m", "1"],
         "need d >= 2 and m >= 2, got d=16777216, m=1"),
        (["compare-sampled", "{wide24}", "{wide24}", "--shots", "10", "--epsilon", "0.1",
          "--seed", "-1"], "give either --shots or --epsilon/--delta, not both"),
    ], ids=["parse-before-width", "width-before-m", "m-before-shots", "shots-before-seed",
            "seed-before-memory", "m-before-memory", "shot-rule-before-seed-and-memory"])
    def test_first_fault_is_reported(self, argv, message, circuits, tmp_path, capsys,
                                     monkeypatch):
        # a request with several faults reports the first one its command checks, and
        # synthesizes nothing
        files = {**circuits, "out": str(tmp_path / "out")}
        for name, text in [("two", "qubits 2\nH 0\n"), ("bad", "qubits 1\nY 0\n"),
                           ("wide24", "qubits 24\nH 0\nCX 0 23\n")]:
            files[name] = str(tmp_path / name)
            Path(files[name]).write_text(text)
        monkeypatch.delenv("BELLCHECK_SEED", raising=False)

        def must_not_run(circuit):
            pytest.fail("a synthesis ran for a refused request")

        monkeypatch.setattr("bellcheck.cli.circuit_unitary", must_not_run)
        monkeypatch.setattr("bellcheck.cli.integer_unitary", must_not_run)
        rc = main([arg.format(**files) for arg in [*argv, *OUT]])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message.format(**files)}\n"
        assert captured.out == ""
        assert not Path(files["out"]).exists()

    def test_unexpected_error_is_not_a_verdict(self, circuits, capsys, monkeypatch):
        # exit code 1 means INEQUIVALENT, so an out-of-memory failure must exit 2
        def out_of_memory(circuit):
            raise MemoryError()

        monkeypatch.setattr("bellcheck.cli.circuit_unitary", out_of_memory)
        monkeypatch.setattr("bellcheck.cli.integer_unitary", out_of_memory)
        for argv in (["compare-exact"], ["compare-sampled", "--shots", "10", "--seed", "1"]):
            rc = main([*argv, circuits["h"], circuits["z"]])
            err = capsys.readouterr().err
            assert rc == 2
            assert err == "error: MemoryError\n"

    @pytest.mark.parametrize("argv", [
        ["compare-exact", "--raw"],
        ["compare-exact", "--embedded"],
        ["compare-sampled", "--shots", "10", "--seed", "1"],
    ], ids=["raw", "embedded", "sampled"])
    def test_failed_out_write_follows_the_whole_result(self, argv, circuits, tmp_path, capsys):
        # every line, setting_tallies too, is printed before --out is opened
        argv = [argv[0], circuits["h"], circuits["z"], *argv[1:]]
        code = main(argv)
        expected = capsys.readouterr().out
        out = tmp_path / "no-such-dir" / "o.csv"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == expected and expected.count("\n") >= 6 and code in (0, 1)
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err

    @pytest.mark.parametrize("argv", [
        ["compare-exact", "--raw"],
        ["compare-exact", "--embedded"],
        ["compare-sampled", "--shots", "10", "--seed", "1"],
    ])
    def test_oversized_width_refused_before_allocation(self, argv, tmp_path, capsys, monkeypatch):
        def must_not_run(circuit):
            pytest.fail("a synthesis ran for a width that cannot fit")

        monkeypatch.setattr("bellcheck.cli.circuit_unitary", must_not_run)
        monkeypatch.setattr("bellcheck.cli.integer_unitary", must_not_run)
        wide = tmp_path / "wide.qc"
        wide.write_text("qubits 24\nH 0\nCX 0 23\n")
        actions = _row_action.cache_info()
        rc = main([argv[0], str(wide), str(wide), *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: 24-qubit ") and err.count("\n") == 1
        assert _row_action.cache_info() == actions  # no gate action was built

    @pytest.mark.parametrize("argv,n,message", [
        (["compare-exact"], 525, "525-qubit raw comparison needs about 3.6e+308 GiB"),
        (["compare-sampled", "--shots", "10", "--seed", "1"], 350,
         "350-qubit sampled comparison needs about 8.99e+308 GiB"),
        (["compare-exact"], 10**9,
         f"{10**9}-qubit raw comparison needs more than 2^{10**9} bytes"),
        (["compare-sampled", "--shots", "10", "--seed", "1"], 10**14,
         f"{10**14}-qubit sampled comparison needs more than 2^{10**14} bytes"),
        (["compare-exact", "--embedded", "--m", "1"], 1024,
         "1024-qubit embedded comparison needs more than 2^1024 bytes"),
    ], ids=["exact-525", "sampled-350", "exact-1e9", "sampled-1e14", "width-before-m"])
    def test_impossible_width_refused_at_once(self, argv, n, message, tmp_path, capsys,
                                              monkeypatch):
        # a need past the float range is named in the usual sentence, and a width of
        # 1,024 qubits or more is refused before any power of it is formed
        def must_not_run(circuit):
            pytest.fail("a synthesis ran for a width that cannot fit")

        monkeypatch.setattr("bellcheck.cli.circuit_unitary", must_not_run)
        monkeypatch.setattr("bellcheck.cli.integer_unitary", must_not_run)
        pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        wide = tmp_path / "wide.qc"
        wide.write_text(f"qubits {n}\nH 0\nCX 0 1\n")
        out = tmp_path / "out.csv"
        rc = main([argv[0], str(wide), str(wide), *argv[1:], "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message}, more than the 8 GiB of physical memory\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compare-exact", "--raw"],
        ["compare-sampled", "--shots", "10", "--seed", "1"],
    ])
    def test_byte_order_mark_is_read_past(self, argv, circuits, tmp_path, capsys):
        marked = tmp_path / "marked.qc"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(circuits["h"]).read_bytes())
        code = main([argv[0], circuits["h"], circuits["z"], *argv[1:]])
        plain = capsys.readouterr().out
        assert main([argv[0], str(marked), circuits["z"], *argv[1:]]) == code
        assert capsys.readouterr().out == plain.replace(circuits["h"], str(marked))

    @pytest.mark.parametrize("command", HELP_COMMANDS)
    def test_help_names_the_shared_options(self, command, capsys):
        assert main([command, "--help"]) == 0
        own = " ".join(capsys.readouterr().out.split())
        assert ("BELLCHECK_SEED" in own) == (command in ("compare-sampled", "fig1", "fig3",
                                                           "lemma2"))
        assert ("--m M number of measurement settings (>= 2)" in own) == (
            command in ("compare-exact", "compare-sampled", "lemma2"))
        assert main(["--help"]) == 0
        entry = " ".join(capsys.readouterr().out.split()).split(f" {command} ", 1)[1]
        for end in [f" {other} " for other in HELP_COMMANDS] + [" options:"]:
            entry = entry.split(end, 1)[0]  # this command's line of the command list
        assert (PYTHON_INT_CLAUSE in entry) == command.startswith("compare-")

    @pytest.mark.parametrize("argv", [
        ["fig1", "--samples", "-3"],
        ["fig3", "--n", "1", "--shots", "100", "--samples", "-2"],
        ["lemma2", "--d", "16", "--delta", "0.1", "--samples", "0"],
    ])
    def test_non_positive_sample_count_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main([*argv, "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: need at least one sample, got {argv[-1]}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_back_to_back_calls_share_no_state(self, circuits, capsys):
        # the parser is built once per process; one call's options must not leak into the next
        assert main(["compare-exact", circuits["h"], circuits["z"], "--embedded"]) == 1
        assert "mode = embedded" in capsys.readouterr().out
        assert main(["compare-exact", circuits["h"], circuits["z"]]) == 1
        assert "mode = raw" in capsys.readouterr().out
        assert main(["--help"]) == 0
        assert "compare-exact" in capsys.readouterr().out

    def test_module_invocation(self):
        proc = run_python("-m", "bellcheck", "--help")
        assert proc.returncode == 0
        assert "compare-exact" in proc.stdout

    def test_svgplot_loads_only_for_plot(self):
        # a compare-* cold start neither compiles nor runs the SVG renderer
        code = "import sys, bellcheck.cli; print('bellcheck.svgplot' in sys.modules)"
        proc = run_python("-c", code)
        assert proc.returncode == 0
        assert proc.stdout == "False\n"
