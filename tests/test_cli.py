import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellcheck
from bellcheck.cli import _fig3_point, main
from bellcheck.circuit import circuit_unitary, parse_circuit
from bellcheck.distance import circuit_distance

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
    dist = circuit_distance(circuit_unitary(parse_circuit(a.read_text())),
                            circuit_unitary(parse_circuit(b.read_text())))
    return str(a), str(b), dist


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
        def refuse(*args, **kwargs):
            raise AssertionError("observable_power called")

        for module in [mod for name, mod in sys.modules.items() if name.startswith("bellcheck")]:
            if hasattr(module, "observable_power"):
                monkeypatch.setattr(module, "observable_power", refuse)
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

    def test_width_mismatch_usage_error(self, circuits, tmp_path, capsys):
        wide = tmp_path / "wide.qc"
        wide.write_text("qubits 2\nH 0\n")
        rc = main(["compare-exact", circuits["h"], str(wide), "--m", "2"])
        assert rc == 2
        assert "widths differ" in capsys.readouterr().err

    def test_parse_error_reports_file_and_line(self, circuits, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_text("qubits 1\nY 0\n")
        rc = main(["compare-exact", str(bad), circuits["h"], "--m", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad.qc" in err and "line 2" in err

    def test_missing_file(self, circuits, capsys):
        rc = main(["compare-exact", "no-such-file.qc", circuits["h"], "--m", "2"])
        assert rc == 2

    def test_csv_row_output(self, circuits, tmp_path):
        out = tmp_path / "row.csv"
        main(["compare-exact", circuits["h"], circuits["z"], "--m", "2",
              "--embedded", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("circuit_a,circuit_b,mode,d,m")
        assert "INEQUIVALENT" in lines[1]


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

    def test_shots_and_epsilon_conflict(self, circuits, capsys):
        rc = main(["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                   "--shots", "100", "--epsilon", "0.1", "--delta", "0.1"])
        assert rc == 2

    def test_epsilon_without_delta(self, circuits, capsys):
        rc = main(["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                   "--epsilon", "0.1"])
        assert rc == 2

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
            assert float(d_true) == pytest.approx(circuit_distance(u1, u2), abs=1e-12)

    def test_invalid_shots_choice(self, tmp_path, capsys):
        rc = main(["fig3", "--n", "1", "--shots", "123", "--samples", "5",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


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

    def test_overlay_requires_protocol_params(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("pair_id,V,D,lower,upper\n")
        rc = main(["plot", str(csv_path), "--x", "V", "--y", "D",
                   "--out", str(tmp_path / "x.svg"), "--overlay", "bounds"])
        assert rc == 2


class TestEntryPoints:
    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2
        assert main([]) == 2

    def test_unexpected_error_is_not_a_verdict(self, circuits, capsys, monkeypatch):
        # exit code 1 means INEQUIVALENT, so an out-of-memory failure must exit 2
        def out_of_memory(circuit):
            raise MemoryError()

        monkeypatch.setattr("bellcheck.cli.circuit_unitary", out_of_memory)
        rc = main(["compare-exact", circuits["h"], circuits["z"], "--m", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: MemoryError\n"

    @pytest.mark.parametrize("argv", [
        ["compare-exact", "--raw"],
        ["compare-exact", "--embedded"],
        ["compare-sampled", "--shots", "10", "--seed", "1"],
    ])
    def test_oversized_width_refused_before_allocation(self, argv, tmp_path, capsys, monkeypatch):
        def must_not_run(circuit):
            pytest.fail("circuit_unitary ran for a width that cannot fit")

        monkeypatch.setattr("bellcheck.cli.circuit_unitary", must_not_run)
        wide = tmp_path / "wide.qc"
        wide.write_text("qubits 24\nH 0\n")
        rc = main([argv[0], str(wide), str(wide), *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: 24-qubit ") and err.count("\n") == 1

    def test_huge_shot_count_refused_before_synthesis(self, circuits, capsys, monkeypatch):
        # the s-sized draw and evaluation arrays count toward the size guard
        def must_not_run(circuit):
            pytest.fail("circuit_unitary ran for a shot count that cannot fit")

        monkeypatch.setattr("bellcheck.cli.circuit_unitary", must_not_run)
        rc = main(["compare-sampled", circuits["h"], circuits["z"], "--m", "2",
                   "--shots", "10000000000000", "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: 1-qubit sampled comparison") and err.count("\n") == 1

    def test_back_to_back_calls_share_no_state(self, circuits, capsys):
        # the parser is built once per process; one call's options must not leak into the next
        assert main(["compare-exact", circuits["h"], circuits["z"], "--embedded"]) == 1
        assert "mode = embedded" in capsys.readouterr().out
        assert main(["compare-exact", circuits["h"], circuits["z"]]) == 1
        assert "mode = raw" in capsys.readouterr().out
        assert main(["--help"]) == 0
        assert "compare-exact" in capsys.readouterr().out

    def test_module_invocation(self):
        # the child imports the same bellcheck as this process, installed or not
        src = str(Path(bellcheck.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bellcheck", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "compare-exact" in proc.stdout
