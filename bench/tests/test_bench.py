"""Tests of the benchmark itself: inputs, oracle, correctness gate, tracer.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import pairs
import run
import spans
from bellcheck.circuit import circuit_unitary, parse_circuit

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _cli():
    # run_workload re-imports bellcheck, so look the module up on every use.
    return importlib.import_module("bellcheck.cli")


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = _cli().main(argv)
    return code, out.getvalue()


def _random_gates(rng, n, count):
    return [pairs._random_gate(rng, n) for _ in range(count)]


def _pair(tmp_path, gates_a, gates_b, n, name="p"):
    path_a, path_b = tmp_path / f"{name}_a.qc", tmp_path / f"{name}_b.qc"
    path_a.write_text(pairs.circuit_text(gates_a, n))
    path_b.write_text(pairs.circuit_text(gates_b, n))
    d2 = pairs.reference_d2(gates_a, gates_b, n)
    return pairs.Pair("test", str(path_a), str(path_b), d2)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = pairs.generate_pairs(5, 6, tmp_path / "one")
    second = pairs.generate_pairs(5, 6, tmp_path / "two")
    other = pairs.generate_pairs(6, 6, tmp_path / "three")
    for a, b in zip(first, second):
        assert Path(a.path_a).read_bytes() == Path(b.path_a).read_bytes()
        assert Path(a.path_b).read_bytes() == Path(b.path_b).read_bytes()
        assert a.d2_ref == b.d2_ref
    assert any(Path(a.path_a).read_bytes() != Path(c.path_a).read_bytes()
               for a, c in zip(first, other))


def test_classes_have_the_promised_distances(tmp_path):
    generated = pairs.generate_pairs(9, 12, tmp_path)
    assert [p.klass for p in generated] == list(pairs.CLASSES) * 4
    for p in generated:
        if p.klass == "rewrite":
            assert p.d2_ref == 0
            assert Path(p.path_a).read_text() != Path(p.path_b).read_text()
        elif p.klass == "edit":
            assert p.d2_ref >= pairs.MIN_EDIT_D2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_matches_circuit_unitary(n):
    rng = random.Random(n)
    for _ in range(30):
        gates = _random_gates(rng, n, 25)
        expected = circuit_unitary(parse_circuit(pairs.circuit_text(gates, n)))
        np.testing.assert_allclose(pairs.oracle_unitary(gates, n), expected, atol=1e-12)


def test_oracle_distance_is_exact():
    # H Z H = X exactly; Tr(X Z) = 0; Tr(H X) / 2 = 1/sqrt(2).
    assert pairs.reference_d2([("H", (0,)), ("Z", (0,)), ("H", (0,))], [("X", (0,))], 1) == 0
    assert pairs.reference_d2([("Z", (0,))], [("X", (0,))], 1) == 1
    assert pairs.reference_d2([("H", (0,))], [("X", (0,))], 1) == Fraction(1, 2)
    assert pairs.reference_d2([("CX", (0, 1))], [], 2) == Fraction(3, 4)


def test_gate_passes_exact_output_and_flags_tampering(tmp_path):
    gates = _random_gates(random.Random(1), 2, 12)
    equal = _pair(tmp_path, gates, pairs._rewrite(random.Random(2), gates, 2), 2, "eq")
    far = _pair(tmp_path, gates, [("X", (0,))] + gates, 2, "far")
    out = tmp_path / "out.csv"
    for pair in (equal, far):
        code, _ = _call(["compare-exact", pair.path_a, pair.path_b, "--embedded",
                         "--m", "2", "--out", str(out)])
        text = out.read_text()
        assert checks.check_exact(code, text, pair, 16, 2) == []
        assert checks.check_exact(1 - code, text, pair, 16, 2)
        header, row = text.splitlines()
        cells = row.split(",")
        cells[header.split(",").index("D")] = "0.5"
        assert checks.check_exact(code, f"{header}\n{','.join(cells)}\n", pair, 16, 2)
        assert checks.check_exact(code, header + "\n", pair, 16, 2)


def test_gate_passes_sampled_output_and_flags_tampering(tmp_path):
    gates = _random_gates(random.Random(3), 2, 12)
    pair = _pair(tmp_path, gates, [("Z", (1,))] + gates, 2)
    out = tmp_path / "out.csv"
    code, _ = _call(["compare-sampled", pair.path_a, pair.path_b, "--m", "3",
                     "--epsilon", "0.05", "--delta", "0.05", "--seed", "4", "--out", str(out)])
    text = out.read_text()
    s = int(checks.rows(text)[0]["s"])
    assert checks.check_sampled(code, text, pair, 16, 3, s, 0.05) == []
    x = checks.rows(text)[0]["I_prime"]
    assert checks.check_sampled(code, text.replace(x, str(float(x) + 0.1)), pair, 16, 3, s, 0.05)
    assert checks.check_sampled(code, text, pair, 16, 3, s + 1, 0.05)
    assert checks.check_sampled(2, text, pair, 16, 3, s, 0.05)


def test_gate_passes_figure_outputs_and_flags_tampering(tmp_path):
    fig1, svg, lemma2 = tmp_path / "f1.csv", tmp_path / "f1.svg", tmp_path / "l2.csv"
    code, _ = _call(["fig1", "--samples", "20", "--seed", "1", "--out", str(fig1)])
    text = fig1.read_text()
    assert checks.check_fig1(code, text, 20, 4, 2) == []
    assert checks.check_fig1(code, "\n".join(text.splitlines()[:-1]) + "\n", 20, 4, 2)
    header, row = text.splitlines()[:2]
    cells = row.split(",")
    cells[header.split(",").index("D")] = "1.5"
    assert checks.check_fig1(code, text.replace(row, ",".join(cells)), 20, 4, 2)

    code, _ = _call(["plot", str(fig1), "--x", "V", "--y", "D", "--out", str(svg),
                     "--overlay", "bounds", "--d", "4", "--m", "2"])
    assert checks.check_plot(code, svg.read_text(), 20, 2) == []
    assert checks.check_plot(code, svg.read_text()[:-10], 20, 2)
    assert checks.check_plot(code, None, 20, 2)

    code, out = _call(["lemma2", "--d", "16", "--delta", "0.5", "--samples", "200",
                       "--seed", "2", "--out", str(lemma2)])
    text = lemma2.read_text()
    assert checks.check_lemma2(code, out, text, 200, 16, 2, 0.5) == []
    fraction = [line for line in out.splitlines() if line.startswith("exceedance_fraction")][0]
    tampered = out.replace(fraction, "exceedance_fraction = 0.999")
    assert checks.check_lemma2(code, tampered, text, 200, 16, 2, 0.5)


def test_tracer_follows_the_call_path_and_uninstalls(tmp_path):
    pair = _pair(tmp_path, [("H", (0,))], [("X", (0,))], 1)
    tracer = spans.Tracer()
    original = _cli().bell_value_operator
    assert tracer.install()
    try:
        code, _ = _call(["compare-exact", pair.path_a, pair.path_b, "--embedded", "--m", "2"])
    finally:
        tracer.uninstall()
    assert code == 1
    assert _cli().bell_value_operator is original
    d, m = 4, 2
    assert tracer.layers["measurement.observable_power"].calls == 2 * m * (d - 1)
    assert tracer.layers["bell.bell_value_gamma"].calls == 0
    assert "cli.main > bell.bell_value_operator" in tracer.edges
    assert "bell.bell_value_operator > measurement.observable_power" in tracer.edges
    operator = tracer.edges["cli.main > bell.bell_value_operator"]
    assert tracer.layers["bell.bell_value_operator"].self_s == pytest.approx(
        operator - tracer.edges["bell.bell_value_operator > measurement.observable_power"])


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section, capsys):
    result = run.run_workload("figures", seed=3, seconds=0.0, trace=trace, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not run.WORK_ROOT.exists()
