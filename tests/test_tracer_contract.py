"""The benchmark's per-layer tracer against the program it wraps.

``bench/spans.py`` wraps each function its ``LAYERS`` table names.  These
tests load it from its path, unedited, so a renamed target fails here and
not only in a benchmark run.  They also pin the batched figure kernels: a
return to one kernel call per sample fails here.  Five targets are retired,
and their layers record no calls.  The sampler draws (branch, class) counts
per block of rounds, so the per-round draw table and round evaluation are
gone, and so is the sampler class: ``estimate_distance`` passes the
``branch_laws`` of its state to ``draw_counts``, and its layer takes their
time.  The observable powers and the dense outcome grids are test oracles
in ``tests/oracles.py``: no Bell route calls them.  A comparison parses
each of its two circuits once and synthesizes one matrix, W = U1 U2^T, from
their joined circuit, with one ``integer_unitary`` call (which ``LAYERS`` does
not name).  An exact comparison, raw or embedded, reads V from the diagonal
sums of that integer S, so it makes no ``circuit_unitary`` or
``bell_value_gamma`` call and builds no embedded pair.  A sampled comparison
makes one ``circuit_unitary`` call, the float view of that S, whose self time
in the trace includes the integer synthesis.  The figures read
each pair through W as well, so ``fig1`` makes no ``apply_bilocal`` call.
"""

import importlib
import math
import importlib.util
import sys
from pathlib import Path

import pytest

import bellcheck.cli
from bellcheck import tensor

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


RETIRED_TARGETS = {
    # the per-round sampler that the count draw replaced
    "bellcheck.sampling.draw_table",
    "bellcheck.sampling.RoundSampler.evaluate",
    # the sampler class, replaced by branch_laws and one draw_counts call
    "bellcheck.sampling.RoundSampler.__init__",
    # literal definitions that only tests read, now in tests/oracles.py
    "bellcheck.measurement.observable_power",
    "bellcheck.measurement.outcome_distribution",
}


def test_every_layer_target_exists(spans):
    retired = set()
    for layer in spans.LAYERS:
        home = importlib.import_module(layer.module)
        for target in layer.targets:
            owner_name, _, attr = target.rpartition(".")
            # a retired method may have lost its class as well
            owner = getattr(home, owner_name, None) if owner_name else home
            found = owner is not None and callable(vars(owner).get(attr))
            if f"{layer.module}.{target}" in RETIRED_TARGETS:
                assert not found, f"{layer.module}.{target} is retired but still there"
                retired.add(f"{layer.module}.{target}")
            else:
                assert found, f"{layer.module}.{target} is gone"
    assert retired == RETIRED_TARGETS


def traced_call(spans, argv):
    tracer = spans.Tracer()
    assert tracer.install()
    try:
        code = bellcheck.cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert {name: stats.errors for name, stats in tracer.layers.items() if stats.errors} == {}
    return tracer.layers


def counted_calls(monkeypatch, *targets):
    """{target: [args of each call]} for ``bellcheck.circuit`` functions, counted wherever
    they are imported, the circuit module's own calls included."""
    calls = {target: [] for target in targets}
    for target, seen in calls.items():
        original = getattr(bellcheck.circuit, target)

        def counting(*args, original=original, seen=seen, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "bellcheck" or name.startswith("bellcheck."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return calls


def test_traced_sampled_comparison(spans, tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "h.qc", tmp_path / "z.qc"
    a.write_text("qubits 1\nH 0\n")
    b.write_text("qubits 1\nZ 0\n")
    calls = counted_calls(monkeypatch, "integer_unitary")
    layers = traced_call(spans, ["compare-sampled", str(a), str(b), "--shots", "5000",
                                 "--seed", "5"])
    assert layers["circuit.circuit_unitary"].calls == 1
    assert len(calls["integer_unitary"]) == 1
    assert layers["sampling.estimate_distance"].calls == 1
    assert layers["sampling.RoundSampler.init"].calls == 0
    assert layers["sampling.draw_table"].calls == 0
    assert layers["sampling.RoundSampler.evaluate"].calls == 0
    tallies = capsys.readouterr().out.split("setting_tallies: ")[1].split(", ")
    assert sum(int(tally.split("=")[1]) for tally in tallies) == 5000


def test_exact_comparison_builds_each_circuit_once(spans, tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.qc", tmp_path / "b.qc"
    a.write_text("qubits 4\nH 0\nCX 0 1\nTOFFOLI 1 2 3\nH 3\nSWAP 0 2\nCZ 3 1\n")
    b.write_text("qubits 4\nH 0\nCX 0 1\nTOFFOLI 1 2 3\nH 3\nSWAP 2 0\nCZ 1 3\nX 2\nX 2\n")
    calls = counted_calls(monkeypatch, "embedded_pair_state", "integer_unitary")
    for mode in ("--embedded", "--raw"):
        layers = traced_call(spans, ["compare-exact", str(a), str(b), mode])
        assert layers["circuit.parse_circuit"].calls == 2
        assert len(calls["integer_unitary"]) == 1
        assert layers["circuit.circuit_unitary"].calls == 0
        assert layers["tensor.apply_bilocal"].calls == 0
        assert layers["bell.bell_value_gamma"].calls == 0
        assert calls["embedded_pair_state"] == []
        assert "verdict = EQUIVALENT\n" in capsys.readouterr().out
        calls["integer_unitary"].clear()


def test_fig1_draws_and_evaluates_once(spans, tmp_path, capsys):
    layers = traced_call(spans, ["fig1", "--samples", "500", "--seed", "3",
                                 "--out", str(tmp_path / "fig1.csv")])
    assert layers["tensor.random_real_orthogonal"].calls == 1
    assert layers["tensor.apply_bilocal"].calls == 0
    assert layers["bell.bell_value_gamma"].calls == 1
    assert layers["distance"].calls == 2  # circuit_distance and distance_bounds_from_v


def test_lemma2_evaluates_once_per_block(spans, tmp_path, capsys):
    layers = traced_call(spans, ["lemma2", "--d", "16", "--delta", "0.1", "--samples", "1000",
                                 "--seed", "4", "--out", str(tmp_path / "lemma2.csv")])
    blocks = math.ceil(1000 / (tensor.BLOCK_AMPLITUDES // 256))
    assert layers["bell.lemma2_exceedance"].calls == 1
    assert layers["tensor.random_real_unit_vector"].calls == blocks
    assert layers["bell.bell_value_gamma"].calls == blocks


def test_fig3_estimates_once_per_block(spans, tmp_path, capsys):
    layers = traced_call(spans, ["fig3", "--n", "3", "--shots", "100", "--samples", "40",
                                 "--seed", "5", "--out", str(tmp_path / "fig3.csv")])
    blocks = math.ceil(40 / (tensor.BLOCK_AMPLITUDES // 8**3))
    assert blocks == 3
    assert layers["sampling.estimate_distance"].calls == blocks
    assert layers["sampling.RoundSampler.init"].calls == 0
    assert layers["distance"].calls == 2 * blocks  # circuit_distance and normalized_to_distance


def test_plot_overlays_make_one_call(spans, tmp_path, capsys):
    csv = tmp_path / "points.csv"
    csv.write_text("V,D\n0.5,0.5\n")
    for overlay in ("bounds", "exact"):
        layers = traced_call(spans, ["plot", str(csv), "--x", "V", "--y", "D", "--out",
                                     str(tmp_path / "p.svg"), "--overlay", overlay,
                                     "--d", "16", "--m", "2"])
        assert layers["distance"].calls == 1
