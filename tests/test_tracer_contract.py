"""The benchmark's per-layer tracer against the program it wraps.

``bench/spans.py`` wraps each function its ``LAYERS`` table names and counts
the rounds of ``RoundSampler.evaluate`` from the ``u`` argument.  These tests
load it from its path, unedited, so a renamed target or a changed call
signature fails here and not only in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import bellcheck.cli

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


def test_every_layer_target_exists(spans):
    for layer in spans.LAYERS:
        home = importlib.import_module(layer.module)
        for target in layer.targets:
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            assert callable(vars(owner).get(attr)), f"{layer.module}.{target} is gone"


def test_traced_sampled_comparison(spans, tmp_path):
    a, b = tmp_path / "h.qc", tmp_path / "z.qc"
    a.write_text("qubits 1\nH 0\n")
    b.write_text("qubits 1\nZ 0\n")
    tracer = spans.Tracer()
    assert tracer.install()
    try:
        code = bellcheck.cli.main(["compare-sampled", str(a), str(b), "--shots", "5000",
                                   "--seed", "5"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert {name: stats.errors for name, stats in tracer.layers.items() if stats.errors} == {}
    evaluate = tracer.layers["sampling.RoundSampler.evaluate"]
    assert evaluate.calls == 1
    assert evaluate.work == 5000
