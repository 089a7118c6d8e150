"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each public function listed in ``LAYERS`` at every
place a loaded ``bellcheck`` module holds it, found by object identity, so
calls are timed where the real call path goes through them and ``src/``
stays untouched.  Each call is one span; as it closes, the tracer adds to
its layer's calls, errors and self time (duration minus the time covered by
child spans) and to the time of its caller > callee edge.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    targets: tuple[str, ...]  # function names, or "Class.method"
    # Unit of work per call beyond the call itself, e.g. rounds evaluated.
    work: Callable[[tuple, dict], int] | None = None


def _rounds(args: tuple, kwargs: dict) -> int:
    # RoundSampler.evaluate(self, r, i, u): one round per entry of u.
    return len(args[3] if len(args) > 3 else kwargs["u"])


# The end-to-end metric and workload each layer should move are listed in
# bench/README.md.
LAYERS = (
    Layer("cli.main", "bellcheck.cli", ("main",)),
    Layer("circuit.parse_circuit", "bellcheck.circuit", ("parse_circuit",)),
    Layer("circuit.circuit_unitary", "bellcheck.circuit", ("circuit_unitary",)),
    Layer("circuit.embed_double", "bellcheck.circuit", ("embed_double",)),
    Layer("tensor.apply_bilocal", "bellcheck.tensor", ("apply_bilocal",)),
    Layer("tensor.random_real_orthogonal", "bellcheck.tensor", ("random_real_orthogonal",)),
    Layer("tensor.random_real_unit_vector", "bellcheck.tensor", ("random_real_unit_vector",)),
    Layer("bell.bell_value_operator", "bellcheck.bell", ("bell_value_operator",)),
    Layer("bell.bell_value_gamma", "bellcheck.bell", ("bell_value_gamma",)),
    Layer("bell.lemma2_exceedance", "bellcheck.bell", ("lemma2_exceedance",)),
    Layer("measurement.observable_power", "bellcheck.measurement", ("observable_power",)),
    Layer("measurement.outcome_distribution", "bellcheck.measurement", ("outcome_distribution",)),
    Layer("sampling.estimate_distance", "bellcheck.sampling", ("estimate_distance",)),
    Layer("sampling.RoundSampler.init", "bellcheck.sampling", ("RoundSampler.__init__",)),
    Layer("sampling.RoundSampler.evaluate", "bellcheck.sampling", ("RoundSampler.evaluate",),
          work=_rounds),
    Layer("sampling.draw_table", "bellcheck.sampling", ("draw_table",)),
    Layer("distance", "bellcheck.distance", (
        "circuit_distance", "distance_bounds_from_v",
        "distance_from_embedded_v", "normalized_to_distance",
    )),
    Layer("svgplot.emit_svg_scatter", "bellcheck.svgplot", ("emit_svg_scatter",)),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    work: int = 0


class Tracer:
    """Aggregates spans as they close, so memory stays bounded per layer."""

    def __init__(self):
        self.layers = {layer.name: LayerStats() for layer in LAYERS}
        self.edges: dict[str, float] = defaultdict(float)  # "caller > callee" -> seconds
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._undo: list[tuple[object, str, object]] = []

    def call(self, layer: Layer, fn: Callable, args: tuple, kwargs: dict):
        stats = self.layers[layer.name]
        stats.calls += 1
        if layer.work is not None:
            stats.work += layer.work(args, kwargs)
        parent = self._stack[-1] if self._stack else None
        frame = [layer.name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stats.errors += 1
            raise
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            stats.self_s += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            self.edges[f"{parent[0] if parent else 'request'} > {layer.name}"] += duration

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)

        return traced

    def install(self) -> list[str]:
        """Wrap every layer at each of its import sites; return the sites."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "bellcheck" or name.startswith("bellcheck.")]
        sites = []
        for layer in LAYERS:
            home = sys.modules.get(layer.module)
            for target in layer.targets:
                owner_name, _, attr = target.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name, None)
                    fn = vars(owner).get(attr) if owner is not None else None
                    if fn is not None:
                        self._patch(owner, attr, self._wrap(layer, fn))
                        sites.append(f"{layer.module}.{target}")
                    continue
                fn = getattr(home, attr, None)
                if fn is None:
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, self._wrap(layer, fn))
                            sites.append(f"{mod.__name__}.{name}")
        return sites

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
