"""bellcheck benchmark: one workload per process, closed loop, one client.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-n4 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Each request goes in-process through ``bellcheck.cli.main(argv)``: it reads
generated .qc files and writes the CLI's --out CSV (or SVG), and every
output is checked against the benchmark's own reference (``checks``).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it times half the run untraced and half with per-layer
wrappers installed (``spans``) and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it carry the
environment stamp, the input summary and the figures the JSON leaves out.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy

import checks
import pairs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"

SETUP_REPEATS = 3
PAIR_POOL = 12  # four pairs of each class, cycled through in order
P90_MIN_SAMPLES = 100
REPORTED_FAILURES = 5


def invoke(cli, argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, captured stdout, seconds taken."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.exists() else None


def _fresh(*paths: Path) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


class ExactN4:
    """compare-exact --embedded --m 2 on 4-qubit pairs (d = 256)."""

    name = "exact-n4"
    m = 2
    d = 256

    def __init__(self, workdir: Path, seed: int):
        self.pairs = pairs.generate_pairs(seed, PAIR_POOL, workdir / "pairs")
        self.out = workdir / "compare.csv"

    def inputs(self) -> dict:
        return {"pairs": pairs.describe(self.pairs)}

    def run(self, cli, k: int) -> tuple[float, list[str], str]:
        pair = self.pairs[k % len(self.pairs)]
        _fresh(self.out)
        code, _, seconds = invoke(cli, [
            "compare-exact", pair.path_a, pair.path_b,
            "--embedded", "--m", str(self.m), "--out", str(self.out),
        ])
        reasons = checks.check_exact(code, _read(self.out) or "", pair, self.d, self.m)
        verdict = {0: "EQUIVALENT", 1: "INEQUIVALENT"}.get(code, "ERROR")
        return seconds, reasons, verdict


class SampledN4:
    """compare-sampled --m 3 --epsilon 0.01 --delta 0.05 on 4-qubit pairs."""

    name = "sampled-n4"
    m = 3
    d = 256
    epsilon = 0.01
    delta = 0.05

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.pairs = pairs.generate_pairs(seed, PAIR_POOL, workdir / "pairs")
        self.out = workdir / "compare.csv"
        # The paper's round count, recomputed here as the reference.
        self.s = math.floor(8.0 * math.log(1.0 / self.delta) / self.epsilon**2) + 1

    def inputs(self) -> dict:
        return {"pairs": pairs.describe(self.pairs), "s": self.s}

    def run(self, cli, k: int) -> tuple[float, list[str], str]:
        pair = self.pairs[k % len(self.pairs)]
        _fresh(self.out)
        code, _, seconds = invoke(cli, [
            "compare-sampled", pair.path_a, pair.path_b, "--m", str(self.m),
            "--epsilon", str(self.epsilon), "--delta", str(self.delta),
            "--seed", str(self.seed * 1_000_000 + k), "--out", str(self.out),
        ])
        text = _read(self.out) or ""
        reasons = checks.check_sampled(code, text, pair, self.d, self.m, self.s, self.epsilon)
        verdict = "ERROR"
        if not reasons:
            x = float(checks.rows(text)[0]["I_prime"])
            verdict = checks.sampled_verdict(x, self.epsilon)
        return seconds, reasons, verdict


class Figures:
    """One paper-figure pass: fig1, its plot, fig3 and lemma2."""

    name = "figures"
    fig1_samples, fig3_samples, lemma2_samples = 500, 50, 1000

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.fig1 = workdir / "fig1.csv"
        self.svg = workdir / "fig1.svg"
        self.fig3 = workdir / "fig3.csv"
        self.lemma2 = workdir / "lemma2.csv"

    def inputs(self) -> dict:
        return {"seeds": f"{self.seed * 10_000} + 3k + (0, 1, 2) for request k"}

    def run(self, cli, k: int) -> tuple[float, list[str], str]:
        seed = self.seed * 10_000 + 3 * k
        _fresh(self.fig1, self.svg, self.fig3, self.lemma2)
        c1, _, t1 = invoke(cli, ["fig1", "--samples", str(self.fig1_samples),
                                 "--seed", str(seed), "--out", str(self.fig1)])
        c2, _, t2 = invoke(cli, ["plot", str(self.fig1), "--x", "V", "--y", "D",
                                 "--out", str(self.svg), "--overlay", "bounds",
                                 "--d", "4", "--m", "2"])
        c3, _, t3 = invoke(cli, ["fig3", "--n", "2", "--shots", "1000",
                                 "--samples", str(self.fig3_samples),
                                 "--seed", str(seed + 1), "--out", str(self.fig3)])
        c4, out4, t4 = invoke(cli, ["lemma2", "--d", "16", "--delta", "0.1",
                                    "--samples", str(self.lemma2_samples),
                                    "--seed", str(seed + 2), "--out", str(self.lemma2)])
        reasons = (
            checks.check_fig1(c1, _read(self.fig1) or "", self.fig1_samples, 4, 2)
            + checks.check_plot(c2, _read(self.svg), self.fig1_samples, 2)
            + checks.check_fig3(c3, _read(self.fig3) or "", self.fig3_samples, 2, 1000)
            + checks.check_lemma2(c4, out4, _read(self.lemma2) or "",
                                  self.lemma2_samples, 16, 2, 0.1)
        )
        return t1 + t2 + t3 + t4, reasons, "n/a"


WORKLOADS = {w.name: w for w in (ExactN4, SampledN4, Figures)}


class Loop:
    """Closed loop of one client; every request's output goes through the gate."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.verdicts: Counter[str] = Counter()

    def request(self, cli, k: int) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            seconds, reasons, verdict = self.workload.run(cli, k)
        except Exception:  # a crashing request is a failed request, not a crashed run
            seconds = time.perf_counter() - start
            reasons, verdict = [traceback.format_exc(limit=3)], "ERROR"
        self.verdicts[verdict] += 1
        if reasons:
            self.failures.append(f"request {k}: " + "; ".join(reasons))
        return seconds

    def setup(self) -> float:
        """Import bellcheck afresh and serve one warm-up request; time both.

        Dropping the modules first also drops every cache they hold, so
        each repeat pays the full cold cost.
        """
        for name in [n for n in sys.modules if n == "bellcheck" or n.startswith("bellcheck.")]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        cli = importlib.import_module("bellcheck.cli")
        self.request(cli, 0)
        return time.perf_counter() - start

    def measure(self, cli, seconds: float, first_k: int) -> list[float]:
        """Latencies of the requests started within ``seconds`` (at least one)."""
        latencies = []
        deadline = time.perf_counter() + seconds
        k = first_k
        while not latencies or time.perf_counter() < deadline:
            latencies.append(self.request(cli, k))
            k += 1
        return latencies


def _blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _end_to_end(setups: list[float], latencies: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _per_layer(tracer: spans.Tracer, latencies: list[float], untraced_rps: float) -> dict:
    n = len(latencies)
    metrics = {}
    for name, stats in tracer.layers.items():
        metrics[f"{name}.calls"] = (stats.calls / n, "count")
        metrics[f"{name}.self_s"] = (stats.self_s / n, "s")
        metrics[f"{name}.errors"] = (stats.errors / n, "count")
    evaluate = tracer.layers["sampling.RoundSampler.evaluate"]
    metrics["sampling.rounds"] = (evaluate.work / n, "count")
    rate = evaluate.work / evaluate.self_s if evaluate.self_s > 0 else 0.0
    metrics["sampling.rounds_per_s"] = (rate, "1/s")
    metrics["request.wall_s"] = (sum(latencies) / n, "s")
    metrics["trace_overhead_ratio"] = (untraced_rps / (n / sum(latencies)), "ratio")
    return metrics


def _shares(metrics: dict) -> dict:
    """Share of traced request time per layer, for the workload's own claims."""
    wall = metrics["request.wall_s"][0]
    return {
        name[: -len(".self_s")]: round(value / wall, 4)
        for name, (value, _) in metrics.items()
        if name.endswith(".self_s") and value > 0
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Generate inputs, set up, measure; return the result object."""
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[name](workdir, seed)
        print("env " + json.dumps(environment(name, seed), sort_keys=True))
        print("inputs " + json.dumps(workload.inputs(), sort_keys=True))
        loop = Loop(workload)
        setups = [loop.setup() for _ in range(setup_repeats)]
        cli = sys.modules["bellcheck.cli"]
        if not trace:
            latencies = loop.measure(cli, seconds, first_k=1)
            metrics = _end_to_end(setups, latencies)
            n = len(latencies)
            if n >= P90_MIN_SAMPLES:
                p90 = statistics.quantiles(latencies, n=10)[-1]
                print(f"latency_p90_s = {p90!r} s (n = {n})")
            else:
                print(f"latency_p90_s not reported: n = {n} < {P90_MIN_SAMPLES}")
        else:
            untraced = loop.measure(cli, seconds / 2, first_k=1)
            tracer = spans.Tracer()
            print("traced sites " + " ".join(tracer.install()))
            latencies = loop.measure(cli, seconds / 2, first_k=1)
            tracer.uninstall()
            metrics = _per_layer(tracer, latencies, len(untraced) / sum(untraced))
            print("shares " + json.dumps(_shares(metrics), sort_keys=True))
            print("span_edges_s " + json.dumps(
                {edge: round(t / len(latencies), 6) for edge, t in tracer.edges.items()},
                sort_keys=True))
        failed = len(loop.failures)
        print(f"timed requests = {len(latencies)}, setups = {setup_repeats}, "
              f"error_rate = {failed / loop.attempted!r} ({failed}/{loop.attempted})")
        print("verdicts " + json.dumps(dict(loop.verdicts), sort_keys=True))
        for line in loop.failures[:REPORTED_FAILURES]:
            print("FAILED " + line, file=sys.stderr)
        for metric, (value, unit) in metrics.items():
            print(f"{metric} = {value!r} {unit}")
        return {
            "correct": failed == 0,
            "attempted": loop.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def smoke() -> int:
    """Every workload briefly, untraced and traced; exit 0 only if all pass."""
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=1, seconds=0.0, trace=trace, setup_repeats=1)
            status = "ok" if result["correct"] else "FAILED"
            print(f"smoke {name} trace={int(trace)}: {status} "
                  f"({result['failed']}/{result['attempted']} failed)")
            bad += not result["correct"]
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, quickly, and check its outputs")
    args = parser.parse_args(argv)
    if not (SRC / "bellcheck" / "__init__.py").is_file():
        print(f"error: no bellcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
