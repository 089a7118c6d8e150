"""Command-line surface: compare two circuit files exactly or by sampling,
generate the bound-scatter and estimator-convergence datasets, run the
random-state concentration experiment, and render CSV files to SVG.

Exit codes: 0 success (or verdict EQUIVALENT), 1 verdict INEQUIVALENT,
2 usage, input or any other error.  Every randomized command echoes its
seed, so any output can be replayed; the BELLCHECK_SEED environment
variable supplies a default seed when --seed is omitted.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

# bell_value_operator stays importable from here: bench/tests/test_bench.py reads it.
from .bell import bell_value_gamma, bell_value_operator, lemma2_exceedance  # noqa: F401
from .circuit import Circuit, CircuitParseError, circuit_unitary, embedded_pair_state, parse_circuit
from .distance import (
    circuit_distance,
    distance_bounds_from_v,
    distance_from_embedded_v,
)
from .sampling import ShotPlan, estimate_distance, plan_shots
from .svgplot import emit_svg_scatter
from .tensor import RngStream, apply_bilocal, max_entangled, random_real_orthogonal

SEED_ENV_VAR = "BELLCHECK_SEED"
EQUIVALENCE_GAP = 1e-6

FIG1_HEADER = ["pair_id", "V", "D", "lower", "upper"]
FIG3_HEADER = ["pair_id", "n", "s", "V_hat", "D_true", "D_est"]
LEMMA2_HEADER = ["sample_id", "V"]
COMPARE_HEADER = [
    "circuit_a", "circuit_b", "mode", "d", "m", "s", "seed",
    "V", "I_prime", "D", "lower", "upper", "verdict",
]


def _fmt(value) -> str:
    """Locale-independent cell formatting: 12 significant digits for floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read circuit file {path}: {exc}") from None
    try:
        return parse_circuit(text)
    except CircuitParseError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_pair(path_a: str, path_b: str) -> tuple[Circuit, Circuit]:
    c1 = _load_circuit(path_a)
    c2 = _load_circuit(path_b)
    if c1.n_qubits != c2.n_qubits:
        raise ValueError(
            f"circuit widths differ: {path_a} has {c1.n_qubits} qubits, "
            f"{path_b} has {c2.n_qubits}"
        )
    return c1, c2


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return int.from_bytes(os.urandom(4), "big")


def _refuse_oversized(n: int, mode: str, s: int = 0) -> None:
    """Refuse a comparison whose largest arrays cannot fit in physical memory.

    Raw holds two 2^n x 2^n unitaries and a 4^n-amplitude state.  Embedded
    holds the 8^n-entry layout of the embedded pair and its working copies,
    traced at 2.6 complex values per entry for gamma and 4.7 for the sampled
    class laws (counted as 3 and 5); sampled adds at most 80 bytes per round
    for the draws (two uniforms and the branch index) and the evaluation.
    """
    complex_bytes, round_bytes = 16, 80
    per_mode = {"raw": 3 * 4**n, "embedded": 3 * 8**n, "sampled": 5 * 8**n}
    need = complex_bytes * per_mode[mode] + round_bytes * s
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        rounds = f" of {s} rounds" if mode == "sampled" else ""
        raise ValueError(
            f"{n}-qubit {mode} comparison{rounds} needs about {need / 2**30:.3g} GiB, "
            f"more than the {physical / 2**30:.3g} GiB of physical memory"
        )


def cmd_compare_exact(args: argparse.Namespace) -> int:
    c1, c2 = _load_pair(args.circuit_a, args.circuit_b)
    m = args.m
    mode = "embedded" if args.embedded else "raw"
    _refuse_oversized(c1.n_qubits, mode)
    u1 = circuit_unitary(c1)
    u2 = circuit_unitary(c2)
    print(f"circuits: {args.circuit_a} vs {args.circuit_b} ({c1.n_qubits} qubit(s))")
    if args.embedded:
        d = 4**c1.n_qubits
        v = bell_value_gamma(embedded_pair_state(u1, u2), d, m)
        dist = distance_from_embedded_v(v, d, m)
        lower = upper = ""
    else:
        d = u1.shape[0]
        psi = apply_bilocal(u1, u2, max_entangled(d))
        v = bell_value_gamma(psi, d, m)
        dist = circuit_distance(u1, u2)
        bounds = distance_bounds_from_v(v, d, m)
        lower, upper = bounds.lower, bounds.upper
    i_prime = (v + m) / (d * m)
    equivalent = m * (d - 1) - v < EQUIVALENCE_GAP
    verdict = "EQUIVALENT" if equivalent else "INEQUIVALENT"
    print(f"mode = {mode}, d = {d}, m = {m}")
    print(f"V = {_fmt(v)}")
    print(f"I_prime = {_fmt(i_prime)}")
    print(f"D = {_fmt(dist)}")
    if not args.embedded:
        print(f"lower = {_fmt(lower)}")
        print(f"upper = {_fmt(upper)}")
    print(f"verdict = {verdict}")
    if args.out:
        row = [args.circuit_a, args.circuit_b, mode, d, m, "", "",
               v, i_prime, dist, lower, upper, verdict]
        _write_csv(args.out, COMPARE_HEADER, [row])
    return 0 if equivalent else 1


def cmd_compare_sampled(args: argparse.Namespace) -> int:
    c1, c2 = _load_pair(args.circuit_a, args.circuit_b)
    if args.shots is not None:
        if args.epsilon is not None or args.delta is not None:
            raise ValueError("give either --shots or --epsilon/--delta, not both")
        plan = ShotPlan(s=args.shots)
    else:
        if args.epsilon is None or args.delta is None:
            raise ValueError("need --shots, or both --epsilon and --delta")
        plan = plan_shots(args.epsilon, args.delta)
        print(f"planned shots: s = {plan.s} (epsilon={_fmt(args.epsilon)}, delta={_fmt(args.delta)})")
    seed = _resolve_seed(args)
    _refuse_oversized(c1.n_qubits, "sampled", plan.s)
    u1 = circuit_unitary(c1)
    u2 = circuit_unitary(c2)
    report = estimate_distance(u1, u2, args.m, plan, seed)
    print(f"circuits: {args.circuit_a} vs {args.circuit_b} ({c1.n_qubits} qubit(s))")
    print(f"mode = embedded, d = {4**c1.n_qubits}, m = {args.m}")
    print(f"s = {report.s}")
    print(f"seed = {seed}")
    print(f"X = {_fmt(report.x)}")
    print(f"distance_estimate = {_fmt(report.distance_estimate)}")
    tallies = ", ".join(f"{k}={v}" for k, v in report.setting_tallies.items())
    print(f"setting_tallies: {tallies}")
    if args.out:
        row = [
            args.circuit_a, args.circuit_b, "embedded", 4**c1.n_qubits, args.m,
            report.s, seed, "", report.x, report.distance_estimate,
            "", "", "",
        ]
        _write_csv(args.out, COMPARE_HEADER, [row])
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed)
    d, m = 4, 2
    phi = max_entangled(d)
    rows = []
    for pair_id in range(args.samples):
        u1 = random_real_orthogonal(d, rng)
        u2 = random_real_orthogonal(d, rng)
        if args.include_equal_pair and pair_id == 0:
            u2 = u1
        psi = apply_bilocal(u1, u2, phi)
        v = bell_value_gamma(psi, d, m)
        bounds = distance_bounds_from_v(v, d, m)
        rows.append([pair_id, v, circuit_distance(u1, u2), bounds.lower, bounds.upper])
    _write_csv(args.out, FIG1_HEADER, rows)
    print(f"wrote {args.samples} pairs to {args.out} (d={d}, m={m}, seed={seed})")
    return 0


def _fig3_point(seed: int, n: int, pair_id: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One scatter point's Haar orthogonal pair, then its estimation seed, from one stream."""
    rng = RngStream(seed, stream_id=pair_id + 1)
    dim = 2**n
    u1 = random_real_orthogonal(dim, rng)
    u2 = random_real_orthogonal(dim, rng)
    return u1, u2, int(rng.gen.integers(1 << 63))


def cmd_fig3(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    m = 2
    d = 4**args.n
    plan = ShotPlan(s=args.shots)
    rows = []
    errors = []
    for pair_id in range(args.samples):
        u1, u2, pair_seed = _fig3_point(seed, args.n, pair_id)
        d_true = circuit_distance(u1, u2)
        report = estimate_distance(u1, u2, m, plan, pair_seed)
        v_hat = d * m * report.x - m
        rows.append([pair_id, args.n, args.shots, v_hat, d_true, report.distance_estimate])
        errors.append(report.distance_estimate - d_true)
    _write_csv(args.out, FIG3_HEADER, rows)
    rms = float(np.sqrt(np.mean(np.square(errors)))) if errors else 0.0
    print(
        f"wrote {args.samples} pairs to {args.out} "
        f"(n={args.n}, s={args.shots}, m={m}, seed={seed}, rms_error={_fmt(rms)})"
    )
    return 0


def cmd_lemma2(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed)
    bound, fraction, values = lemma2_exceedance(args.d, args.m, args.delta, args.samples, rng)
    rows = [[idx, val] for idx, val in enumerate(values)]
    _write_csv(args.out, LEMMA2_HEADER, rows)
    print(
        f"d={args.d} m={args.m} delta={_fmt(args.delta)} "
        f"samples={args.samples} seed={seed}"
    )
    print(f"bound = {_fmt(bound)}")
    print(f"exceedance_fraction = {_fmt(fraction)}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    overlays = []
    if args.overlay != "none":
        if args.d is None or args.m is None:
            raise ValueError(f"--overlay {args.overlay} requires --d and --m")
        d, m = args.d, args.m
        vs = np.linspace(-m, m * (d - 1), 200)
        if args.overlay == "bounds":
            bounds = [distance_bounds_from_v(v, d, m) for v in vs]
            overlays = [("lower bound", vs, [b.lower for b in bounds]),
                        ("upper bound", vs, [b.upper for b in bounds])]
        else:
            ds = [distance_from_embedded_v(v, d, m) for v in vs]
            overlays = [("exact distance", vs, ds)]
    emit_svg_scatter(args.csv, args.x, args.y, args.out, overlays=overlays)
    print(f"wrote {args.out}")
    return 0


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bellcheck",
        description="Black-box comparison of quantum circuits through Bell-test statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare-exact", help="exact Bell value, distance, and verdict")
    p.add_argument("circuit_a")
    p.add_argument("circuit_b")
    p.add_argument("--m", type=int, default=2, help="number of measurement settings (>= 2)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--raw", dest="embedded", action="store_false",
                      help="compare as-is and report sandwich bounds (default)")
    mode.add_argument("--embedded", dest="embedded", action="store_true",
                      help="apply the ancilla-doubling embedding for exact readout")
    p.set_defaults(embedded=False)
    p.add_argument("--out", help="optional CSV row output path")
    p.set_defaults(func=cmd_compare_exact)

    p = sub.add_parser("compare-sampled", help="finite-shot distance estimate (embedded)")
    p.add_argument("circuit_a")
    p.add_argument("circuit_b")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--shots", type=int, help="shot count s")
    p.add_argument("--epsilon", type=float, help="target additive error (with --delta)")
    p.add_argument("--delta", type=float, help="failure probability (with --epsilon)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="optional CSV row output path")
    p.set_defaults(func=cmd_compare_sampled)

    p = sub.add_parser("fig1", help="bound scatter for random pairs at d=4, m=2")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--include-equal-pair", action="store_true",
                   help="plant one identical pair to cover the maximal-violation corner")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig3", help="estimator convergence scatter (embedded protocol)")
    p.add_argument("--n", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--shots", type=int, choices=(100, 1000, 10000), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("lemma2", help="random-state concentration experiment")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("plot", help="render a CSV to a standalone SVG scatter")
    p.add_argument("csv")
    p.add_argument("--x", required=True, help="x column name")
    p.add_argument("--y", required=True, help="y column name")
    p.add_argument("--out", required=True, help="output .svg path")
    p.add_argument("--overlay", choices=("none", "bounds", "exact"), default="none")
    p.add_argument("--d", type=int, help="protocol dimension for overlay curves")
    p.add_argument("--m", type=int, help="settings count for overlay curves")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
