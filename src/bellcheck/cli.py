"""Command-line surface: compare two circuit files exactly or by sampling,
generate the bound-scatter and estimator-convergence datasets, run the
random-state concentration experiment, and render CSV files to SVG.

Exit codes: 0 success (or verdict EQUIVALENT), 1 verdict INEQUIVALENT,
2 usage, input or any other error.  Every randomized command echoes its
seed, so any output can be replayed; the BELLCHECK_SEED environment
variable supplies a default seed when --seed is omitted.  A compare command
prints each value of its --out row (COMPARE_HEADER); the mode's other cells are blank.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

from .bell import bell_value_gamma, lemma2_exceedance
from .circuit import (
    Circuit, CircuitParseError, circuit_unitary, cyclic_trim, integer_unitary, pair_circuit,
    parse_circuit,
)
from .distance import circuit_distance, distance_bounds_from_v, distance_from_embedded_v
from .sampling import ShotPlan, estimate_distance, plan_shots
from .tensor import (
    check_memory, check_params, check_positive, check_width, haar_orthogonal, integer,
    random_real_orthogonal, rng_stream, sample_blocks,
)

SEED_ENV_VAR = "BELLCHECK_SEED"

FIG1_HEADER = ["pair_id", "V", "D", "lower", "upper"]
FIG3_HEADER = ["pair_id", "n", "s", "V_hat", "D_true", "D_est"]
LEMMA2_HEADER = ["sample_id", "V"]
COMPARE_HEADER = [
    "circuit_a", "circuit_b", "mode", "d", "m", "s", "seed",
    "V", "I_prime", "D", "lower", "upper", "verdict",
]


def _cell_format(value) -> str:
    """The locale-independent %-format of one printed or CSV cell: text as it is,
    integers in full, and every other number to 12 significant digits."""
    if isinstance(value, str):
        return "%s"
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%.12g"


def _fmt(value) -> str:
    """One cell as text, by ``_cell_format``."""
    return _cell_format(value) % (value,)


def _quote(text: str) -> str:
    """A CSV text cell: quoted, with inner quotes doubled, when it holds a comma,
    a double quote or a line break (RFC 4180); else as it is."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write each row as it arrives, so memory does not grow with the row count.

    Every row has the cell types of the first, which fix one %-template
    (``_cell_format``) for the call; only text cells pass through ``_quote``.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is None:
            return
        template = ",".join(map(_cell_format, first)) + "\n"
        rows = itertools.chain([first], rows)
        if any(isinstance(cell, str) for cell in first):
            rows = ([_quote(c) if isinstance(c, str) else c for c in row] for row in rows)
        out.writelines(template % tuple(row) for row in rows)


def _load_circuit(path: str, table: dict) -> Circuit:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read circuit file {path}: {exc}") from None
    try:
        return parse_circuit(text, table)
    except CircuitParseError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve_seed(args: argparse.Namespace) -> int:
    """--seed, else BELLCHECK_SEED, else a fresh seed; a given seed is a non-negative
    integer, the variable's text read by ``integer`` as --seed's is."""
    source, value = "--seed", args.seed
    if value is None:
        source, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR)
    if value is None:
        return int.from_bytes(os.urandom(4), "big")
    try:
        if (seed := integer(str(value))) >= 0:
            return seed
    except ValueError:
        pass
    raise ValueError(f"{source} must be a non-negative integer, got {value!r}")


def _load_pair(args: argparse.Namespace) -> tuple[int, Circuit]:
    """(n, pair): both circuit files parsed, their widths matched; ``pair`` is W = U1 U2^T's,
    adjacent equal gates cancelled.  The files share one gate-line table for this request,
    so a line both hold is read once."""
    table: dict = {}
    c1, c2 = _load_circuit(args.circuit_a, table), _load_circuit(args.circuit_b, table)
    n = c1.n_qubits
    if c2.n_qubits != n:
        raise ValueError(
            f"circuit widths differ: {args.circuit_a} has {n} qubits, "
            f"{args.circuit_b} has {c2.n_qubits}"
        )
    return n, pair_circuit(c1, c2)


def _show_comparison(args: argparse.Namespace, n: int, mode: str, d: int, record: dict,
                     labels: Mapping[str, str] = {}, notes: Sequence[str] = ()) -> None:
    """Print a comparison, then write it to ``--out`` as one row built by column name.

    ``record`` maps the ``COMPARE_HEADER`` columns its mode gives to their values, printed
    in its order as ``name = value`` (``labels`` renames a name); the other cells are blank.
    ``notes`` print last: every line is out before ``--out`` is opened."""
    lines = [f"circuits: {args.circuit_a} vs {args.circuit_b} ({n} qubit(s))",
             f"mode = {mode}, d = {d}, m = {args.m}"]
    lines += [f"{labels.get(column, column)} = {_fmt(value)}" for column, value in record.items()]
    print(*lines, *notes, sep="\n")
    if args.out:
        row = {"circuit_a": args.circuit_a, "circuit_b": args.circuit_b,
               "mode": mode, "d": d, "m": args.m, **record}
        _write_csv(args.out, COMPARE_HEADER, [[row.get(column, "") for column in COMPARE_HEADER]])


def cmd_compare_exact(args: argparse.Namespace) -> int:
    m = args.m
    mode = "embedded" if args.embedded else "raw"
    n, pair = _load_pair(args)
    check_width(f"{n}-qubit {mode} comparison", n)
    d = 4**n if args.embedded else 2**n
    check_params(d, m)
    # Peaks traced with tracemalloc, one cold request in a fresh process: a fixed cost (the
    # parser, the gate actions, numpy's first calls) of 0.39 MB at n = 6 (counted as 1 MiB),
    # then the integer matrix S and the synthesis temporaries, from whose diagonal sums V is
    # read, at 1.8 complex values per amplitude at n = 8 and 1.5 at n = 10 (counted as 2)
    check_memory(f"{n}-qubit {mode} comparison", 2**20 + 16 * 2 * 4**n)
    # W = S 2^(-h/2): Tr(W, o)^2 / 4^n = Tr(S, o)^2 / scale.  Embedded mode reads only Tr W,
    # which the cyclic trim keeps; raw mode reads every diagonal of W, which it does not
    s, h = integer_unitary(cyclic_trim(pair) if args.embedded else pair)
    scale, trace = 2**h * 4**n, int(np.trace(s))
    # I' = sum over diagonals o of Tr(W, o)^2 / 4^n: the embedded CZ signs cancel every
    # layout row but the trace's, and the raw grid W / sqrt(d) puts diagonal o on row o mod d
    squares = sum(int(np.trace(s, o)) ** 2 for o in range(1 - d, d)) if mode == "raw" else trace**2
    # exact integer ratios, each rounded once; D^2 = 1 - trace^2 / scale is 0 iff equivalent
    v = m * (d * squares - scale) / scale
    bounds = {} if args.embedded else vars(distance_bounds_from_v(v, d, m))  # lower, upper
    record = {"V": v, "I_prime": squares / scale,
              "D": ((scale - trace**2) / scale) ** 0.5, **bounds}
    equivalent = trace**2 == scale
    record["verdict"] = "EQUIVALENT" if equivalent else "INEQUIVALENT"
    _show_comparison(args, n, mode, d, record)
    return 0 if equivalent else 1


def cmd_compare_sampled(args: argparse.Namespace) -> int:
    m = args.m
    n, pair = _load_pair(args)
    check_width(f"{n}-qubit sampled comparison", n)
    d = 4**n
    check_params(d, m)
    if args.shots is not None:
        if args.epsilon is not None or args.delta is not None:
            raise ValueError("give either --shots or --epsilon/--delta, not both")
        plan = ShotPlan(s=args.shots)
    elif args.epsilon is None or args.delta is None:
        raise ValueError("need --shots, or both --epsilon and --delta")
    else:
        plan = plan_shots(args.epsilon, args.delta)
    seed = _resolve_seed(args)
    # Every gate is real, so W = U1 U2^T and the states built from it stay real arrays.
    # Peaks traced with tracemalloc, one cold request in a fresh process: a fixed cost of
    # 0.39 MB at n = 6 (counted as 1 MiB); the 8^n-entry layout of the embedded pair and
    # its working copies at 3.6 complex values per entry at n = 7, m = 3 (counted as 5);
    # and per each of the 2m branches, the rows of the (2m, d) class-law, cell-law and
    # count tables and the branch's label and tally at 24 d + 82 bytes at n = 1, m = 4,000
    # (counted as 24 d + 1024).  The rounds add nothing that grows with s: their cell
    # counts are drawn directly, and ``ShotPlan`` refuses a shot count int64 cannot hold.
    check_memory(f"{n}-qubit sampled comparison",
                 2**20 + 16 * 5 * 8**n + 2 * m * (24 * d + 1024))
    report = estimate_distance(circuit_unitary(pair), m, plan, seed)
    tallies = ", ".join(f"{k}={v}" for k, v in report.setting_tallies.items())
    if args.shots is None:
        print(f"planned shots: s = {plan.s} (epsilon={_fmt(args.epsilon)}, delta={_fmt(args.delta)})")
    _show_comparison(
        args, n, "embedded", d,
        {"s": report.s, "seed": seed, "I_prime": report.x, "D": report.distance_estimate},
        labels={"I_prime": "X", "D": "distance_estimate"}, notes=[f"setting_tallies: {tallies}"],
    )
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    check_positive("sample", args.samples)
    seed = _resolve_seed(args)
    rng = rng_stream(seed)
    d, m = 4, 2

    def rows():
        for start, stop in sample_blocks(args.samples, d * d):
            pairs = random_real_orthogonal(d, rng, (stop - start, 2))
            u1, u2 = pairs[:, 0], pairs[:, 1]
            if args.include_equal_pair and start == 0:
                u2[0] = u1[0]
            w = u1 @ u2.mT
            v = bell_value_gamma(w.reshape(-1, d * d) / np.sqrt(d), d, m)
            bounds = distance_bounds_from_v(v, d, m)
            columns = zip(v, circuit_distance(w), bounds.lower, bounds.upper)
            yield from ((start + j, *cells) for j, cells in enumerate(columns))

    _write_csv(args.out, FIG1_HEADER, rows())
    print(f"wrote {args.samples} pairs to {args.out} (d={d}, m={m}, seed={seed})")
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    check_positive("sample", args.samples)
    seed = _resolve_seed(args)
    m = 2
    dim = 2**args.n
    d = dim * dim
    plan = ShotPlan(s=args.shots)
    # one block's arrays, traced (tracemalloc, a warm n = 3 request of 200 samples) at
    # 0.83 MB (counted as 1 MiB), and the 8-byte error of each sample, for the RMS error
    check_memory(f"fig3 at n={args.n} with {args.samples} samples", 2**20 + 8 * args.samples)
    errors = np.empty(args.samples)

    def rows():
        # a pair's layout has 8^n entries; pair j draws its Gaussian pair, then
        # its estimation seed, from its own stream, and the math between is stacked
        for start, stop in sample_blocks(args.samples, d * dim):
            gauss = np.empty((stop - start, 2, dim, dim))
            seeds = np.empty(stop - start, dtype=np.int64)
            for j in range(start, stop):
                rng = rng_stream(seed, stream_id=j + 1)
                rng.standard_normal(out=gauss[j - start])
                seeds[j - start] = rng.integers(1 << 63)
            pairs = haar_orthogonal(gauss)
            w = pairs[:, 0] @ pairs[:, 1].mT
            d_true = circuit_distance(w)
            report = estimate_distance(w, m, plan, seeds)
            v_hat = d * m * report.x - m
            errors[start:stop] = report.distance_estimate - d_true
            columns = zip(v_hat, d_true, report.distance_estimate)
            yield from ((start + j, args.n, args.shots, *cells)
                        for j, cells in enumerate(columns))

    _write_csv(args.out, FIG3_HEADER, rows())
    rms = float(np.sqrt(np.mean(np.square(errors))))
    print(
        f"wrote {args.samples} pairs to {args.out} "
        f"(n={args.n}, s={args.shots}, m={m}, seed={seed}, rms_error={_fmt(rms)})"
    )
    return 0


def cmd_lemma2(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    # one real d^2-amplitude state and its working copies, traced (tracemalloc, one cold
    # request in a fresh process) at 1.6 complex values per amplitude at d = 1024 (counted
    # as 4; a block of smaller states holds at most 2^13 amplitudes), and 8 bytes of
    # ``values`` per sample
    check_memory(f"lemma2 at d={args.d} with {args.samples} samples",
                 64 * args.d**2 + 8 * args.samples)
    rng = rng_stream(seed)
    bound, fraction, values = lemma2_exceedance(args.d, args.m, args.delta, args.samples, rng)
    _write_csv(args.out, LEMMA2_HEADER, enumerate(values))
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
        # spanned in floats: an m or d past int64 would give numpy an object array
        try:
            span = -float(m), float(m * (d - 1))
        except OverflowError:
            raise ValueError("--m and --d give a Bell-value range [-m, m(d - 1)] "
                             "past the float range") from None
        vs = np.linspace(*span, 200)
        if args.overlay == "bounds":
            bounds = distance_bounds_from_v(vs, d, m)
            overlays = [("lower bound", vs, bounds.lower), ("upper bound", vs, bounds.upper)]
        else:
            overlays = [("exact distance", vs, distance_from_embedded_v(vs, d, m))]
    from .svgplot import emit_svg_scatter  # only plot reads it: compare-* never loads it

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

    seed = argparse.ArgumentParser(add_help=False)  # shared options, one parent parser each
    seed.add_argument("--seed", type=integer,
                      help=f"non-negative seed (default: ${SEED_ENV_VAR}, else a fresh one)")
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--m", type=integer, default=2,
                          help="number of measurement settings (>= 2)")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("circuit_a")
    pair.add_argument("circuit_b")
    pair.add_argument("--out", help="optional CSV row output path")
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--samples", type=integer, required=True)
    dataset.add_argument("--out", required=True)
    slow = ("slower if TOFFOLI gates keep an odd entry past 2n + h = 124, h the number of H gates"
            " left after cancellation")

    p = sub.add_parser("compare-exact", parents=[pair, settings], help="exact Bell value, "
                       f"distance, and verdict in integer arithmetic ({slow})")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--raw", dest="embedded", action="store_false",
                      help="compare as-is and report sandwich bounds (default)")
    mode.add_argument("--embedded", dest="embedded", action="store_true",
                      help="apply the ancilla-doubling embedding for exact readout")
    p.set_defaults(embedded=False, func=cmd_compare_exact)

    p = sub.add_parser("compare-sampled", parents=[pair, settings, seed],
                       help=f"finite-shot distance estimate (embedded; {slow})")
    p.add_argument("--shots", type=integer, help="shot count s")
    p.add_argument("--epsilon", type=float, help="target additive error (with --delta)")
    p.add_argument("--delta", type=float, help="failure probability (with --epsilon)")
    p.set_defaults(func=cmd_compare_sampled)

    p = sub.add_parser("fig1", parents=[dataset, seed],
                       help="bound scatter for random pairs at d=4, m=2")
    p.add_argument("--include-equal-pair", action="store_true",
                   help="plant one identical pair to cover the maximal-violation corner")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig3", parents=[dataset, seed],
                       help="estimator convergence scatter (embedded protocol)")
    p.add_argument("--n", type=integer, choices=(1, 2, 3), required=True)
    p.add_argument("--shots", type=integer, choices=(100, 1000, 10000), required=True)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("lemma2", parents=[settings, dataset, seed],
                       help="random-state concentration experiment")
    p.add_argument("--d", type=integer, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("plot", help="render a CSV to a standalone SVG scatter")
    p.add_argument("csv")
    p.add_argument("--x", required=True, help="x column name")
    p.add_argument("--y", required=True, help="y column name")
    p.add_argument("--out", required=True, help="output .svg path")
    p.add_argument("--overlay", choices=("none", "bounds", "exact"), default="none")
    p.add_argument("--d", type=integer, help="protocol dimension for overlay curves")
    p.add_argument("--m", type=integer, help="settings count for overlay curves")
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
