"""Correctness gate: every output the benchmark times is checked here.

Each check returns a list of reasons; an empty list means the request
passed.  References come from the benchmark's own oracle (``pairs``) and
from the paper's closed-form bounds, never from the code under test.
"""

from __future__ import annotations

import csv
import io
import math

from pairs import Pair

# |D^2 - D_ref^2| allowed per unit of d.  D itself is not compared: an
# equal-up-to-phase pair reads D ~ 3e-8, the square root of rounding error.
D2_TOL_PER_DIM = 1e-10
BOUND_TOL = 1e-9


def rows(csv_text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _single_row(csv_text: str, reasons: list[str]) -> dict[str, str] | None:
    table = rows(csv_text)
    if len(table) != 1:
        reasons.append(f"expected one CSV row, got {len(table)}")
        return None
    return table[0]


def _check_shape(row: dict[str, str], d: int, m: int, reasons: list[str]) -> None:
    if (row.get("d"), row.get("m")) != (str(d), str(m)):
        reasons.append(f"row has d={row.get('d')}, m={row.get('m')}; want d={d}, m={m}")


def expected_verdict(pair: Pair) -> str:
    return "EQUIVALENT" if pair.equivalent else "INEQUIVALENT"


def check_exact(code: int, csv_text: str, pair: Pair, d: int, m: int) -> list[str]:
    """compare-exact --embedded: exit code, verdict and D^2 against the oracle."""
    reasons: list[str] = []
    want_code = 0 if pair.equivalent else 1
    if code != want_code:
        reasons.append(f"exit code {code}, reference implies {want_code}")
    row = _single_row(csv_text, reasons)
    if row is None:
        return reasons
    _check_shape(row, d, m, reasons)
    if row.get("verdict") != expected_verdict(pair):
        reasons.append(f"verdict {row.get('verdict')}, reference implies {expected_verdict(pair)}")
    try:
        d2 = float(row["D"]) ** 2
    except (KeyError, ValueError):
        return reasons + [f"unreadable D {row.get('D')!r}"]
    if not abs(d2 - float(pair.d2_ref)) <= D2_TOL_PER_DIM * d:
        reasons.append(f"D^2 = {d2!r}, reference {float(pair.d2_ref)!r}")
    return reasons


def check_sampled(
    code: int, csv_text: str, pair: Pair, d: int, m: int, s: int, epsilon: float
) -> list[str]:
    """compare-sampled: the estimate X of I' = 1 - D_ref^2 lies within epsilon."""
    reasons: list[str] = []
    if code != 0:
        reasons.append(f"exit code {code}, want 0")
    row = _single_row(csv_text, reasons)
    if row is None:
        return reasons
    _check_shape(row, d, m, reasons)
    if row.get("s") != str(s):
        reasons.append(f"ran s={row.get('s')} rounds, planned {s}")
    try:
        x = float(row["I_prime"])
    except (KeyError, ValueError):
        return reasons + [f"unreadable X {row.get('I_prime')!r}"]
    if not abs(x - (1 - float(pair.d2_ref))) <= epsilon:
        reasons.append(f"X = {x!r}, reference I' = {1 - float(pair.d2_ref)!r}, epsilon {epsilon}")
    return reasons


def sampled_verdict(x: float, epsilon: float) -> str:
    """Whether an estimate is consistent with equivalence at accuracy epsilon."""
    return "EQUIVALENT" if x >= 1.0 - epsilon else "INEQUIVALENT"


def check_fig1(code: int, csv_text: str, samples: int, d: int, m: int) -> list[str]:
    """Row count, and lower <= D <= upper with bounds recomputed from V."""
    reasons = [] if code == 0 else [f"fig1 exit code {code}"]
    table = rows(csv_text)
    if len(table) != samples:
        reasons.append(f"fig1 wrote {len(table)} rows, want {samples}")
    for row in table:
        v, dist = float(row["V"]), float(row["D"])
        lower = math.sqrt(min(1.0, max(0.0, 1.0 - (v + m) / (m * d))))
        upper = math.sqrt(min(1.0, max(0.0, 1.0 - (v - m * (d - 2)) / m)))
        printed = (float(row["lower"]), float(row["upper"]))
        if abs(printed[0] - lower) > BOUND_TOL or abs(printed[1] - upper) > BOUND_TOL:
            reasons.append(f"fig1 pair {row['pair_id']}: bounds {printed}, want {(lower, upper)}")
        if not lower - BOUND_TOL <= dist <= upper + BOUND_TOL:
            reasons.append(f"fig1 pair {row['pair_id']}: D = {dist} outside [{lower}, {upper}]")
    return reasons


def check_plot(code: int, svg_text: str | None, points: int, overlays: int) -> list[str]:
    if code != 0:
        return [f"plot exit code {code}"]
    if svg_text is None or not svg_text.rstrip().endswith("</svg>"):
        return ["plot wrote no complete SVG"]
    reasons = []
    if svg_text.count("<circle") != points:
        reasons.append(f"SVG has {svg_text.count('<circle')} points, want {points}")
    if svg_text.count("<polyline") != overlays:
        reasons.append(f"SVG has {svg_text.count('<polyline')} overlay curves, want {overlays}")
    return reasons


def check_fig3(code: int, csv_text: str, samples: int, n: int, shots: int) -> list[str]:
    reasons = [] if code == 0 else [f"fig3 exit code {code}"]
    table = rows(csv_text)
    if len(table) != samples:
        reasons.append(f"fig3 wrote {len(table)} rows, want {samples}")
    for row in table:
        if (row["n"], row["s"]) != (str(n), str(shots)):
            reasons.append(f"fig3 pair {row['pair_id']}: n={row['n']}, s={row['s']}")
        if not (0.0 <= float(row["D_true"]) <= 1.0 and 0.0 <= float(row["D_est"]) <= 1.0):
            reasons.append(f"fig3 pair {row['pair_id']}: distance outside [0, 1]")
    return reasons


def check_lemma2(
    code: int, stdout: str, csv_text: str, samples: int, d: int, m: int, delta: float
) -> list[str]:
    """The printed fraction equals the one recomputed from the CSV values."""
    reasons = [] if code == 0 else [f"lemma2 exit code {code}"]
    printed = dict(
        line.split(" = ", 1) for line in stdout.splitlines() if " = " in line
    )
    bound = m * math.sqrt(4.0 / (3.0 * d * delta))
    try:
        printed_bound = float(printed["bound"])
        printed_fraction = float(printed["exceedance_fraction"])
    except (KeyError, ValueError):
        return reasons + ["lemma2 did not print bound and exceedance_fraction"]
    if abs(printed_bound - bound) > BOUND_TOL * bound:
        reasons.append(f"lemma2 bound {printed_bound}, want {bound}")
    values = [float(row["V"]) for row in rows(csv_text)]
    if len(values) != samples:
        return reasons + [f"lemma2 wrote {len(values)} rows, want {samples}"]
    fraction = sum(v > bound for v in values) / samples
    if abs(printed_fraction - fraction) > BOUND_TOL:
        reasons.append(f"lemma2 fraction {printed_fraction}, CSV gives {fraction}")
    return reasons
