"""Standalone SVG scatter plots for experiment CSV outputs.

No rendering dependency: output is deterministic text, so plots diff
cleanly in tests and version control.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

Overlay = tuple[str, Sequence[float], Sequence[float]]

_WIDTH, _HEIGHT = 640, 480
_ML, _MR, _MT, _MB = 64, 20, 34, 48
_POINT_COLOR = "#4477aa"
_OVERLAY_COLORS = ("#cc3311", "#ee7733", "#009988", "#997700")


def _read_columns(csv_path: str | Path, x_col: str, y_col: str) -> tuple[list[float], list[float]]:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (x_col, y_col):
            if col not in header:
                raise ValueError(f"column {col!r} not in {csv_path} (columns: {header})")
        xs: list[float] = []
        ys: list[float] = []
        for number, row in enumerate(reader, start=1):
            xs.append(_finite_cell(row, x_col, number, csv_path))
            ys.append(_finite_cell(row, y_col, number, csv_path))
    return xs, ys


def _finite_cell(row: dict, col: str, number: int, csv_path: str | Path) -> float:
    """A plotted cell as a finite float, or ValueError naming its data row (from 1) and column."""
    try:
        value = float(row[col])
    except (TypeError, ValueError):  # a missing cell reads as None
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"{csv_path}: row {number}, column {col!r}: {row[col]!r} is not a finite number"
        )
    return value


def _padded_range(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if hi <= lo:
        return lo - 0.5, hi + 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def emit_svg_scatter(
    csv_path: str | Path,
    x_col: str,
    y_col: str,
    out_path: str | Path,
    overlays: Iterable[Overlay] = (),
) -> None:
    """Render one scatter plot (plus optional overlay polylines) to out_path.

    Overlays are (label, xs, ys) triples drawn as polylines and listed in a
    small legend.  An empty CSV (header only) still yields a valid plot
    with axes and no points.
    """
    xs, ys = _read_columns(csv_path, x_col, y_col)
    overlays = list(overlays)
    all_x = list(xs)
    all_y = list(ys)
    for _, ox, oy in overlays:
        all_x.extend(float(v) for v in ox)
        all_y.extend(float(v) for v in oy)
    x_lo, x_hi = _padded_range(all_x)
    y_lo, y_hi = _padded_range(all_y)

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_WIDTH - _ML - _MR)

    def py(v: float) -> float:
        return _HEIGHT - _MB - (v - y_lo) / (y_hi - y_lo) * (_HEIGHT - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_WIDTH - _ML - _MR}" height="{_HEIGHT - _MT - _MB}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts += [
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MB}" x2="{x:.2f}" y2="{_HEIGHT - _MB + 5}" '
            'stroke="#333333" stroke-width="1"/>',
            f'<text x="{x:.2f}" y="{_HEIGHT - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>',
        ]
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts += [
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            'stroke="#333333" stroke-width="1"/>',
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>',
        ]
    parts += [
        f'<text x="{(_ML + _WIDTH - _MR) / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_col}</text>',
        f'<text x="16" y="{(_MT + _HEIGHT - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _HEIGHT - _MB) / 2:.1f})">{y_col}</text>',
    ]
    parts += [f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
              f'fill="{_POINT_COLOR}" fill-opacity="0.7"/>' for x, y in zip(xs, ys)]
    for k, (label, ox, oy) in enumerate(overlays):
        color = _OVERLAY_COLORS[k % len(_OVERLAY_COLORS)]
        points = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(ox, oy))
        parts += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>',
            f'<text x="{_WIDTH - _MR - 6}" y="{_MT + 16 + 14 * k}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>',
        ]
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")
