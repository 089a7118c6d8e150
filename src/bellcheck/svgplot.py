"""Standalone SVG scatter plots for experiment CSV outputs.

No rendering dependency: output is deterministic text, so plots diff
cleanly in tests and version control.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

Overlay = tuple[str, Sequence[float], Sequence[float]]

_WIDTH, _HEIGHT = 640, 480
_ML, _MR, _MT, _MB = 64, 20, 34, 48
_POINT_COLOR = "#4477aa"
_OVERLAY_COLORS = ("#cc3311", "#ee7733", "#009988", "#997700")
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # names and labels


def _read_columns(
    csv_path: str | Path, x_col: str, y_col: str
) -> tuple[np.ndarray, np.ndarray]:
    """The plotted columns as arrays of finite floats, read by ``csv.DictReader``'s
    rules: blank rows are skipped, a missing cell reads as None and a repeated
    header name reads its last column; a file that is not UTF-8 or not CSV is
    refused by name."""
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for col in (x_col, y_col):
                if col not in header:
                    raise ValueError(f"column {col!r} not in {csv_path} (columns: {header})")
            ix, iy = (len(header) - 1 - header[::-1].index(col) for col in (x_col, y_col))
            xs: list[float] = []
            ys: list[float] = []
            for number, row in enumerate(filter(None, reader), start=1):
                try:
                    x, y = float(row[ix]), float(row[iy])
                except (IndexError, ValueError):
                    x = y = math.nan
                if not (math.isfinite(x) and math.isfinite(y)):
                    _refuse_row(row, ((x_col, ix), (y_col, iy)), number, csv_path)
                xs.append(x)
                ys.append(y)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"cannot read {csv_path}: {exc}") from None
    return np.array(xs, dtype=float), np.array(ys, dtype=float)


def _refuse_row(
    row: list[str], columns: Iterable[tuple[str, int]], number: int, csv_path: str | Path
) -> None:
    """ValueError naming the first of ``columns`` (name, index) whose cell is not
    a finite number, with its data row (from 1)."""
    for col, index in columns:
        cell = row[index] if index < len(row) else None
        try:
            value = float(cell)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(
                f"{csv_path}: row {number}, column {col!r}: {cell!r} is not a finite number"
            )


def _padded_range(values: np.ndarray) -> tuple[float, float]:
    if not values.size:
        return 0.0, 1.0
    lo, hi = float(values.min()), float(values.max())
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
    overlays = [(label, np.asarray(ox, dtype=float), np.asarray(oy, dtype=float))
                for label, ox, oy in overlays]
    x_lo, x_hi = _padded_range(np.concatenate([xs, *(ox for _, ox, _ in overlays)]))
    y_lo, y_hi = _padded_range(np.concatenate([ys, *(oy for _, _, oy in overlays)]))

    # pixel coordinates of a float or, with the same operations in the same order,
    # of a float array
    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_WIDTH - _ML - _MR)

    def py(v):
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
        f'font-family="sans-serif" font-size="12">{x_col.translate(_TEXT_ESCAPES)}</text>',
        f'<text x="16" y="{(_MT + _HEIGHT - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _HEIGHT - _MB) / 2:.1f})">'
        f'{y_col.translate(_TEXT_ESCAPES)}</text>',
    ]
    circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{_POINT_COLOR}" fill-opacity="0.7"/>'
    parts += [circle % point for point in zip(px(xs).tolist(), py(ys).tolist())]
    for k, (label, ox, oy) in enumerate(overlays):
        color = _OVERLAY_COLORS[k % len(_OVERLAY_COLORS)]
        points = " ".join("%.2f,%.2f" % point for point in zip(px(ox).tolist(), py(oy).tolist()))
        parts += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>',
            f'<text x="{_WIDTH - _MR - 6}" y="{_MT + 16 + 14 * k}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">'
            f'{label.translate(_TEXT_ESCAPES)}</text>',
        ]
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")
