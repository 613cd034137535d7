"""Deterministic SVG scatter plots for 2-D datasets.

Byte-for-byte reproducible: no timestamps, fixed float formatting, and marker
order fixed by the dataset (majority circles first, minority triangles above,
MeanShift center crosses last).
"""

from __future__ import annotations

import numpy as np

from .clustering import estimate_bandwidth, mean_shift
from .core import Dataset, ExampleKind, SkewbenchError, summarize

WIDTH = 800
HEIGHT = 600
MARGIN = 40

MAJORITY_COLOR = "#4477AA"
MINORITY_COLOR = "#EE6677"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Projection:
    def __init__(self, points: np.ndarray):
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = hi - lo
        pad = np.where(span > 0, 0.05 * span, 1.0)
        self.lo = lo - pad
        self.hi = hi + pad

    def __call__(self, p) -> tuple[float, float]:
        fx = (p[0] - self.lo[0]) / (self.hi[0] - self.lo[0])
        fy = (p[1] - self.lo[1]) / (self.hi[1] - self.lo[1])
        return (MARGIN + fx * (WIDTH - 2 * MARGIN),
                HEIGHT - MARGIN - fy * (HEIGHT - 2 * MARGIN))


def _triangle(x: float, y: float, color: str) -> str:
    return (f'<path d="M {_fmt(x)} {_fmt(y - 4.5)} L {_fmt(x - 4)} {_fmt(y + 3.5)} '
            f'L {_fmt(x + 4)} {_fmt(y + 3.5)} Z" fill="{color}"/>')


def _cross(x: float, y: float) -> str:
    return (f'<path class="center" d="M {_fmt(x - 6)} {_fmt(y)} L {_fmt(x + 6)} {_fmt(y)} '
            f'M {_fmt(x)} {_fmt(y - 6)} L {_fmt(x)} {_fmt(y + 6)}" '
            f'stroke="#000000" stroke-width="2" fill="none"/>')


def _kind_rings(x: float, y: float, kind: int) -> list[str]:
    if kind == int(ExampleKind.BORDERLINE):
        return [f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="7" fill="none" '
                f'stroke="{MINORITY_COLOR}" stroke-width="1" stroke-dasharray="3,2"/>']
    if kind == int(ExampleKind.RARE):
        return [f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="none" '
                f'stroke="{MINORITY_COLOR}" stroke-width="1"/>' for r in (7, 10)]
    return []


def scatter_svg(ds: Dataset, show_centers: bool = False, show_kinds: bool = False) -> str:
    """Render an 800x600 scatter; crosses mark MeanShift centers on request."""
    if ds.n == 0:
        raise SkewbenchError("cannot plot an empty dataset")
    if ds.d != 2:
        raise SkewbenchError("plotting requires 2-D data")
    s = summarize(ds)
    project = _Projection(ds.points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#FFFFFF"/>',
    ]
    minority_rows = []
    for i in range(ds.n):
        if ds.labels[i] == s.minority_label:
            minority_rows.append(i)
            continue
        x, y = project(ds.points[i])
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{MAJORITY_COLOR}"/>')
    for i in minority_rows:
        x, y = project(ds.points[i])
        if show_kinds and ds.kinds is not None:
            parts.extend(_kind_rings(x, y, int(ds.kinds[i])))
        parts.append(_triangle(x, y, MINORITY_COLOR))
    if show_centers:
        bandwidth = estimate_bandwidth(ds.points)
        for center in mean_shift(ds.points, bandwidth).centers:
            x, y = project(center)
            parts.append(_cross(x, y))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
