"""Plain-text rendering of evaluation artifacts (no plotting dependencies).

The paper's figures are line plots, histograms and heatmaps; this module renders
terminal equivalents so examples and benches can *show* results, not just
print scalars:

* :func:`render_series` — a sparkline-style line chart of (t, value) series;
* :func:`render_heatmap` — a ToR traffic matrix as a shade-character grid
  (the Fig. 3a-c view);
* :func:`render_histogram` — a bucketed bar chart (the Fig. 5b view).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_SHADES = " .:-=+*#%@"


def _shade(value: float, maximum: float) -> str:
    if maximum <= 0:
        return _SHADES[0]
    index = int(round((len(_SHADES) - 1) * min(1.0, value / maximum)))
    return _SHADES[index]


def render_series(
    series: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 10,
    label: str = "",
) -> str:
    """Render a (t, value) series as an ASCII line chart."""
    if not series:
        raise ValueError("cannot render an empty series")
    if width < 8 or height < 3:
        raise ValueError("width must be >= 8 and height >= 3")
    times = np.array([t for t, _ in series], dtype=float)
    values = np.array([v for _, v in series], dtype=float)
    t_min, t_max = float(times.min()), float(times.max())
    v_min, v_max = float(values.min()), float(values.max())
    v_span = (v_max - v_min) or 1.0
    t_span = (t_max - t_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, v in zip(times, values):
        col = int((t - t_min) / t_span * (width - 1))
        row = int((v_max - v) / v_span * (height - 1))
        grid[row][col] = "*"
    lines = []
    if label:
        lines.append(label)
    for i, row in enumerate(grid):
        edge = v_max - i * v_span / (height - 1)
        lines.append(f"{edge:10.3g} |" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(" " * 12 + f"{t_min:<10.3g}" + " " * (width - 20) + f"{t_max:>10.3g}")
    return "\n".join(lines)


def render_heatmap(matrix: np.ndarray, max_cells: int = 48, label: str = "") -> str:
    """Render a square matrix as a shade-character heatmap.

    Large matrices are downsampled by block-summing to at most
    ``max_cells`` rows/columns, mirroring how a rendered heatmap bins
    pixels.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n > max_cells:
        factor = -(-n // max_cells)  # ceil division
        padded_size = factor * max_cells
        padded = np.zeros((padded_size, padded_size))
        padded[:n, :n] = m
        m = padded.reshape(
            max_cells, factor, max_cells, factor
        ).sum(axis=(1, 3))
        n = max_cells
    peak = float(m.max())
    lines = [label] if label else []
    for row in m:
        lines.append("".join(_shade(float(v), peak) for v in row))
    lines.append(f"(peak cell = {peak:.3g})")
    return "\n".join(lines)


def render_histogram(
    values: Sequence[float], bins: int = 8, width: int = 40, label: str = ""
) -> str:
    """Render a histogram as horizontal bars."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot render a histogram of an empty sample")
    counts, edges = np.histogram(arr, bins=bins)
    peak = counts.max() or 1
    lines = [label] if label else []
    for count, lo, hi in zip(counts, edges, edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"{lo:10.3g}-{hi:<10.3g} |{bar:<{width}}| {count}")
    return "\n".join(lines)
