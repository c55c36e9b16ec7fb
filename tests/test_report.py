"""Tests for the plain-text rendering module."""

import numpy as np
import pytest

from repro.report import (
    render_heatmap,
    render_histogram,
    render_series,
)


class TestRenderSeries:
    def test_renders_with_label_and_axes(self):
        out = render_series([(0, 10.0), (5, 5.0), (10, 1.0)], label="cost")
        assert out.startswith("cost")
        assert "*" in out
        assert "+" in out  # axis corner

    def test_single_point(self):
        out = render_series([(0, 1.0)])
        assert "*" in out

    def test_dimensions_respected(self):
        out = render_series([(0, 1.0), (1, 2.0)], width=20, height=5)
        chart_rows = [l for l in out.splitlines() if "|" in l]
        assert len(chart_rows) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_series([])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            render_series([(0, 1.0)], width=4)


class TestRenderHeatmap:
    def test_small_matrix_direct(self):
        m = np.array([[0.0, 1.0], [1.0, 10.0]])
        out = render_heatmap(m, label="tor")
        lines = out.splitlines()
        assert lines[0] == "tor"
        assert len(lines) == 4  # label + 2 rows + peak line
        assert "peak cell" in lines[-1]

    def test_downsampling_large_matrix(self):
        m = np.random.default_rng(0).random((96, 96))
        out = render_heatmap(m, max_cells=48)
        rows = [l for l in out.splitlines() if not l.startswith("(peak")]
        assert len(rows) == 48
        assert all(len(r) == 48 for r in rows)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros((2, 3)))

    def test_zero_matrix_renders_blanks(self):
        out = render_heatmap(np.zeros((3, 3)))
        assert set(out.splitlines()[0]) == {" "}


class TestRenderHistogram:
    def test_bucket_rows(self):
        out = render_histogram([1, 1, 2, 3, 3, 3], bins=3, width=10)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[-1].strip().endswith("3")  # heaviest bucket count

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_histogram([])
