"""Tests for the sample statistics."""

import pytest

from repro.util.stats import gini


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_is_high(self):
        assert gini([0] * 99 + [100]) > 0.9

    @pytest.mark.parametrize("values,expected", [
        ((7,), 0.0),
        ((0, 1), 0.5),
        ((1, 2, 3, 4), 0.25),
        ((0, 0, 0, 10), 0.75),
    ])
    def test_known_values(self, values, expected):
        """Mean absolute difference over twice the mean, all pairs."""
        assert gini(values) == pytest.approx(expected)

    def test_invariant_under_order_and_scale(self):
        sample = [3.0, 0.0, 9.0, 1.0, 4.0]
        assert gini(sample[::-1]) == pytest.approx(gini(sample))
        assert gini([1e6 * v for v in sample]) == pytest.approx(gini(sample))

    def test_zero_sample(self):
        assert gini([0, 0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([-1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])
