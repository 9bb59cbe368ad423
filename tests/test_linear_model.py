"""Tests for linear models and regression fitting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.cost_model import fit_keys, scale_model
from repro.core.linear_model import fit_even_division


def fit(keys):
    return fit_keys(np.array(keys, dtype=np.int64))


def max_abs_error(model, keys):
    """Largest |predicted - actual| position over the sorted keys."""
    return max(abs(model.predict(key) - pos) for pos, key in enumerate(keys))


class TestEvenDivision:
    def test_uniform_routing(self):
        model = fit_even_division(0, 100, 4)
        children = [model.predict(x) for x in range(100)]
        # Every child gets a contiguous quarter.
        assert children[0] == 0
        assert children[99] == 3
        assert sorted(set(children)) == [0, 1, 2, 3]

    def test_offset_range(self):
        model = fit_even_division(1000, 2000, 10)
        assert model.predict(1000) == 0
        assert model.predict(1999) == 9
        assert model.predict(1500) == 5

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            fit_even_division(10, 10, 2)

    def test_rejects_no_children(self):
        with pytest.raises(ValueError):
            fit_even_division(0, 10, 0)

    @given(
        st.integers(min_value=0, max_value=1 << 30),
        st.integers(min_value=2, max_value=1 << 20),
        st.integers(min_value=2, max_value=512),
    )
    def test_all_keys_route_in_range_property(self, lo, span, n):
        hi = lo + span
        n = min(n, span)
        model = fit_even_division(lo, hi, n)

        def lower_bound(index):
            # Smallest x the quantized model routes to >= index
            # (InternalNode.child_lower_bound's arithmetic).
            if index <= 0:
                return lo
            if model.slope_raw <= 0:
                return hi
            threshold = index << 20
            return -(-(threshold - model.intercept_raw) // model.slope_raw)

        for x in (lo, hi - 1, lo + span // 2):
            # What matters is that clamped routing stays in range and
            # agrees with the partition boundaries derived from the
            # same quantized model (build/lookup consistency).
            clamped = max(0, min(model.predict(x), n - 1))
            assert 0 <= clamped < n
            if clamped > 0:
                assert x >= lower_bound(clamped)
            if clamped < n - 1:
                assert x < lower_bound(clamped + 1)


class TestLeastSquares:
    def test_perfect_line(self):
        keys = list(range(100, 200))
        model = fit(keys)
        assert model.slope == pytest.approx(1.0, abs=1e-5)
        assert max_abs_error(model, keys) <= 1

    def test_strided_line(self):
        keys = list(range(0, 1000, 2))
        model = fit(keys)
        assert model.slope == pytest.approx(0.5, abs=1e-5)
        assert max_abs_error(model, keys) <= 1

    def test_single_key(self):
        model = fit([42])
        assert model.predict(42) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit([])

    def test_large_vpns_no_precision_loss(self):
        base = 0x7F00_0000_0  # large VPN (mmap region)
        keys = [base + i for i in range(1000)]
        model = fit(keys)
        assert max_abs_error(model, keys) <= 1

    def test_two_segments_has_error(self):
        keys = list(range(100)) + list(range(10_000, 10_100))
        model = fit(keys)
        assert max_abs_error(model, keys) > 10


class TestScaling:
    def test_scaled_stretches_predictions(self):
        model = fit(list(range(1000)))
        scaled = scale_model(model, 1.3)
        assert scaled.predict(999) == pytest.approx(1.3 * 999, abs=2)
