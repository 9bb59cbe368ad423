"""Tests for spline-point estimation (cost-model seed)."""

import random
from typing import List, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.spline import num_segments, spline_points


def _spline_points_loop(keys: Sequence[int], max_error: int = 32) -> List[int]:
    """The one-key-at-a-time shrinking cone that the chunked NumPy
    version replaced: the reference.  Slopes are Python ``int / int``
    divisions, correctly rounded; NumPy's are float64 divisions of the
    same integers, exact in float64 because keys stay below 2**35."""
    n = len(keys)
    if n == 0:
        return []
    if n <= 2:
        return [0] if n == 1 else [0, n - 1]
    knots = [0]
    anchor_idx = 0
    anchor_key = keys[0]
    lo_slope = float("-inf")
    hi_slope = float("inf")
    for i in range(1, n):
        dx = keys[i] - anchor_key
        dy = i - anchor_idx
        if dx == 0:
            continue
        cand_lo = (dy - max_error) / dx
        cand_hi = (dy + max_error) / dx
        new_lo = max(lo_slope, cand_lo)
        new_hi = min(hi_slope, cand_hi)
        if new_lo > new_hi:
            knots.append(i - 1)
            anchor_idx = i - 1
            anchor_key = keys[i - 1]
            dx = keys[i] - anchor_key
            if dx > 0:
                lo_slope = (1 - max_error) / dx
                hi_slope = (1 + max_error) / dx
            else:
                lo_slope, hi_slope = float("-inf"), float("inf")
        else:
            lo_slope, hi_slope = new_lo, new_hi
    if knots[-1] != n - 1:
        knots.append(n - 1)
    return knots


class TestMatchesLoop:
    """The chunked cone places exactly the loop's knots."""

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            # Repeated keys (clamped rebased keys), dense runs, jumps.
            st.sampled_from([0, 1, 1, 1, 2, 3, 7, 64, 1000, 1 << 20]),
            min_size=0,
            max_size=400,
        ),
        start=st.integers(min_value=0, max_value=(1 << 35) - (1 << 30)),
        max_error=st.sampled_from([1, 2, 4, 16, 32, 100]),
    )
    def test_matches_loop(self, steps, start, max_error):
        keys, cursor = [], start
        for step in steps:
            cursor += step
            keys.append(cursor)
        assert spline_points(keys, max_error) == _spline_points_loop(keys, max_error)
        assert spline_points(np.array(keys, dtype=np.int64), max_error) == \
            _spline_points_loop(keys, max_error)

    def test_large_mixed_key_set(self):
        """Tens of thousands of keys: many chunks, short and long
        segments, near the top of the VPN range."""
        rng = random.Random(7)
        keys, cursor = [], (1 << 35) - (1 << 28)
        for _ in range(40):
            run = rng.choice([40, 500, 5000])
            stride = rng.choice([1, 1, 2, 3])
            for _ in range(run):
                keys.append(cursor)
                cursor += stride + (rng.random() < 0.05) * rng.randrange(100)
            cursor += rng.choice([0, 300, 1 << 16])
        for max_error in (4, 32):
            assert spline_points(keys, max_error) == _spline_points_loop(keys, max_error)


class TestSplinePoints:
    def test_empty(self):
        assert spline_points([]) == []

    def test_single(self):
        assert spline_points([5]) == [0]

    def test_pair(self):
        assert spline_points([5, 10]) == [0, 1]

    def test_straight_line_one_segment(self):
        keys = list(range(0, 10_000, 3))
        assert num_segments(keys) == 1

    def test_two_dense_segments_with_gap(self):
        keys = list(range(1000)) + list(range(10 ** 7, 10 ** 7 + 1000))
        assert num_segments(keys, max_error=8) >= 2

    def test_knots_start_and_end(self):
        keys = list(range(500))
        pts = spline_points(keys)
        assert pts[0] == 0
        assert pts[-1] == len(keys) - 1

    def test_more_error_fewer_segments(self):
        keys = list(range(500)) + list(range(2000, 2500)) + list(range(9000, 9500))
        loose = num_segments(keys, max_error=1000)
        tight = num_segments(keys, max_error=4)
        assert loose <= tight

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 30),
            min_size=3,
            max_size=200,
            unique=True,
        )
    )
    def test_segments_bounded_by_keys_property(self, keys):
        keys.sort()
        segs = num_segments(keys, max_error=16)
        assert 1 <= segs <= len(keys)
