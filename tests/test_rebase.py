"""Tests for ASLR rebasing (paper section 5.2).

The array forms (``rebase_array`` and the NumPy ``cluster_regions``)
are checked against the per-key loops they replaced.  Their int64
arithmetic cannot wrap: VPNs of 47-bit virtual addresses stay below
2**35, and region spans and compact bases below 2**40.
"""

from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rebase import (
    AddressSpaceRebaser,
    IdentityRebaser,
    cluster_regions,
)


class TestIdentity:
    def test_noop(self):
        r = IdentityRebaser()
        assert r.rebase(12345) == 12345
        assert r.in_headroom(1 << 40)
        vpns = np.array([3, 1 << 34], dtype=np.int64)
        assert r.rebase_array(vpns).tolist() == vpns.tolist()


class TestRebaser:
    def test_equal_slots(self):
        r = AddressSpaceRebaser([(1000, 100), (1 << 30, 5000)])
        assert r.regions[0].compact_base == 0
        assert r.regions[1].compact_base == r.slot_pages
        # Slot is a power of two covering the widest region + headroom.
        assert r.slot_pages & (r.slot_pages - 1) == 0
        assert r.slot_pages >= 5000 + AddressSpaceRebaser.DEFAULT_HEADROOM

    def test_rebase_within_region(self):
        r = AddressSpaceRebaser([(1000, 100), (1 << 30, 5000)])
        assert r.rebase(1000) == 0
        assert r.rebase(1050) == 50
        assert r.rebase((1 << 30) + 7) == r.slot_pages + 7

    def test_monotone_everywhere(self):
        r = AddressSpaceRebaser([(1000, 100), (1 << 30, 5000), (1 << 40, 10)])
        samples = [
            0, 999, 1000, 1099, 5000, (1 << 30) - 1, 1 << 30,
            (1 << 30) + 4999, (1 << 35), 1 << 40, (1 << 40) + 9, 1 << 45,
        ]
        rebased = [r.rebase(v) for v in samples]
        assert rebased == sorted(rebased)

    def test_headroom_detection(self):
        r = AddressSpaceRebaser([(1000, 100)])
        assert r.in_headroom(1000)
        assert r.in_headroom(1000 + 100 + 1000)  # within headroom
        assert not r.in_headroom(1000 + r.slot_pages)  # past the slot
        assert not r.in_headroom(0)  # below every region

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            AddressSpaceRebaser([(100, 50), (10, 5)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AddressSpaceRebaser([])

    def test_register_file(self):
        r = AddressSpaceRebaser([(1000, 100), (1 << 30, 200)])
        regs = r.register_file()
        assert regs == [(1000, 0), (1 << 30, r.slot_pages)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 35),
                st.integers(min_value=1, max_value=1 << 20),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_monotonicity_property(self, raw_regions):
        raw_regions.sort()
        regions = []
        prev_end = -1
        for start, span in raw_regions:
            if start <= prev_end:
                continue
            regions.append((start, span))
            prev_end = start + span - 1
        if not regions:
            return
        r = AddressSpaceRebaser(regions)
        probe = []
        for start, span in regions:
            probe += [start - 1, start, start + span - 1, start + span + 7]
        probe.sort()
        rebased = [r.rebase(max(0, v)) for v in probe]
        assert rebased == sorted(rebased)


def _region_layouts():
    """Sorted, disjoint (start, span) regions below 2**35."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 35) - (1 << 21)),
            st.integers(min_value=1, max_value=1 << 20),
        ),
        min_size=1,
        max_size=8,
    ).map(_disjoint)


def _disjoint(raw):
    regions, prev_end = [], -1
    for start, span in sorted(raw):
        if start > prev_end:
            regions.append((start, span))
            prev_end = start + span - 1
    return regions


class TestRebaseArray:
    """``rebase_array`` against the scalar ``rebase`` it replaced in the
    index build, VPN for VPN."""

    @settings(max_examples=100, deadline=None)
    @given(regions=_region_layouts(), data=st.data())
    def test_matches_scalar_rebase(self, regions, data):
        r = AddressSpaceRebaser(regions)
        probes = []
        for start, _span in regions:
            # Below the first region, at each start, inside the slot,
            # at the clamp and past it (clamped to the slot's end).
            probes += [
                max(0, start - 1), start, start + 1,
                start + r.slot_pages - r.GUARD - 1,
                start + r.slot_pages - r.GUARD,
                start + r.slot_pages + 12345,
            ]
        probes += data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << 35) - 1), max_size=30)
        )
        vpns = np.array(sorted(probes), dtype=np.int64)
        assert r.rebase_array(vpns).tolist() == [r.rebase(v) for v in vpns.tolist()]

    def test_below_first_region_and_past_the_clamp(self):
        r = AddressSpaceRebaser([(1000, 100), (1 << 30, 5000)])
        last = r.regions[0].alloc - 1
        vpns = [0, 999, 1000, 1000 + last, 1000 + last + 1, (1 << 30) - 1, 1 << 34]
        out = r.rebase_array(np.array(vpns, dtype=np.int64)).tolist()
        assert out == [r.rebase(v) for v in vpns]
        assert out[:2] == [-1000, -1]
        assert out[3] == out[4] == last
        assert out[5] == last


def _cluster_regions_loop(
    sorted_vpns: Sequence[int],
    spans: Sequence[int],
    max_regions: int = 8,
    gap_threshold: int = 256,
) -> List[Tuple[int, int]]:
    """The per-key ``cluster_regions`` the NumPy version replaced: the
    reference."""
    if not sorted_vpns:
        return []
    gaps: List[Tuple[int, int]] = []
    for i in range(1, len(sorted_vpns)):
        gap = sorted_vpns[i] - (sorted_vpns[i - 1] + spans[i - 1])
        if gap > gap_threshold:
            gaps.append((gap, i))
    gaps.sort(reverse=True)
    breaks = sorted(i for _, i in gaps[: max_regions - 1])
    regions: List[Tuple[int, int]] = []
    start_idx = 0
    for brk in breaks + [len(sorted_vpns)]:
        first = sorted_vpns[start_idx]
        last_end = sorted_vpns[brk - 1] + spans[brk - 1]
        regions.append((first, last_end - first))
        start_idx = brk
    return regions


class TestClusterRegionsMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                # Gaps around the threshold, equal gaps (ties), far jumps.
                st.sampled_from([0, 1, 255, 256, 257, 300, 300, 4096, 1 << 20, 1 << 30]),
                st.sampled_from([1, 1, 1, 512, 512 * 512]),
            ),
            min_size=1,
            max_size=60,
        ),
        max_regions=st.integers(min_value=1, max_value=10),
        gap_threshold=st.sampled_from([0, 256, 4096]),
    )
    def test_matches_loop(self, steps, max_regions, gap_threshold):
        vpns, spans, cursor = [], [], 0
        for gap, span in steps:
            cursor += gap
            vpns.append(cursor)
            spans.append(span)
            cursor += span
        expected = _cluster_regions_loop(vpns, spans, max_regions, gap_threshold)
        assert cluster_regions(vpns, spans, max_regions, gap_threshold) == expected
        assert cluster_regions(
            np.array(vpns, dtype=np.int64), np.array(spans, dtype=np.int64),
            max_regions, gap_threshold,
        ) == expected


class TestClusterRegions:
    def test_single_run(self):
        regions = cluster_regions([10, 11, 12], [1, 1, 1])
        assert regions == [(10, 3)]

    def test_splits_on_large_gap(self):
        vpns = [0, 1, 1 << 20, (1 << 20) + 1]
        regions = cluster_regions(vpns, [1, 1, 1, 1])
        assert len(regions) == 2
        assert regions[0] == (0, 2)

    def test_small_gaps_kept_together(self):
        vpns = [0, 10, 30]
        regions = cluster_regions(vpns, [1, 1, 1], gap_threshold=256)
        assert len(regions) == 1

    def test_caps_region_count(self):
        vpns = [i << 25 for i in range(20)]
        regions = cluster_regions(vpns, [1] * 20, max_regions=8)
        assert len(regions) == 8

    def test_huge_page_spans_counted(self):
        # Two huge pages back to back: no gap despite vpn distance.
        regions = cluster_regions([0, 512], [512, 512], gap_threshold=256)
        assert regions == [(0, 1024)]

    def test_empty(self):
        assert cluster_regions([], []) == []
