"""PageTable protocol conformance and the walk helpers."""

import pytest

from repro.core import LearnedIndex
from repro.mem.allocator import BumpAllocator
from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import fragment_to_max_contiguity
from repro.pagetables import (
    ECPT,
    FlattenedPageTable,
    HashedPageTable,
    IdealPageTable,
    PageTable,
    RadixPageTable,
    walk_serial_length,
    walk_traffic,
)
from repro.types import PTE, AccessKind, PageSize, WalkAccess, WalkResult


def unfolded_fpt():
    """An FPT whose folds all fail: every level is a 4 KB table pair."""
    buddy = BuddyAllocator(64 << 20)
    fragment_to_max_contiguity(buddy, 256 << 10)
    table = FlattenedPageTable(buddy)
    assert table.fold_success_rate == 0.0
    return table


ALL_TABLES = [
    lambda: RadixPageTable(BumpAllocator()),
    lambda: HashedPageTable(BumpAllocator()),
    lambda: ECPT(BumpAllocator(), initial_size=64),
    lambda: FlattenedPageTable(BumpAllocator()),
    lambda: IdealPageTable(BumpAllocator()),
    lambda: LearnedIndex(BumpAllocator()),
]


class TestProtocolConformance:
    def test_all_schemes_satisfy_protocol(self):
        for factory in ALL_TABLES:
            table = factory()
            assert isinstance(table, PageTable), type(table)

    def test_table_bytes_nonnegative(self):
        for factory in ALL_TABLES:
            table = factory()
            table.map(PTE(vpn=1, ppn=1))
            assert table.table_bytes >= 0

    @pytest.mark.parametrize("factory", ALL_TABLES + [unfolded_fpt])
    def test_mappings_lists_each_translation_once_in_vpn_order(self, factory):
        table = factory()
        vpns = [0x40000, 7, 0x3FFFF, 1 << 27, 0x2000, 8]
        for vpn in vpns:
            table.map(PTE(vpn=vpn, ppn=vpn + 3))
        huge = PTE(vpn=0x600, ppn=0x800, page_size=PageSize.SIZE_2M)
        table.map(huge)
        table.unmap(0x2000)
        listed = table.mappings()
        assert [p.vpn for p in listed] == [7, 8, 0x600, 0x3FFFF, 0x40000, 1 << 27]
        assert listed[2] is table.find(0x7FF) is huge


class TestWalkHelpers:
    def test_walk_traffic_counts_accesses(self):
        result = WalkResult(None, [
            WalkAccess(0, AccessKind.PT_NODE, level=4),
            WalkAccess(8, AccessKind.PT_LEAF, level=1),
        ])
        assert walk_traffic(result) == 2

    def test_serial_length_collapses_parallel_groups(self):
        result = WalkResult(None, [
            WalkAccess(0, AccessKind.PT_LEAF, level=1, parallel_group=0),
            WalkAccess(8, AccessKind.PT_LEAF, level=1, parallel_group=0),
            WalkAccess(16, AccessKind.PT_LEAF, level=1, parallel_group=0),
            WalkAccess(99, AccessKind.CWT, level=5),
        ])
        # Three parallel probes = one serial step; CWT = another.
        assert walk_serial_length(result) == 2
        assert walk_traffic(result) == 4

    def test_radix_walk_is_fully_serial(self):
        table = RadixPageTable(BumpAllocator())
        table.map(PTE(vpn=7, ppn=7))
        result = table.walk(7)
        assert walk_serial_length(result) == walk_traffic(result) == 4

    def test_ecpt_walk_parallelism(self):
        table = ECPT(BumpAllocator(), initial_size=64)
        table.map(PTE(vpn=7, ppn=7))
        result = table.walk(7)
        assert walk_traffic(result) > walk_serial_length(result)
