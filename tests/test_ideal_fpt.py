"""Tests for the ideal page table and flattened page tables."""

import pytest

from repro.mem.allocator import BumpAllocator
from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import fragment_to_max_contiguity
from repro.pagetables.fpt import FlattenedPageTable
from repro.pagetables.ideal import IdealPageTable
from repro.types import PTE, PageSize, TranslationError


class TestIdeal:
    def test_single_access_always(self):
        table = IdealPageTable(BumpAllocator())
        for v in range(1000):
            table.map(PTE(vpn=v, ppn=v))
        for v in range(0, 1000, 37):
            result = table.walk(v)
            assert result.hit
            assert result.num_accesses == 1

    def test_huge_page_covering(self):
        table = IdealPageTable(BumpAllocator())
        pte = PTE(vpn=512, ppn=1, page_size=PageSize.SIZE_2M)
        table.map(pte)
        assert table.walk(512 + 300).pte is pte
        assert table.walk(511).pte is None

    def test_entries_densely_packed(self):
        table = IdealPageTable(BumpAllocator())
        table.map(PTE(vpn=0, ppn=0, page_size=PageSize.SIZE_2M))
        table.map(PTE(vpn=512, ppn=1, page_size=PageSize.SIZE_2M))
        a = table.walk(0).accesses[0].paddr
        b = table.walk(512).accesses[0].paddr
        assert b == a + 8  # one 8 B entry per mapping, adjacent

    def test_unmap_and_slot_reuse(self):
        table = IdealPageTable(BumpAllocator())
        table.map(PTE(vpn=1, ppn=1))
        paddr = table.walk(1).accesses[0].paddr
        table.unmap(1)
        assert not table.walk(1).hit
        table.map(PTE(vpn=2, ppn=2))
        assert table.walk(2).accesses[0].paddr == paddr

    def test_duplicate_rejected(self):
        table = IdealPageTable(BumpAllocator())
        table.map(PTE(vpn=1, ppn=1))
        with pytest.raises(TranslationError):
            table.map(PTE(vpn=1, ppn=2))

    def test_table_bytes_minimal(self):
        table = IdealPageTable(BumpAllocator())
        for v in range(512):
            table.map(PTE(vpn=v * 7, ppn=v))
        assert table.table_bytes == 512 * 8


class TestFPT:
    def test_folded_walk_two_accesses(self):
        table = FlattenedPageTable(BumpAllocator())
        pte = PTE(vpn=0x1234, ppn=9)
        table.map(pte)
        result = table.walk(0x1234)
        assert result.pte is pte
        assert result.num_accesses == 2  # L4+L3 folded, L2+L1 folded

    def test_huge_page(self):
        table = FlattenedPageTable(BumpAllocator())
        pte = PTE(vpn=1024, ppn=9, page_size=PageSize.SIZE_2M)
        table.map(pte)
        assert table.walk(1024 + 100).pte is pte

    def test_1g_rejected(self):
        table = FlattenedPageTable(BumpAllocator())
        with pytest.raises(TranslationError):
            table.map(PTE(vpn=0, ppn=0, page_size=PageSize.SIZE_1G))

    def test_unmap(self):
        table = FlattenedPageTable(BumpAllocator())
        table.map(PTE(vpn=7, ppn=7))
        table.unmap(7)
        assert not table.walk(7).hit

    def test_fragmentation_degrades_to_radix_walks(self):
        buddy = BuddyAllocator(64 << 20)
        fragment_to_max_contiguity(buddy, 256 << 10)
        table = FlattenedPageTable(buddy)
        pte = PTE(vpn=0x1234, ppn=9)
        table.map(pte)
        result = table.walk(0x1234)
        assert result.pte is pte
        # No 2 MB block available: folds failed, walk lengthens.
        assert result.num_accesses >= 3
        assert table.fold_success_rate < 1.0

    def test_fold_success_with_contiguity(self):
        table = FlattenedPageTable(BumpAllocator())
        table.map(PTE(vpn=1, ppn=1))
        assert table.fold_success_rate == 1.0

    def test_miss(self):
        table = FlattenedPageTable(BumpAllocator())
        table.map(PTE(vpn=1, ppn=1))
        assert not table.walk(99999999).hit
