"""Tests for the OS layer: VMAs, THP policy, ASLR, process, and the LVM
page table the OS drives."""

import pytest

from repro.core import LearnedIndex
from repro.kernel.aslr import ASLRLayout
from repro.kernel.process import Process
from repro.kernel.thp import plan_vma_runs
from repro.kernel.vma import VMA, AddressSpace
from repro.mem.allocator import BumpAllocator
from repro.pagetables.radix import RadixPageTable
from repro.types import PTE, PageSize, Permission, TranslationError


class TestVMA:
    def test_mmap_find(self):
        space = AddressSpace()
        space.mmap(VMA(start_vpn=100, pages=50))
        assert space.find(120).start_vpn == 100
        assert space.find(99) is None
        assert space.find(150) is None

    def test_overlap_rejected(self):
        space = AddressSpace()
        space.mmap(VMA(start_vpn=100, pages=50))
        with pytest.raises(TranslationError):
            space.mmap(VMA(start_vpn=140, pages=5))
        with pytest.raises(TranslationError):
            space.mmap(VMA(start_vpn=90, pages=20))

    def test_munmap(self):
        space = AddressSpace()
        space.mmap(VMA(start_vpn=100, pages=50))
        space.munmap(100)
        assert space.find(120) is None

    def test_gap_coverage_dense(self):
        space = AddressSpace()
        space.mmap(VMA(start_vpn=0, pages=1000))
        assert space.gap_coverage() == 1.0

    def test_gap_coverage_adjacent_vmas(self):
        space = AddressSpace()
        space.mmap(VMA(start_vpn=0, pages=10))
        space.mmap(VMA(start_vpn=10, pages=10))  # gap == 1 at the seam
        assert space.gap_coverage() == 1.0

    def test_gap_coverage_with_hole(self):
        space = AddressSpace()
        space.mmap(VMA(start_vpn=0, pages=10))
        space.mmap(VMA(start_vpn=15, pages=10))
        # 18 unit transitions out of 19 total.
        assert space.gap_coverage() == pytest.approx(18 / 19)


def summarize(runs):
    """(huge mappings, 4 KB mappings) in a run plan."""
    huge = sum(count for _, count, size in runs if size is PageSize.SIZE_2M)
    return huge, sum(count for _, count, _ in runs) - huge


class TestTHPPolicy:
    def test_collapsed_vma_is_huge(self):
        vma = VMA(start_vpn=512 * 4, pages=512 * 4)
        plans = plan_vma_runs(vma, thp=True, coverage=1.0)
        huge, small = summarize(plans)
        assert huge == 4 and small == 0

    def test_unaligned_heads_tails(self):
        vma = VMA(start_vpn=512 * 4 + 10, pages=512 * 3)
        plans = plan_vma_runs(vma, thp=True, coverage=1.0)
        huge, small = summarize(plans)
        assert huge == 2
        assert small == 512 * 3 - 2 * 512

    def test_small_vma_stays_4k(self):
        vma = VMA(start_vpn=0, pages=100)
        plans = plan_vma_runs(vma, thp=True)
        assert summarize(plans) == (0, 100)

    def test_file_backed_stays_4k(self):
        vma = VMA(start_vpn=0, pages=2048, file_backed=True)
        plans = plan_vma_runs(vma, thp=True)
        assert summarize(plans)[0] == 0

    def test_no_thp_all_4k(self):
        vma = VMA(start_vpn=0, pages=2048)
        plans = plan_vma_runs(vma, thp=False)
        assert summarize(plans) == (0, 2048)

    def test_coverage_zero_never_collapses(self):
        vma = VMA(start_vpn=0, pages=2048)
        plans = plan_vma_runs(vma, thp=True, coverage=0.0)
        assert summarize(plans)[0] == 0


class TestASLR:
    def test_randomization_differs_by_seed(self):
        a = ASLRLayout(seed=1)
        b = ASLRLayout(seed=2)
        assert a.bases != b.bases

    def test_disabled_is_canonical(self):
        a = ASLRLayout(seed=1, enabled=False)
        b = ASLRLayout(seed=2, enabled=False)
        assert a.bases == b.bases

    def test_region_ordering_preserved(self):
        layout = ASLRLayout(seed=7)
        assert layout.base_vpn("text") < layout.base_vpn("heap")
        assert layout.base_vpn("heap") < layout.base_vpn("mmap")
        assert layout.base_vpn("mmap") < layout.base_vpn("stack")


class TestProcess:
    def test_populate_and_walk(self):
        proc = Process(RadixPageTable(BumpAllocator()))
        proc.mmap(VMA(start_vpn=100, pages=64))
        assert proc.page_table.walk(130).hit
        assert proc.stats.mapped_pages == 64

    def test_demand_fault(self):
        proc = Process(RadixPageTable(BumpAllocator()))
        proc.mmap(VMA(start_vpn=100, pages=64), populate=False)
        assert not proc.page_table.walk(130).hit
        pte = proc.handle_fault(130 << 12)
        assert pte.vpn == 130
        assert proc.stats.faults == 1

    def test_segfault(self):
        proc = Process(RadixPageTable(BumpAllocator()))
        with pytest.raises(TranslationError):
            proc.handle_fault(0xDEAD000)

    def test_thp_populate(self):
        proc = Process(RadixPageTable(BumpAllocator()), thp=True, thp_coverage=1.0)
        proc.mmap(VMA(start_vpn=1024, pages=1024))
        assert proc.stats.huge_mappings == 2

    def test_munmap_unmaps_translations(self):
        proc = Process(RadixPageTable(BumpAllocator()))
        proc.mmap(VMA(start_vpn=100, pages=16))
        proc.munmap(100)
        assert not proc.page_table.walk(105).hit
        assert proc.stats.shootdowns == 16


class TestLVMPageTable:
    def test_batch_build(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        for v in range(1000):
            index.map(PTE(vpn=v, ppn=v))
        index.end_batch()
        assert index.find(500).ppn == 500
        assert index.stats.inserts == 0  # batched, not inserted

    def test_streaming_inserts(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        index.map(PTE(vpn=0, ppn=0))
        index.end_batch()
        for v in range(1, 300):
            index.map(PTE(vpn=v, ppn=v))
        assert all(index.find(v) is not None for v in range(300))

    def test_far_segment_reprograms_rebaser(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        for v in range(100):
            index.map(PTE(vpn=v, ppn=v))
        index.end_batch()
        far = 1 << 34
        index.map(PTE(vpn=far, ppn=1))
        assert index.find(far) is not None
        assert index.find(50) is not None

    def test_growth_accounting(self):
        """A map outside every rebased region rebuilds with a second
        region and flushes the LWC once; a map inside one inserts."""
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        for v in range(200):
            index.map(PTE(vpn=v, ppn=v))
        index.end_batch()
        stats = index.stats
        counters = ("builds", "full_rebuilds", "lwc_flushes", "inserts")
        before = [getattr(stats, name) for name in counters]
        assert index.rebaser.num_regions == 1
        index.map(PTE(vpn=1 << 30, ppn=1 << 30))
        added = [getattr(stats, name) - b for name, b in zip(counters, before)]
        assert added == [1, 1, 1, 0]
        assert index.rebaser.num_regions == 2
        index.map(PTE(vpn=200, ppn=200))
        assert stats.inserts == before[3] + 1

    def test_software_pte_updates_reach_the_walk(self):
        """The OS writes accessed/dirty bits and permissions into the
        entry ``find`` returns; the hardware walk reads that entry."""
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        index.map(PTE(vpn=5, ppn=5))
        index.end_batch()
        pte = index.find(5)
        pte.accessed = pte.dirty = True
        pte.perms = Permission.READ
        walked = index.walk(5).pte
        assert walked.accessed and walked.dirty
        assert walked.perms == Permission.READ

    def test_unmap(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        for v in range(100):
            index.map(PTE(vpn=v, ppn=v))
        index.end_batch()
        index.unmap(50)
        assert index.find(50) is None

    def test_batch_counts_one_build(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        for v in range(100):
            index.map(PTE(vpn=v, ppn=v))
        index.end_batch()
        assert (index.stats.builds, index.stats.full_rebuilds) == (1, 0)
        assert index.stats.management_time_s >= 0.0

    def test_huge_page_walk(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        index.map(PTE(vpn=0, ppn=0, page_size=PageSize.SIZE_2M))
        index.end_batch()
        assert index.walk(77).pte is not None
