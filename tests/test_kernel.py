"""Tests for the OS layer: VMAs, THP policy, ASLR, process, manager."""

import pytest

from repro.kernel.aslr import ASLRLayout
from repro.kernel.manager import LVMManager
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


class TestLVMManager:
    def test_batch_build(self):
        mgr = LVMManager(BumpAllocator())
        mgr.begin_batch()
        for v in range(1000):
            mgr.map(PTE(vpn=v, ppn=v))
        mgr.end_batch()
        assert mgr.find(500).ppn == 500
        assert mgr.index.stats.inserts == 0  # batched, not inserted

    def test_streaming_inserts(self):
        mgr = LVMManager(BumpAllocator())
        mgr.begin_batch()
        mgr.map(PTE(vpn=0, ppn=0))
        mgr.end_batch()
        for v in range(1, 300):
            mgr.map(PTE(vpn=v, ppn=v))
        assert all(mgr.find(v) is not None for v in range(300))

    def test_far_segment_reprograms_rebaser(self):
        mgr = LVMManager(BumpAllocator())
        mgr.begin_batch()
        for v in range(100):
            mgr.map(PTE(vpn=v, ppn=v))
        mgr.end_batch()
        far = 1 << 34
        mgr.map(PTE(vpn=far, ppn=1))
        assert mgr.find(far) is not None
        assert mgr.find(50) is not None

    def test_software_pte_updates(self):
        mgr = LVMManager(BumpAllocator())
        mgr.begin_batch()
        mgr.map(PTE(vpn=5, ppn=5))
        mgr.end_batch()
        mgr.set_accessed(5)
        mgr.set_dirty(5)
        mgr.change_protection(5, Permission.READ)
        pte = mgr.find(5)
        assert pte.accessed and pte.dirty
        assert pte.perms == Permission.READ

    def test_unmap(self):
        mgr = LVMManager(BumpAllocator())
        mgr.begin_batch()
        for v in range(100):
            mgr.map(PTE(vpn=v, ppn=v))
        mgr.end_batch()
        mgr.unmap(50)
        assert mgr.find(50) is None

    def test_report_fields(self):
        mgr = LVMManager(BumpAllocator())
        mgr.begin_batch()
        for v in range(100):
            mgr.map(PTE(vpn=v, ppn=v))
        mgr.end_batch()
        report = mgr.report()
        assert report.full_rebuilds == 0
        assert report.management_time_s >= 0.0

    def test_huge_page_via_manager(self):
        mgr = LVMManager(BumpAllocator())
        mgr.begin_batch()
        mgr.map(PTE(vpn=0, ppn=0, page_size=PageSize.SIZE_2M))
        mgr.end_batch()
        assert mgr.walk(77).pte is not None
