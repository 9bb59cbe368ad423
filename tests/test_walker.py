"""Tests for the hardware walkers and the full MMU."""

import pytest

from repro.core import LearnedIndex
from repro.errors import ConfigError
from repro.mem.allocator import BumpAllocator
from repro.mmu import (
    MMU,
    ASAPWalker,
    ECPTWalker,
    IdealWalker,
    LVMWalker,
    MemoryHierarchy,
    RadixWalker,
)
from repro.mmu.hierarchy import HierarchyConfig
from repro.mmu.tlb import TLBConfig
from repro.pagetables import ECPT, IdealPageTable, RadixPageTable
from repro.types import PTE


def hierarchy():
    return MemoryHierarchy(HierarchyConfig(prefetch_degree=0))


def populated_radix(n=2000):
    table = RadixPageTable(BumpAllocator())
    ptes = [PTE(vpn=0x100 + v, ppn=v) for v in range(n)]
    for p in ptes:
        table.map(p)
    return table, ptes


class TestRadixWalker:
    def test_walk_returns_pte(self):
        table, ptes = populated_radix()
        walker = RadixWalker(table, hierarchy())
        outcome = walker.walk(ptes[7].vpn)
        assert outcome.pte is ptes[7]
        assert outcome.memory_accesses == 4  # cold: full walk

    def test_pwc_trims_repeat_walks(self):
        table, ptes = populated_radix()
        walker = RadixWalker(table, hierarchy())
        walker.walk(ptes[0].vpn)
        outcome = walker.walk(ptes[1].vpn)
        # Upper levels cached: only the leaf PTE access remains.
        assert outcome.memory_accesses == 1

    def test_cycles_accumulate(self):
        table, ptes = populated_radix()
        walker = RadixWalker(table, hierarchy())
        walker.walk(ptes[0].vpn)
        assert walker.total_cycles > 0
        assert walker.walks == 1


class TestLVMWalker:
    def test_single_access_after_lwc_warm(self):
        index = LearnedIndex(BumpAllocator())
        ptes = [PTE(vpn=v, ppn=v) for v in range(4096)]
        index.bulk_build(ptes)
        walker = LVMWalker(index, hierarchy())
        walker.walk(0)
        outcome = walker.walk(1)
        # Models in the LWC: only the PTE line goes to memory.
        assert outcome.memory_accesses == 1

    def test_lwc_flush_synced_from_os(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build([PTE(vpn=v, ppn=v) for v in range(1000)])
        walker = LVMWalker(index, hierarchy())
        walker.walk(5)
        hits_before = walker.lwc.flushes
        index.stats.lwc_flushes += 1  # OS retrained something
        walker.walk(6)
        assert walker.lwc.flushes == hits_before + 1


class TestECPTWalker:
    def test_parallel_latency_single_step(self):
        table = ECPT(BumpAllocator(), initial_size=256)
        for v in range(500):
            table.map(PTE(vpn=v, ppn=v))
        hier = hierarchy()
        walker = ECPTWalker(table, hier)
        walker.walk(100)
        outcome = walker.walk(101)
        # Traffic counts all parallel probes...
        assert outcome.memory_accesses == 3
        # ...but latency is bounded by one memory access plus the CWC.
        max_single = hier.config.l3_latency + hier.config.dram_latency
        assert outcome.cycles <= walker.cwc.latency + max_single


class TestIdealWalker:
    def test_always_one_access(self):
        table = IdealPageTable(BumpAllocator())
        for v in range(100):
            table.map(PTE(vpn=v, ppn=v))
        walker = IdealWalker(table, hierarchy())
        for v in (0, 50, 99):
            assert walker.walk(v).memory_accesses == 1


class TestASAPWalker:
    def test_prefetch_adds_traffic(self):
        table, ptes = populated_radix()
        asap = ASAPWalker(table, hierarchy(), prefetch_success_rate=1.0)
        plain_table, plain_ptes = populated_radix()
        plain = RadixWalker(plain_table, hierarchy())
        a = asap.walk(ptes[5].vpn)
        b = plain.walk(plain_ptes[5].vpn)
        assert a.memory_accesses > b.memory_accesses

    def test_prefetch_rate_zero_is_radix(self):
        table, ptes = populated_radix()
        asap = ASAPWalker(table, hierarchy(), prefetch_success_rate=0.0)
        outcome = asap.walk(ptes[5].vpn)
        assert outcome.memory_accesses == 4
        assert asap.prefetches == 0


class TestMMU:
    def test_tlb_hit_skips_walk(self):
        table, ptes = populated_radix()
        mmu = MMU(RadixWalker(table, hierarchy()))
        va = ptes[3].vpn << 12
        mmu.translate(va)
        walks_before = mmu.stats.walks
        pte, cycles = mmu.translate(va)
        assert pte is ptes[3]
        assert mmu.stats.walks == walks_before
        assert cycles == 0  # L1 TLB hit

    def test_fault_reports_none(self):
        table, _ = populated_radix()
        mmu = MMU(RadixWalker(table, hierarchy()))
        pte, _ = mmu.translate(0xDEAD_BEEF_000)
        assert pte is None
        assert mmu.stats.faults == 1

    def test_invalidate_forces_rewalk(self):
        table, ptes = populated_radix()
        mmu = MMU(RadixWalker(table, hierarchy()))
        va = ptes[3].vpn << 12
        mmu.translate(va)
        mmu.invalidate(ptes[3].vpn)
        walks_before = mmu.stats.walks
        mmu.translate(va)
        assert mmu.stats.walks == walks_before + 1

    def test_stats_accumulate(self):
        table, ptes = populated_radix()
        mmu = MMU(RadixWalker(table, hierarchy()))
        for p in ptes[:50]:
            mmu.translate(p.vpn << 12)
        s = mmu.stats
        assert s.translations == 50
        assert s.walks + s.l1_tlb_hits + s.l2_tlb_hits == 50
        assert s.mmu_cycles == s.tlb_cycles + s.walk_cycles

    def test_l2_tlb_hits_cost_at_least_one_cycle(self):
        """``translate`` tells an L1 hit by its latency of 0, so a
        0-cycle L2 would count its hits as L1 hits: 40 pages through
        an 8-entry L1, then the first 8 again, which only the L2 holds."""
        table, ptes = populated_radix()
        geometry = dict(l1_4k_entries=8, l1_4k_ways=4, l2_entries_per_size=64, l2_ways=4)
        with pytest.raises(ConfigError, match="l2_latency"):
            MMU(RadixWalker(table, hierarchy()), TLBConfig(**geometry, l2_latency=0))
        mmu = MMU(RadixWalker(table, hierarchy()), TLBConfig(**geometry, l2_latency=1))
        for p in ptes[:40] + ptes[:8]:
            mmu.translate(p.vpn << 12)
        assert (mmu.stats.l1_tlb_hits, mmu.stats.l2_tlb_hits) == (0, 8)
