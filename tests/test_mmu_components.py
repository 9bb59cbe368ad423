"""Tests for caches, TLBs, walk caches and the memory hierarchy."""

import pytest

from repro.mmu.cache import Cache
from repro.mmu.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mmu.tlb import TLBArray, TLBConfig, TLBHierarchy
from repro.mmu.walk_cache import CWC, LWC, RadixPWC
from repro.types import PTE, PageSize


class TestCache:
    def test_hit_after_fill(self):
        cache = Cache("t", 4096, 4, latency=10)
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_same_entry(self):
        cache = Cache("t", 4096, 4, latency=10)
        cache.access(0x1000)
        assert cache.access(0x1030)  # same 64 B line

    def test_lru_eviction(self):
        # 1 set x 2 ways: every line maps to the same set.
        cache = Cache("t", 128, 2, latency=1)
        cache.access(0)
        cache.access(64)
        cache.access(128)  # evicts line 0
        assert not cache.access(0)

    def test_lru_updates_on_hit(self):
        cache = Cache("t", 128, 2, latency=1)
        cache.access(0)
        cache.access(64)
        cache.access(0)  # refresh line 0
        cache.access(128)  # evicts line 64, not 0
        assert cache.access(0)
        assert not cache.access(64)

    def test_walk_miss_attribution(self):
        cache = Cache("t", 4096, 4, latency=1)
        cache.access(0x1000, is_walk=True)
        assert cache.walk_misses == 1

    def test_mpki(self):
        cache = Cache("t", 4096, 4, latency=1)
        for i in range(10):
            cache.access(i * 4096)
        assert cache.mpki(10_000) == pytest.approx(1.0)

    def test_fill_installs_without_counting(self):
        cache = Cache("t", 4096, 4, latency=10)
        cache.fill(0x2000)
        assert cache.hits == 0 and cache.misses == 0
        assert cache.contains(0x2000)
        assert cache.access(0x2000)  # demand access now hits

    def test_fill_follows_demand_lru(self):
        # 1 set x 2 ways: fill participates in the same LRU order a
        # demand fill would, including the move-to-MRU on re-fill.
        cache = Cache("t", 128, 2, latency=1)
        cache.access(0)
        cache.access(64)
        cache.fill(0)  # refresh line 0 -> line 64 is now LRU
        cache.fill(128)  # evicts line 64
        assert cache.contains(0) and cache.contains(128)
        assert not cache.contains(64)

    def test_locate_override_still_honoured(self):
        # Subclasses may replace the placement function (the learned
        # set index in repro.extensions does); the inlined fast path
        # must defer to the override.
        class Swizzled(Cache):
            def _locate(self, paddr):
                set_idx, tag = Cache._locate(self, paddr)
                return (set_idx + 1) % self.num_sets, tag

        plain = Cache("p", 4096, 4, latency=1)
        swizzled = Swizzled("s", 4096, 4, latency=1)
        plain.access(0x1000)
        swizzled.access(0x1000)
        swizzled.fill(0x3000)
        plain_set = Cache._locate(plain, 0x1000)[0]
        assert plain_set in plain._sets
        assert (plain_set + 1) % swizzled.num_sets in swizzled._sets
        assert swizzled.contains(0x3000)


class TestHierarchy:
    def test_latencies_by_level(self):
        h = MemoryHierarchy(HierarchyConfig(prefetch_degree=0))
        paddr = 0x123000
        first = h.access(paddr)
        assert first == h.config.l3_latency + h.config.dram_latency
        assert h.access(paddr) == h.config.l1_latency

    def test_walker_entry_skips_l1(self):
        h = MemoryHierarchy(HierarchyConfig(prefetch_degree=0))
        h.walk_access(0x5000)
        assert h.l1.accesses == 0
        assert h.l2.accesses == 1

    def test_prefetch_fills_next_lines(self):
        h = MemoryHierarchy(HierarchyConfig(prefetch_degree=2))
        h.access(0x10000)  # miss: prefetch 0x10040, 0x10080
        assert h.access(0x10040) == h.config.l1_latency
        assert h.access(0x10080) == h.config.l1_latency

    def test_scaled_capacities(self):
        cfg = HierarchyConfig.scaled(16)
        base = HierarchyConfig()
        assert cfg.l2_size == base.l2_size // 16
        assert cfg.l2_latency == base.l2_latency
        # Floors keep at least one line per way times a few sets.
        tiny = HierarchyConfig.scaled(1 << 20)
        assert tiny.l1_size >= tiny.l1_ways * 64

    def test_scaled_touches_only_sizes(self):
        """``scaled`` shrinks capacities and nothing else: every other
        field (latencies, ways, walker entry, prefetch degree, fields
        added later) must match the default config."""
        from dataclasses import fields

        cfg = HierarchyConfig.scaled(16)
        base = HierarchyConfig()
        size_fields = {"l1_size", "l2_size", "l3_size"}
        for f in fields(HierarchyConfig):
            if f.name in size_fields:
                continue
            assert getattr(cfg, f.name) == getattr(base, f.name), f.name


class TestTLB:
    def test_array_hit_miss(self):
        arr = TLBArray("t", 16, 4, PageSize.SIZE_4K)
        pte = PTE(vpn=5, ppn=5)
        assert arr.lookup(5, asid=0) is None
        arr.insert(pte, asid=0)
        assert arr.lookup(5, asid=0) is pte

    def test_asid_isolation(self):
        arr = TLBArray("t", 16, 4, PageSize.SIZE_4K)
        arr.insert(PTE(vpn=5, ppn=5), asid=1)
        assert arr.lookup(5, asid=2) is None

    def test_full_set_evicts_lru(self):
        # 1 set x 2 ways: touching vpn 0 makes vpn 1 the LRU entry,
        # so the third insert evicts vpn 1.
        arr = TLBArray("t", 2, 2, PageSize.SIZE_4K)
        arr.insert(PTE(vpn=0, ppn=0), asid=0)
        arr.insert(PTE(vpn=1, ppn=1), asid=0)
        assert arr.lookup(0, asid=0) is not None
        arr.insert(PTE(vpn=2, ppn=2), asid=0)
        assert arr.lookup(1, asid=0) is None
        assert arr.lookup(0, asid=0) is not None
        assert arr.lookup(2, asid=0) is not None

    def test_flush_asid_keeps_other_asids(self):
        arr = TLBArray("t", 16, 4, PageSize.SIZE_4K)
        for vpn in (3, 4):
            arr.insert(PTE(vpn=vpn, ppn=vpn), asid=0)
            arr.insert(PTE(vpn=vpn, ppn=vpn + 8), asid=1)
        arr.flush_asid(1)
        assert arr.lookup(3, asid=1) is None and arr.lookup(4, asid=1) is None
        assert arr.lookup(3, asid=0).ppn == 3 and arr.lookup(4, asid=0).ppn == 4

    def test_huge_page_granularity(self):
        arr = TLBArray("t", 16, 4, PageSize.SIZE_2M)
        pte = PTE(vpn=1024, ppn=9, page_size=PageSize.SIZE_2M)
        arr.insert(pte, asid=0)
        hit = arr.lookup(1024 + 300, asid=0)
        assert hit is pte

    def test_hierarchy_promotes_l2_hit_to_l1(self):
        tlbs = TLBHierarchy(TLBConfig())
        pte = PTE(vpn=7, ppn=7)
        tlbs.l2[PageSize.SIZE_4K].insert(pte, asid=0)
        found, latency = tlbs.lookup(7, asid=0)
        assert found is pte and latency == tlbs.config.l2_latency
        found, latency = tlbs.lookup(7, asid=0)
        assert found is pte and latency == 0  # now in L1

    def test_invalidate(self):
        tlbs = TLBHierarchy()
        tlbs.insert(PTE(vpn=3, ppn=3), asid=0)
        tlbs.invalidate(3, asid=0)
        found, _ = tlbs.lookup(3, asid=0)
        assert found is None

    def test_scaled_geometry(self):
        cfg = TLBConfig.scaled(16)
        assert cfg.l2_entries_per_size == 128
        assert cfg.l1_4k_entries >= 4


class TestWalkCaches:
    def test_pwc_skip_levels(self):
        pwc = RadixPWC()
        assert pwc.lowest_cached_level(0x12345, asid=0) is None
        pwc.fill(0x12345, asid=0, upto_level=2)
        assert pwc.lowest_cached_level(0x12345, asid=0) == 2

    def test_pwc_shares_prefix(self):
        pwc = RadixPWC()
        pwc.fill(0x12345, asid=0, upto_level=2)
        # Another VPN in the same 2 MB region hits at level 2 too.
        assert pwc.lowest_cached_level(0x12345 ^ 0x1FF, asid=0) == 2

    def test_pwc_asid_flush(self):
        pwc = RadixPWC()
        pwc.fill(0x12345, asid=3, upto_level=2)
        pwc.flush_asid(3)
        assert pwc.lowest_cached_level(0x12345, asid=3) is None

    def test_lwc_line_fill_brings_four_models(self):
        lwc = LWC()
        assert not lwc.lookup(0, 1, 5)
        lwc.fill_line(0, 1, 5)
        for offset in (4, 5, 6, 7):
            assert lwc.lookup(0, 1, offset)
        assert not lwc.lookup(0, 1, 8)

    def test_lwc_capacity_and_eviction(self):
        lwc = LWC(entries=4)
        for off in range(0, 32, 4):
            lwc.fill_line(0, 0, off)
        assert lwc._lru.occupancy <= 4

    def test_lwc_flush_entry(self):
        lwc = LWC()
        lwc.fill_line(0, 1, 0)
        lwc.flush_entry(0, 1, 0)
        assert not lwc.lookup(0, 1, 0)
        assert lwc.flushes == 1

    def test_lwc_size_is_256_bytes(self):
        # 16 entries x 16 B models: 3x less storage than the radix
        # PWC's 96 x 8 B (section 7.4).
        assert LWC().size_bytes == 256
        assert RadixPWC().size_bytes == 768

    def test_cwc_levels(self):
        cwc = CWC()
        pmd, pud = cwc.lookup(0x12345, asid=0)
        assert not pmd and not pud
        cwc.fill(0x12345, asid=0)
        pmd, pud = cwc.lookup(0x12345, asid=0)
        assert pmd and pud
