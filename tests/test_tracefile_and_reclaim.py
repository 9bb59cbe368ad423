"""Tests for index compaction/reclaim."""

from repro.core import LearnedIndex
from repro.mem import BumpAllocator
from repro.types import PTE


class TestReclaim:
    def test_compact_reclaims_after_mass_free(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build([PTE(vpn=v, ppn=v) for v in range(40_000)])
        peak = index.table_bytes
        for v in range(10_000, 40_000):
            index.unmap(v)
        # Section 5.2: frees keep the space...
        assert index.table_bytes == peak
        # ...until the OS decides to rebuild and reclaim (section 7.3).
        reclaimed = index.compact()
        assert reclaimed > 0.5 * peak
        assert index.walk(5_000).hit
        assert not index.walk(20_000).hit

    def test_compact_counts_as_rebuild(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build([PTE(vpn=v, ppn=v) for v in range(1000)])
        rebuilds = index.stats.full_rebuilds
        index.compact()
        assert index.stats.full_rebuilds == rebuilds + 1
        assert index.stats.lwc_flushes >= 1

    def test_manager_reclaim(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        for v in range(20_000):
            index.map(PTE(vpn=v, ppn=v))
        index.end_batch()
        for v in range(5_000, 20_000):
            index.unmap(v)
        freed = index.compact()
        assert freed > 0
        assert index.find(100) is not None

    def test_compact_on_empty_index(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build([])
        assert index.compact() == 0
