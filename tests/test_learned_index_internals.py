"""White-box tests of learned-index internals: rescaling, retraining,
allocator bookkeeping, LWC-flush accounting, and the walk traces."""

from repro.core import LearnedIndex, LVMConfig
from repro.core.nodes import leaf_nodes
from repro.core.rebase import AddressSpaceRebaser
from repro.mem import BumpAllocator
from repro.types import PTE, PTE_SIZE, PageSize


def dense(base, n):
    return [PTE(vpn=base + i, ppn=i) for i in range(n)]


class TestWalkTraces:
    def test_node_path_is_root_to_leaf(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(
            dense(0, 3000) + dense(300_000, 3000) + dense(900_000, 3000)
        )
        walk = index.walk(300_500)
        levels = [lvl for lvl, _, _ in walk.node_accesses]
        assert levels == sorted(levels)
        assert levels[0] == 0

    def test_node_paddrs_match_level_layout(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(dense(0, 2000) + dense(1 << 20, 2000))
        walk = index.walk(100)
        for level, offset, paddr in walk.node_accesses:
            assert paddr == index.level_bases[level] + offset * 16

    def test_pte_line_is_inside_leaf_table(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(dense(0, 5000))
        walk = index.walk(1234)
        leaf = index._leaf_for(index.rebaser.rebase(1234))
        lo = leaf.table.base_paddr - leaf.table.base_paddr % 64
        hi = leaf.table.slot_paddr(leaf.table.num_slots - 1)
        assert lo <= walk.pte_line_paddrs[0] <= hi


class TestRescaling:
    def test_expand_right_grows_range_and_table(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(dense(0, 10_000))
        old_hi = index.root.hi
        slots_before = sum(
            l.table.num_slots for l in leaf_nodes(index.root)
        )
        index.insert(PTE(vpn=10_000, ppn=1))
        assert index.root.hi >= old_hi + LVMConfig().min_insert_distance_pages
        slots_after = sum(l.table.num_slots for l in leaf_nodes(index.root))
        assert slots_after > slots_before
        assert index.stats.rescales == 1

    def test_rescale_does_not_flush_lwc(self):
        # Section 5.2: rescaling never modifies models, so no flush.
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(dense(0, 10_000))
        flushes = index.stats.lwc_flushes
        index.insert(PTE(vpn=10_000, ppn=1))
        assert index.stats.lwc_flushes == flushes

    def test_existing_entries_survive_rescale(self):
        index = LearnedIndex(BumpAllocator())
        ptes = dense(0, 10_000)
        index.bulk_build(ptes)
        index.insert(PTE(vpn=10_000, ppn=77))
        for pte in ptes[::499]:
            assert index.walk(pte.vpn).pte is pte

    def test_retrain_flushes_lwc(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build([PTE(vpn=4 * i, ppn=i) for i in range(2000)])
        flushes = index.stats.lwc_flushes
        # Force enough gap inserts to trigger at least one local retrain.
        for i in range(2000):
            index.insert(PTE(vpn=4 * i + 1, ppn=50_000 + i))
        if index.stats.local_retrains + index.stats.full_rebuilds > 0:
            assert index.stats.lwc_flushes > flushes


class TestAllocatorBookkeeping:
    def test_rebuild_frees_old_structures(self):
        allocator = BumpAllocator()
        index = LearnedIndex(allocator)
        index.bulk_build(dense(0, 20_000))
        live_after_build = allocator.live_bytes
        index.insert(PTE(vpn=10 ** 9, ppn=1))  # far insert -> full rebuild
        # The rebuild must free the old tables/levels: live bytes stay
        # in the same ballpark instead of doubling.
        assert allocator.live_bytes < 1.7 * live_after_build

    def test_table_bytes_accounting(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(dense(0, 10_000))
        computed = sum(l.table.size_bytes for l in leaf_nodes(index.root))
        assert index.table_bytes == computed
        assert index.min_required_bytes == 10_000 * PTE_SIZE

    def test_memory_overhead_property(self):
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(dense(0, 50_000))
        assert index.memory_overhead_bytes == (
            index.table_bytes - index.min_required_bytes
        )


class TestRebasedIndex:
    def test_explicit_rebaser_round_trip(self):
        regions = [(1 << 30, 5000), (1 << 40, 5000)]
        rebaser = AddressSpaceRebaser(regions)
        index = LearnedIndex(BumpAllocator(), rebaser=rebaser)
        ptes = dense(1 << 30, 5000) + dense(1 << 40, 5000)
        index.bulk_build(ptes)
        assert all(index.walk(p.vpn).pte is p for p in ptes[:: 333])
        assert not index.walk((1 << 35)).hit

    def test_index_covers_whole_slots(self):
        rebaser = AddressSpaceRebaser([(0, 1000), (1 << 33, 1000)])
        index = LearnedIndex(BumpAllocator(), rebaser=rebaser)
        index.bulk_build(dense(0, 1000) + dense(1 << 33, 1000))
        assert index.root.hi >= rebaser.compact_span

    def test_huge_pages_with_rebasing(self):
        rebaser = AddressSpaceRebaser([(1 << 33, 512 * 64)])
        index = LearnedIndex(BumpAllocator(), rebaser=rebaser)
        ptes = [
            PTE(vpn=(1 << 33) + 512 * i, ppn=i, page_size=PageSize.SIZE_2M)
            for i in range(64)
        ]
        index.bulk_build(ptes)
        for i in (0, 13, 63):
            q = (1 << 33) + 512 * i + 200
            assert index.walk(q).pte is ptes[i]


class TestDegradedLeafBehaviour:
    def test_degraded_inserts_do_not_rebuild_storm(self):
        import random

        rng = random.Random(2)
        vpns = sorted(rng.sample(range(2000), 900))
        index = LearnedIndex(BumpAllocator())
        index.bulk_build([PTE(vpn=v, ppn=v) for v in vpns])
        remaining = sorted(set(range(2000)) - set(vpns))
        for v in remaining[:300]:
            index.insert(PTE(vpn=v, ppn=10_000 + v))
        # Lookups stay correct whatever the structure decided.
        for v in remaining[:300:17]:
            assert index.walk(v).hit
        assert index.stats.full_rebuilds <= 10
