"""Tests for the LVM learned index (paper sections 4.1-4.5)."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import LearnedIndex, LVMConfig
from repro.core.nodes import leaf_nodes
from repro.mem import BuddyAllocator, BumpAllocator, fragment_to_max_contiguity
from repro.types import PTE, PageSize, TranslationError


def dense_ptes(base, count, ppn0=0):
    return [PTE(vpn=base + i, ppn=ppn0 + i) for i in range(count)]


def build(ptes, allocator=None, config=None):
    idx = LearnedIndex(allocator or BumpAllocator(), config)
    idx.bulk_build(ptes)
    return idx


class TestBulkBuild:
    def test_all_keys_found(self):
        ptes = dense_ptes(0x1000, 5000)
        idx = build(ptes)
        for pte in ptes[::37]:
            walk = idx.walk(pte.vpn)
            assert walk.pte is pte

    def test_unmapped_misses(self):
        idx = build(dense_ptes(100, 100))
        assert not idx.walk(5000).hit
        assert not idx.walk(50).hit

    def test_multi_segment_index_is_tiny(self):
        ptes = []
        for base in (0x1000, 0x100000, 0x800000):
            ptes += dense_ptes(base, 3000, ppn0=base)
        idx = build(ptes)
        # Table 2: steady-state indexes are ~100-200 bytes.
        assert idx.index_size_bytes <= 512
        assert idx.depth <= LVMConfig().d_limit

    def test_index_size_independent_of_footprint(self):
        # Section 7.3 scaling study: the index does not grow with the
        # number of mapped pages when the space stays regular.
        small = build(dense_ptes(0, 10_000))
        large = build(dense_ptes(0, 200_000))
        assert large.index_size_bytes <= small.index_size_bytes + 64

    def test_duplicate_vpn_rejected(self):
        with pytest.raises(TranslationError):
            build([PTE(vpn=1, ppn=1), PTE(vpn=1, ppn=2)])

    def test_empty_build(self):
        idx = LearnedIndex(BumpAllocator())
        idx.bulk_build([])
        assert idx.root is None
        assert not idx.walk(0).hit


class TestDepthBound:
    def test_depth_never_exceeds_d_limit(self):
        import random

        rng = random.Random(3)
        # Pathological: scattered random keys.
        vpns = sorted(rng.sample(range(1 << 24), 20_000))
        idx = build([PTE(vpn=v, ppn=v) for v in vpns])
        assert idx.depth <= LVMConfig().d_limit

    def test_walk_accesses_bounded(self):
        idx = build(dense_ptes(0, 10_000))
        walk = idx.walk(5000)
        # d_limit models + PTE fetch: at most 4 memory accesses in the
        # collision-free case (section 5.1).
        assert walk.hit
        assert len(walk.node_accesses) <= LVMConfig().d_limit
        assert walk.total_memory_accesses <= LVMConfig().d_limit + 1


class TestPageSizes:
    def test_huge_page_round_down(self):
        hp = [PTE(vpn=512 * i, ppn=i, page_size=PageSize.SIZE_2M) for i in range(64)]
        idx = build(hp)
        for i in (0, 13, 63):
            for offset in (0, 1, 255, 511):
                walk = idx.walk(512 * i + offset)
                assert walk.pte is hp[i], (i, offset)

    def test_mixed_sizes_single_index(self):
        mix = dense_ptes(0, 2000) + [
            PTE(vpn=1 << 16 | (512 * i), ppn=7000 + i, page_size=PageSize.SIZE_2M)
            for i in range(32)
        ]
        idx = build(mix)
        assert all(idx.walk(p.vpn).pte is p for p in mix)

    def test_gigabyte_page(self):
        giant = PTE(vpn=1 << 18, ppn=42, page_size=PageSize.SIZE_1G)
        idx = build(dense_ptes(0, 1000) + [giant])
        assert idx.walk((1 << 18) + 100_000).pte is giant

    def test_size_encoding_preserved(self):
        hp = PTE(vpn=0, ppn=0, page_size=PageSize.SIZE_2M)
        idx = build([hp])
        assert idx.walk(5).pte.page_size is PageSize.SIZE_2M


class TestInsert:
    def test_sequential_growth_uses_rescaling(self):
        idx = build(dense_ptes(0, 10_000))
        for v in range(10_000, 14_000):
            idx.insert(PTE(vpn=v, ppn=v))
        assert all(idx.walk(v).hit for v in range(0, 14_000, 13))
        # Section 4.3.4: edge growth must not retrain; 4000 inserts
        # within one minimum-insertion-distance need exactly one rescale.
        assert idx.stats.rescales <= 2
        assert idx.stats.full_rebuilds == 0

    def test_within_bounds_insert_into_gap(self):
        idx = build([PTE(vpn=2 * i, ppn=i) for i in range(2000)])
        idx.insert(PTE(vpn=501, ppn=9999))
        assert idx.walk(501).pte.ppn == 9999

    def test_far_insert_triggers_rebuild(self):
        idx = build(dense_ptes(0, 1000))
        far = 10_000_000
        idx.insert(PTE(vpn=far, ppn=1))
        assert idx.stats.full_rebuilds == 1
        assert idx.walk(far).hit
        assert idx.walk(500).hit

    def test_left_insert_rebuilds(self):
        idx = build(dense_ptes(100_000, 1000))
        idx.insert(PTE(vpn=50, ppn=1))
        assert idx.walk(50).hit
        assert idx.walk(100_500).hit

    def test_duplicate_insert_rejected(self):
        idx = build(dense_ptes(0, 10))
        with pytest.raises(TranslationError):
            idx.insert(PTE(vpn=5, ppn=1))

    def test_insert_into_empty_index(self):
        idx = LearnedIndex(BumpAllocator())
        idx.bulk_build([])
        idx.insert(PTE(vpn=42, ppn=1))
        assert idx.walk(42).hit

    def test_huge_page_insert(self):
        idx = build(dense_ptes(0, 1000))
        hp = PTE(vpn=1 << 14, ppn=5, page_size=PageSize.SIZE_2M)
        idx.insert(hp)
        assert idx.walk((1 << 14) + 300).pte is hp


class TestRemove:
    def test_remove_then_miss(self):
        idx = build(dense_ptes(0, 1000))
        idx.unmap(500)
        assert not idx.walk(500).hit
        assert idx.walk(499).hit and idx.walk(501).hit

    def test_remove_keeps_model(self):
        # Section 5.2 "Free": the index is not retrained on frees.
        idx = build(dense_ptes(0, 1000))
        before = idx.stats.local_retrains + idx.stats.full_rebuilds
        for v in range(100, 200):
            idx.unmap(v)
        assert idx.stats.local_retrains + idx.stats.full_rebuilds == before

    def test_freed_slot_reused(self):
        idx = build(dense_ptes(0, 1000))
        idx.unmap(500)
        idx.insert(PTE(vpn=500, ppn=777))
        assert idx.walk(500).pte.ppn == 777

    def test_remove_unmapped_raises(self):
        idx = build(dense_ptes(0, 10))
        with pytest.raises(TranslationError):
            idx.unmap(999)

    def test_remove_huge_page(self):
        hp = [PTE(vpn=512 * i, ppn=i, page_size=PageSize.SIZE_2M) for i in range(10)]
        idx = build(hp)
        idx.unmap(512 * 5)
        assert not idx.walk(512 * 5 + 100).hit
        assert idx.walk(512 * 6).hit


class TestFragmentation:
    def test_adapts_to_limited_contiguity(self):
        buddy = BuddyAllocator(256 << 20)
        fragment_to_max_contiguity(buddy, 256 << 10)
        idx = LearnedIndex(buddy)
        idx.bulk_build(dense_ptes(0, 100_000))
        # Every gapped table must fit the 256 KB contiguity cap.
        from repro.core.nodes import leaf_nodes

        for leaf in leaf_nodes(idx.root):
            assert leaf.table.size_bytes <= 256 << 10
        assert all(idx.walk(v).hit for v in range(0, 100_000, 1009))


class TestStats:
    def test_collision_rate_low_on_regular_space(self):
        idx = build(dense_ptes(0, 50_000))
        for v in range(0, 50_000, 7):
            idx.walk(v)
        # Section 7.3: 0.2% average collision rate for 4 KB pages.
        assert idx.stats.collision_rate < 0.02

    def test_memory_overhead_bounded_by_ga_scale(self):
        idx = build(dense_ptes(0, 100_000))
        # Worst case 1.3x the minimum space (section 7.3).
        assert idx.table_bytes <= 1.35 * idx.min_required_bytes + 4096

    @pytest.mark.parametrize("op", ["insert", "unmap"])
    def test_a_rebuild_counts_its_time_once(self, op):
        """An insert or unmap that triggers a full rebuild raises
        ``management_time_s`` by no more than its own wall time."""
        if op == "insert":
            idx = build(dense_ptes(0, 20_000))
            call, arg = idx.insert, PTE(vpn=10_000_000, ppn=1)
        else:
            # Unmapping an entry whose table copy is damaged falls back
            # to repairing its leaf; a degraded leaf cannot be refit by
            # one model, so the index rebuilds.
            idx = build(_PACKED_FROM_SLOT_0)
            leaf = next(leaf for leaf in leaf_nodes(idx.root) if leaf.degraded)
            slot, entry = leaf.table.entries()[300]
            leaf.table.corrupt_slot(slot, fld="ppn", bit=3)
            call, arg = idx.unmap, entry.vpn
        before = idx.stats.management_time_s
        start = time.perf_counter()
        call(arg)
        elapsed = time.perf_counter() - start
        assert idx.stats.full_rebuilds == 1
        assert idx.stats.management_time_s - before <= elapsed

    def test_start_up_and_far_map_builds_time_their_clustering(self, monkeypatch):
        """A start-up batch and a far map time their build from its
        first step, so the region clustering before training counts."""
        import repro.core.learned_index as learned_index

        cluster = learned_index.cluster_regions

        def slow_cluster(*columns):
            time.sleep(0.05)
            return cluster(*columns)

        monkeypatch.setattr(learned_index, "cluster_regions", slow_cluster)
        idx = LearnedIndex(BumpAllocator())
        idx.begin_batch()
        idx.map_many(dense_ptes(0, 2000) + dense_ptes(1 << 24, 500))
        for build_step in (idx.end_batch, lambda: idx.map(PTE(vpn=1 << 34, ppn=1))):
            before = idx.stats.management_time_s
            build_step()
            assert idx.stats.build_times_s[-1] >= 0.05
            assert idx.stats.management_time_s - before >= 0.05
        assert idx.stats.builds == 2
        assert idx.stats.full_rebuilds == 1

    def test_software_find_has_no_stats_side_effect(self):
        idx = build(dense_ptes(0, 100))
        lookups_before = idx.stats.lookups
        idx.find(50)
        assert idx.stats.lookups == lookups_before


def _layout(*runs):
    """PTEs for runs of (first VPN, mappings, 4 KB pages per mapping)."""
    ptes = []
    for vpn, count, pages in runs:
        size = PageSize.SIZE_2M if pages == 512 else PageSize.SIZE_4K
        ptes += [
            PTE(vpn=vpn + i * pages, ppn=len(ptes) + i, page_size=size)
            for i in range(count)
        ]
    return ptes


@st.composite
def mixed_mappings(draw):
    """Sorted, non-overlapping mappings: runs of 4 KB pages and runs of
    aligned 2 MB pages, with gaps between the runs."""
    runs = []
    cursor = draw(st.integers(min_value=0, max_value=1 << 20))
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        cursor += draw(st.sampled_from([0, 1, 7, 300, 512, 4096, 1 << 18]))
        if draw(st.booleans()):
            cursor = -(-cursor // 512) * 512
            runs.append((cursor, draw(st.integers(min_value=1, max_value=3)), 512))
        else:
            runs.append((cursor, draw(st.sampled_from([1, 2, 37, 511, 600])), 1))
        cursor += runs[-1][1] * runs[-1][2]
    return _layout(*runs)


# Single pages, then one VMA: the per-key inserts overflow, and packing
# from the predictions runs off the end of the table.
_OVERFLOWING = _layout((0, 3, 1), (10, 1, 1), (18, 1, 1), (26, 1, 1), (34, 1, 1), (42, 38, 1))
# A degraded leaf packed from slot 0: its search window must cover each
# entry's distance from the model's prediction, not from slot 0.
_PACKED_FROM_SLOT_0 = _layout(
    (512, 1, 1), (266240, 1, 512), (267264, 2, 512), (268588, 600, 1), (531456, 2, 512)
)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(mixed_mappings())
    @example(_OVERFLOWING)
    @example(_PACKED_FROM_SLOT_0)
    def test_bulk_build_over_mixed_page_sizes(self, ptes):
        """The build never raises, every covered 4 KB VPN translates to
        its mapping, and every degraded leaf was counted as an
        error-bound violation."""
        idx = build(ptes)
        for pte in ptes:
            for vpn in range(pte.vpn, pte.vpn + pte.page_size.pages_4k):
                assert idx.walk(vpn).pte is pte, (pte, vpn)
        degraded = sum(leaf.degraded for leaf in leaf_nodes(idx.root))
        assert idx.stats.error_bound_violations >= degraded

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 22),
            min_size=1,
            max_size=400,
            unique=True,
        )
    )
    def test_lookup_finds_every_built_key(self, vpns):
        vpns.sort()
        ptes = [PTE(vpn=v, ppn=i) for i, v in enumerate(vpns)]
        idx = build(ptes)
        for pte in ptes:
            assert idx.walk(pte.vpn).pte is pte

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=2,
            max_size=200,
            unique=True,
        ),
        st.data(),
    )
    def test_insert_remove_interleaving(self, vpns, data):
        vpns.sort()
        half = len(vpns) // 2
        idx = build([PTE(vpn=v, ppn=v) for v in vpns[:half]])
        for v in vpns[half:]:
            idx.insert(PTE(vpn=v, ppn=v))
        removed = data.draw(
            st.lists(st.sampled_from(vpns), max_size=len(vpns) // 2, unique=True)
        )
        for v in removed:
            idx.unmap(v)
        removed_set = set(removed)
        for v in vpns:
            walk = idx.walk(v)
            if v in removed_set:
                assert not walk.hit
            else:
                assert walk.hit and walk.pte.vpn == v
