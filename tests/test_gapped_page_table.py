"""Tests for gapped page tables (paper section 4.2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gapped_page_table import GPTFullError, GappedPageTable
from repro.types import PTE, PageSize


def make_pte(vpn, size=PageSize.SIZE_4K):
    return PTE(vpn=vpn, ppn=vpn + 1000, page_size=size)


class TestGeometry:
    def test_size_bytes(self):
        gpt = GappedPageTable(100, base_paddr=0x1000)
        assert gpt.size_bytes == 800

    def test_slot_paddr(self):
        gpt = GappedPageTable(100, base_paddr=0x1000)
        assert gpt.slot_paddr(0) == 0x1000
        assert gpt.slot_paddr(9) == 0x1000 + 72

    def test_line_of_groups_eight_slots(self):
        gpt = GappedPageTable(100, base_paddr=0)
        assert gpt.line_of(0) == gpt.line_of(7)
        assert gpt.line_of(7) != gpt.line_of(8)

    def test_needs_positive_slots(self):
        with pytest.raises(ValueError):
            GappedPageTable(0, base_paddr=0)


class TestInsert:
    def test_insert_at_predicted(self):
        gpt = GappedPageTable(16, 0)
        slot = gpt.insert(5, make_pte(42), max_displacement=4)
        assert slot == 5
        assert gpt.occupied == 1

    def test_collision_displaces_nearest(self):
        gpt = GappedPageTable(16, 0)
        gpt.insert(5, make_pte(1), 4)
        slot = gpt.insert(5, make_pte(2), 4)
        assert slot in (4, 6)
        assert gpt.max_displacement == 1

    def test_displacement_bound_enforced(self):
        gpt = GappedPageTable(8, 0)
        for i in range(5):
            gpt.insert(3, make_pte(i), 2)
        with pytest.raises(GPTFullError):
            gpt.insert(3, make_pte(99), 2)

    def test_clamps_out_of_range_prediction(self):
        gpt = GappedPageTable(8, 0)
        slot = gpt.insert(100, make_pte(1), 2)
        assert slot == 7

    def test_remove_leaves_gap(self):
        gpt = GappedPageTable(8, 0)
        slot = gpt.insert(2, make_pte(7), 2)
        removed = gpt.remove(slot)
        assert removed.vpn == 7
        assert gpt.occupied == 0
        # Gap is reusable.
        assert gpt.insert(2, make_pte(8), 2) == slot

    def test_remove_empty_slot_raises(self):
        gpt = GappedPageTable(8, 0)
        with pytest.raises(KeyError):
            gpt.remove(3)


def _insert_each(gpt, predictions, ptes, cap):
    """The per-entry loop ``place`` replaced in leaf builds and
    retrains: the reference."""
    for predicted, pte in zip(predictions, ptes):
        gpt.insert(predicted, pte, cap)


def _placed(gpt):
    """Which entry object sits in each slot, and the counters."""
    return [id(e) if e is not None else None for e in gpt._slots], \
        gpt.occupied, gpt.max_displacement


class TestPlace:
    """``place`` leaves what one ``insert`` per entry leaves: the same
    slots, ``occupied``, ``max_displacement``, and on
    ``GPTFullError`` the same partial placement."""

    @settings(max_examples=300, deadline=None)
    @given(
        num_slots=st.integers(min_value=1, max_value=64),
        predictions=st.lists(st.integers(min_value=-8, max_value=72), max_size=80),
        sort=st.sampled_from(["strict", "sorted", "none"]),
        preload=st.lists(st.integers(min_value=0, max_value=63), max_size=5),
        cap=st.integers(min_value=0, max_value=12),
    )
    def test_matches_insert_loop(self, num_slots, predictions, sort, preload, cap):
        if sort == "strict":
            predictions = sorted(set(predictions))
        elif sort == "sorted":
            predictions = sorted(predictions)
        ptes = [make_pte(i) for i in range(len(predictions))]
        reference, placed = GappedPageTable(num_slots, 0), GappedPageTable(num_slots, 0)
        for slot in preload:
            # An occupied table must take the per-entry path.
            pte = make_pte(1000 + slot)
            for gpt in (reference, placed):
                if slot < num_slots and gpt._slots[slot] is None:
                    gpt.insert(slot, pte, 0)
        outcomes = []
        for gpt, run in ((reference, _insert_each), (placed, GappedPageTable.place)):
            try:
                run(gpt, np.array(predictions, dtype=np.int64), ptes, cap)
                outcomes.append(None)
            except GPTFullError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert _placed(placed) == _placed(reference)

    def test_rising_predictions_go_straight_to_their_slots(self):
        gpt = GappedPageTable(10, 0)
        ptes = [make_pte(v) for v in range(4)]
        gpt.place(np.array([0, 3, 4, 9]), ptes, 0)
        assert [gpt._slots[s] for s in (0, 3, 4, 9)] == ptes
        assert (gpt.occupied, gpt.max_displacement) == (4, 0)

    def test_colliding_predictions_search_as_insert_does(self):
        gpt = GappedPageTable(10, 0)
        ptes = [make_pte(v) for v in range(3)]
        gpt.place(np.array([5, 5, 5]), ptes, 2)
        assert [gpt._slots[s] for s in (5, 6, 4)] == ptes
        with pytest.raises(GPTFullError):
            gpt.place(np.array([5]), [make_pte(9)], 1)


class TestLiveSlot:
    @pytest.mark.parametrize("seed", range(12))
    def test_kth_live_slot_matches_entries(self, seed):
        """Seeded tables with holes: inserts, removes and corrupted
        entries; ``live_slot(k)`` is ``entries()[k][0]`` for every k."""
        rng = np.random.default_rng(seed)
        num_slots = int(rng.integers(1, 200))
        gpt = GappedPageTable(num_slots, base_paddr=0x1000)
        for vpn in range(int(rng.integers(1, num_slots + 1))):
            gpt.insert(int(rng.integers(0, num_slots)), make_pte(vpn), num_slots)
        live = [slot for slot, _ in gpt.entries()]
        for slot in rng.choice(live, size=len(live) // 3, replace=False).tolist():
            gpt.remove(slot)
        for slot, _ in gpt.entries()[::4]:
            gpt.corrupt_slot(slot, fld="vpn", bit=3)
        entries = gpt.entries()
        assert gpt.occupied == len(entries)
        assert [gpt.live_slot(k) for k in range(gpt.occupied)] == [
            slot for slot, _ in entries
        ]


class TestExpand:
    def test_expand_keeps_entries(self):
        gpt = GappedPageTable(8, 0x1000)
        gpt.insert(2, make_pte(5), 2)
        gpt.expand(8)
        assert gpt.num_slots == 16
        found = gpt.lookup(2, 5, window=2)
        assert found.hit and found.pte.vpn == 5

    def test_expand_with_rebase(self):
        gpt = GappedPageTable(8, 0x1000)
        gpt.insert(2, make_pte(5), 2)
        gpt.expand(8, new_base_paddr=0x9000)
        assert gpt.base_paddr == 0x9000
        assert gpt.slot_paddr(0) == 0x9000

    def test_expand_negative_rejected(self):
        gpt = GappedPageTable(8, 0)
        with pytest.raises(ValueError):
            gpt.expand(-1)


class TestLookup:
    def test_exact_hit_single_line(self):
        gpt = GappedPageTable(64, 0)
        gpt.insert(10, make_pte(100), 4)
        res = gpt.lookup(10, 100, window=4)
        assert res.hit
        assert res.lines_touched == 1

    def test_displaced_entry_found_within_window(self):
        gpt = GappedPageTable(64, 0)
        gpt.insert(10, make_pte(1), 8)
        gpt.insert(10, make_pte(2), 8)
        res = gpt.lookup(10, 2, window=8)
        assert res.hit and res.pte.vpn == 2

    def test_miss_returns_lines_for_accounting(self):
        gpt = GappedPageTable(64, 0)
        res = gpt.lookup(10, 999, window=4)
        assert not res.hit
        assert res.lines_touched >= 1

    def test_huge_page_round_down(self):
        gpt = GappedPageTable(64, 0)
        gpt.insert(3, make_pte(1024, PageSize.SIZE_2M), 4)
        res = gpt.lookup(3, 1024 + 200, window=4)
        assert res.hit and res.pte.vpn == 1024

    def test_find_slot_exact_match_only(self):
        gpt = GappedPageTable(64, 0)
        gpt.insert(3, make_pte(1024, PageSize.SIZE_2M), 4)
        assert gpt.find_slot(3, 1024, window=4) == 3
        with pytest.raises(KeyError):
            gpt.find_slot(3, 1025, window=4)

    def test_lookup_line_paddrs_ordered_center_first(self):
        gpt = GappedPageTable(640, 0)
        gpt.insert(100, make_pte(1), 64)
        gpt.insert(100, make_pte(2), 64)
        # Force a scan that crosses lines.
        for i in range(3, 20):
            gpt.insert(100, make_pte(i), 64)
        res = gpt.lookup(100, 19, window=64)
        assert res.hit
        assert res.line_paddrs[0] == gpt.line_of(100) * 64


class TestProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=200), min_size=1, max_size=60,
        )
    )
    def test_everything_inserted_is_findable(self, predictions):
        gpt = GappedPageTable(512, 0)
        entries = []
        for i, pred in enumerate(predictions):
            pte = make_pte(10_000 + i)
            gpt.insert(pred, pte, max_displacement=256)
            entries.append((pred, pte))
        window = gpt.max_displacement + 1
        for pred, pte in entries:
            res = gpt.lookup(pred, pte.vpn, window=window)
            assert res.hit and res.pte is pte

    @given(st.integers(min_value=1, max_value=100))
    def test_occupancy_never_exceeds_slots(self, n):
        gpt = GappedPageTable(n, 0)
        inserted = 0
        for i in range(n + 10):
            try:
                gpt.insert(i % n, make_pte(i), max_displacement=n)
                inserted += 1
            except GPTFullError:
                break
        assert gpt.occupied == inserted <= n
