"""Bulk population (`Process.mmap_all` → `map_many`) against the same
routine's per-event delivery.

The contract: for any set of non-overlapping VMAs, in any order, with
THP on or off, one ``map_many`` call leaves a page table in exactly the
state one map event per PTE leaves — the same radix tables and paddrs,
the same ECPT slots, bases, stats and CWT dict order, the same LVM
index — and the same process and allocator state.  A fault injector
whose plan fires nothing forces the per-event delivery.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import LearnedIndex
from repro.faults import FaultInjector, FaultPlan
from repro.kernel.process import Process
from repro.kernel.vma import VMA
from repro.mem.allocator import BumpAllocator
from repro.pagetables.ecpt import ECPT, _way_hash, _way_hash_column
from repro.pagetables.radix import RadixPageTable
from repro.types import PTE, Permission, TranslationError

# Wall-clock fields of the LVM stats; everything else must match.
_TIMING = ("management_time_s", "build_times_s", "retrain_times_s")


def state(obj):
    """A comparable dump of an object graph: dicts keep their
    insertion order, PTEs compare by value, timings are dropped."""
    if isinstance(obj, PTE):
        return ("PTE", obj.vpn, obj.ppn, int(obj.page_size), int(obj.perms),
                obj.accessed, obj.dirty, obj.present)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return ("dict", [(state(k), state(v)) for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [state(x) for x in obj])
    if isinstance(obj, (set, frozenset)):
        return ("set", sorted(obj))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.tolist())
    fields = dict(getattr(obj, "__dict__", {}))
    for name in getattr(type(obj), "__slots__", ()):
        fields[name] = getattr(obj, name)
    out = []
    for name, value in sorted(fields.items()):
        if name in _TIMING:
            continue
        if name == "_table_allocs":
            # Keyed by id(); the values, in allocation order, are the state.
            value = list(value.values())
        out.append((name, state(value)))
    return (type(obj).__name__, out)


@st.composite
def vma_sets(draw):
    """Non-overlapping VMAs, in a random mapping order: small and
    THP-sized ones, aligned and not, some file-backed."""
    count = draw(st.integers(min_value=1, max_value=12))
    cursor = draw(st.integers(min_value=0, max_value=1 << 20))
    vmas = []
    for _ in range(count):
        cursor += draw(st.sampled_from([0, 1, 7, 300, 512, 4096, 1 << 18]))
        pages = draw(st.sampled_from([1, 2, 37, 511, 512, 513, 1024, 1500, 2048]))
        vmas.append(VMA(
            start_vpn=cursor,
            pages=pages,
            perms=draw(st.sampled_from([Permission.RW, Permission.RX])),
            file_backed=draw(st.booleans()),
        ))
        cursor += pages
    order = draw(st.permutations(range(count)))
    return [vmas[i] for i in order]


def populated(make_table, vmas, thp, coverage, bulk, batch):
    allocator = BumpAllocator()
    table = make_table(allocator)
    process = Process(
        table, allocator=allocator, thp=thp, thp_coverage=coverage,
        injector=None if bulk else FaultInjector(FaultPlan()),
    )
    if batch:
        table.begin_batch()
    process.mmap_all(vmas)
    if batch:
        table.end_batch()
    return process


def assert_same(make_table, vmas, thp, coverage, batch=False):
    per_event = populated(make_table, vmas, thp, coverage, False, batch)
    bulk = populated(make_table, vmas, thp, coverage, True, batch)
    assert state(bulk.page_table) == state(per_event.page_table)
    assert state(bulk.allocator) == state(per_event.allocator)
    assert bulk.stats == per_event.stats
    assert bulk.next_ppn == per_event.next_ppn
    assert list(bulk.address_space) == list(per_event.address_space)


PROPERTY = settings(max_examples=30, deadline=None)


class TestBulkEqualsPerPage:
    @PROPERTY
    @given(vmas=vma_sets(), thp=st.booleans(), coverage=st.sampled_from([0.9, 1.0]))
    def test_radix(self, vmas, thp, coverage):
        assert_same(RadixPageTable, vmas, thp, coverage)

    @PROPERTY
    @given(
        vmas=vma_sets(), thp=st.booleans(), coverage=st.sampled_from([0.9, 1.0]),
        ways=st.sampled_from([2, 3]), initial=st.sampled_from([4, 16, 256]),
        max_load=st.sampled_from([0.3, 0.6, 0.95]),
    )
    # The 2 MB table grows between two growths of the 4 KB table: their
    # bases come from one allocator in PTE order.
    @example(
        vmas=[VMA(0, 100), VMA(1024, 5120), VMA(8192, 100)],
        thp=True, coverage=1.0, ways=2, initial=4, max_load=0.6,
    )
    # Two entries fill a table of load limit floor(0.3 * 4 * 2) = 2
    # exactly; neither path may grow it.
    @example(
        vmas=[VMA(0, 2)], thp=False, coverage=0.9, ways=2, initial=4, max_load=0.3,
    )
    def test_ecpt(self, vmas, thp, coverage, ways, initial, max_load):
        """Small tables and two ways force resizes, long kick chains
        and resizes nested inside resizes; each load limit bounds the
        batch positions a capacity's hash columns must hold."""
        assert_same(
            lambda a: ECPT(a, ways=ways, initial_size=initial, max_load=max_load),
            vmas, thp, coverage,
        )

    @PROPERTY
    @given(vmas=vma_sets(), thp=st.booleans())
    # Single pages, then one VMA: a leaf's per-key inserts overflow and
    # packing from its predictions runs off the end of its table.
    @example(
        vmas=[VMA(0, 1), VMA(1, 1), VMA(2, 1), VMA(10, 1), VMA(18, 1),
              VMA(26, 1), VMA(34, 1), VMA(42, 1), VMA(43, 37)],
        thp=False,
    )
    def test_lvm_inside_a_batch(self, vmas, thp):
        assert_same(LearnedIndex, vmas, thp, 0.9, batch=True)

    def test_ecpt_into_a_non_empty_table(self):
        """Entries already in the table are kicked and rehashed by the
        bulk insert exactly as by single maps."""
        rng = random.Random(5)
        vpns = rng.sample(range(1 << 16), 3000)
        ptes = [PTE(v, v + 7) for v in vpns]
        one_by_one, bulk = ECPT(initial_size=8), ECPT(initial_size=8)
        for pte in ptes:
            one_by_one.map(pte)
        for pte in ptes[:1000]:
            bulk.map(pte)
        bulk.map_many(ptes[1000:])
        assert state(bulk) == state(one_by_one)


class TestDuplicates:
    """A duplicate raises what ``map`` raises, after mapping exactly the
    entries before it."""

    @pytest.mark.parametrize("make", [
        RadixPageTable, lambda: ECPT(initial_size=8),
    ])
    def test_duplicate_in_batch(self, make):
        ptes = [PTE(v, v) for v in (10, 11, 12, 11, 13)]
        one_by_one, bulk = make(), make()
        with pytest.raises(TranslationError) as expected:
            for pte in ptes:
                one_by_one.map(pte)
        with pytest.raises(TranslationError) as raised:
            bulk.map_many(ptes)
        assert str(raised.value) == str(expected.value)
        assert state(bulk) == state(one_by_one)

    def test_lvm_batch_rejects_duplicates(self):
        index = LearnedIndex()
        index.begin_batch()
        index.map_many([PTE(1, 1), PTE(2, 2)])
        with pytest.raises(TranslationError, match="already mapped"):
            index.map_many([PTE(3, 3), PTE(2, 9)])
        index.end_batch()
        assert [p.vpn for p in index.mappings()] == [1, 2, 3]


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=(1 << 63) - 1), min_size=1),
    way=st.integers(min_value=0, max_value=5),
    capacity=st.integers(min_value=1, max_value=1 << 40),
)
def test_hash_column_matches_scalar_hash(keys, way, capacity):
    column = _way_hash_column(np.array(keys, dtype=np.int64), way).tolist()
    assert [h % capacity for h in column] == [_way_hash(k, way, capacity) for k in keys]
