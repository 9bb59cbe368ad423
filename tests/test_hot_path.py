"""The translate hot path's fused routines against the code they replace.

``MemoryHierarchy.access``/``walk_access``, ``TLBHierarchy.lookup``/
``insert``, the ``GappedPageTable`` searches, ``ECPT.walk`` and the
three walkers run their structures' logic inline over containers bound
at construction.  Each reference below is the replaced routine, kept
as it was: a chain of ``Cache.access``/``Cache.fill`` calls, per-array
``TLBArray`` calls, the per-slot closures of the in-leaf searches, the
helper-built ECPT walk, and walkers that go through the walk caches'
own methods.  Every test drives the fused routine and its reference
with the same seeded stream and compares results and the full state
left behind, LRU orders included.
"""

import random
from typing import List, Optional

import numpy as np
import pytest

from repro.core.gapped_page_table import (
    CACHE_LINE_SIZE,
    GappedPageTable,
    GPTFullError,
    GPTLookup,
)
from repro.core.learned_index import LearnedIndex
from repro.errors import ConfigError
from repro.extensions.learned_cache import LearnedCache
from repro.mem.allocator import BumpAllocator
from repro.mmu.cache import Cache
from repro.mmu.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mmu.tlb import TLBConfig, TLBHierarchy
from repro.mmu.walk_cache import CWC, LWC, RadixPWC
from repro.mmu.walker import ECPTWalker, LVMWalker, RadixWalker, WalkOutcome
from repro.pagetables.ecpt import (
    CWT_ENTRY_BYTES,
    ECPT,
    PMD_REGION_PAGES,
    PUD_REGION_PAGES,
    _way_hash,
)
from repro.pagetables.radix import RadixPageTable
from repro.types import PTE, AccessKind, PageSize, WalkAccess, WalkResult

# -- the cache hierarchy ---------------------------------------------------


class ChainHierarchy:
    """The hierarchy as it was: a chain of ``Cache.access`` calls, and
    ``Cache.fill`` calls for the next-line prefetcher."""

    def __init__(self, config: HierarchyConfig, l3: Optional[Cache] = None):
        c = self.config = config
        self.l1 = Cache("L1D", c.l1_size, c.l1_ways, c.l1_latency)
        self.l2 = Cache("L2", c.l2_size, c.l2_ways, c.l2_latency)
        self.l3 = l3 if l3 is not None else Cache("L3", c.l3_size, c.l3_ways, c.l3_latency)
        self.dram_accesses = 0
        self._chains = {
            "l1": (self.l1, self.l2, self.l3),
            "l2": (self.l2, self.l3),
            "l3": (self.l3,),
        }

    def access(self, paddr: int, entry: str = "l1", is_walk: bool = False) -> int:
        for cache in self._chains[entry]:
            if cache.access(paddr, is_walk):
                return cache.latency
        self.dram_accesses += 1
        if not is_walk and self.config.prefetch_degree > 0 and entry == "l1":
            line = paddr - (paddr % 64)
            for step in range(1, self.config.prefetch_degree + 1):
                target = line + step * 64
                self.l1.fill(target)
                self.l2.fill(target)
                self.l3.fill(target)
        return self.config.l3_latency + self.config.dram_latency

    def walk_access(self, paddr: int) -> int:
        return self.access(paddr, self.config.walker_entry, True)


def cache_state(cache: Cache):
    """Counters and every set's lines in LRU order (sets in creation
    order)."""
    return (
        cache.hits,
        cache.misses,
        cache.walk_misses,
        [(index, list(lines)) for index, lines in cache._sets.items()],
    )


def hierarchy_state(h):
    return (h.dram_accesses, [cache_state(c) for c in (h.l1, h.l2, h.l3)])


# Small caches, so that sets fill and evict; the L3 has a set count
# that is not a power of two.
SMALL = dict(
    l1_size=2 << 10, l1_ways=4,
    l2_size=8 << 10, l2_ways=4,
    l3_size=48 * 6 * 64, l3_ways=6,
)


def address_stream(rng: random.Random, count: int) -> List[int]:
    """Reuse, streams (which the prefetcher serves) and random lines,
    with arbitrary byte offsets."""
    out: List[int] = []
    hot = [rng.randrange(1 << 24) for _ in range(40)]
    while len(out) < count:
        pick = rng.random()
        if pick < 0.4:
            out.append(rng.choice(hot) + rng.randrange(64))
        elif pick < 0.6:
            start = rng.randrange(1 << 22)
            out.extend(start + 64 * i + rng.randrange(64) for i in range(rng.randint(2, 8)))
        else:
            out.append(rng.randrange(1 << 30))
    return out[:count]


@pytest.mark.parametrize("walker_entry", ["l1", "l2", "l3"])
@pytest.mark.parametrize("prefetch_degree", [0, 1, 2, 3])
def test_hierarchy_matches_cache_chain(walker_entry, prefetch_degree):
    config = HierarchyConfig(
        walker_entry=walker_entry, prefetch_degree=prefetch_degree, **SMALL
    )
    fused, chain = MemoryHierarchy(config), ChainHierarchy(config)
    rng = random.Random(f"{walker_entry}:{prefetch_degree}")
    for paddr in address_stream(rng, 3000):
        if rng.random() < 0.5:
            assert fused.access(paddr) == chain.access(paddr)
        else:
            assert fused.walk_access(paddr) == chain.walk_access(paddr)
    assert hierarchy_state(fused) == hierarchy_state(chain)
    assert fused.l1.hits and fused.l3.misses and fused.l3.walk_misses


@pytest.mark.parametrize("prefetch_degree", [0, 2])
def test_two_hierarchies_sharing_one_l3(prefetch_degree):
    config = HierarchyConfig(prefetch_degree=prefetch_degree, **SMALL)
    first = MemoryHierarchy(config)
    fused = (first, MemoryHierarchy(config, first.l3))
    head = ChainHierarchy(config)
    chain = (head, ChainHierarchy(config, head.l3))
    rng = random.Random(prefetch_degree)
    for paddr in address_stream(rng, 4000):
        core = rng.randrange(2)
        if rng.random() < 0.5:
            assert fused[core].access(paddr) == chain[core].access(paddr)
        else:
            assert fused[core].walk_access(paddr) == chain[core].walk_access(paddr)
    for f, c in zip(fused, chain):
        assert hierarchy_state(f) == hierarchy_state(c)
    assert fused[0].l3 is fused[1].l3


def test_hierarchy_refuses_an_l3_it_cannot_index_inline():
    config = HierarchyConfig()
    with pytest.raises(ConfigError):
        MemoryHierarchy(config, LearnedCache("L3", 64 << 10, 16, 56, list(range(0, 1 << 20, 4096))))
    with pytest.raises(ConfigError):
        MemoryHierarchy(config, Cache("L3", 64 << 10, 16, 56, line_size=128))
    shared = Cache("L3", 64 << 10, 16, 56)
    assert MemoryHierarchy(config, shared).l3 is shared


# -- the TLBs --------------------------------------------------------------


def arrays_of(tlb: TLBHierarchy):
    return (*tlb.l1.values(), *tlb.l2.values())


def per_array_lookup(tlb: TLBHierarchy, vpn: int, asid: int):
    """``TLBHierarchy.lookup`` as it was: ``TLBArray.lookup`` on each
    array, ``TLBArray.insert`` to refill the L1 on an L2 hit."""
    for arr in (tlb.l1[PageSize.SIZE_4K], tlb.l1[PageSize.SIZE_2M]):
        pte = arr.lookup(vpn, asid)
        if pte is not None and pte.covers(vpn):
            return pte, 0
    for arr in (tlb.l2[PageSize.SIZE_4K], tlb.l2[PageSize.SIZE_2M]):
        pte = arr.lookup(vpn, asid)
        if pte is not None and pte.covers(vpn):
            size = PageSize.SIZE_2M if pte.page_size is PageSize.SIZE_1G else pte.page_size
            tlb.l1[size].insert(pte, asid)
            return pte, tlb.config.l2_latency
    return None, tlb.config.l2_latency


def per_array_insert(tlb: TLBHierarchy, pte: PTE, asid: int) -> None:
    size = PageSize.SIZE_2M if pte.page_size is PageSize.SIZE_1G else pte.page_size
    tlb.l1[size].insert(pte, asid)
    tlb.l2[size].insert(pte, asid)


def tlb_state(tlb: TLBHierarchy):
    return [
        (arr.hits, arr.misses,
         [(index, [(key, id(pte)) for key, pte in entries.items()])
          for index, entries in arr._sets.items()])
        for arr in arrays_of(tlb)
    ]


def tlb_entries(rng: random.Random) -> List[PTE]:
    """4 KB, 2 MB and 1 GB entries, plus 2 MB entries whose VPN is not
    2 MB-aligned: those can hit in their array without covering the
    probed VPN."""
    ptes = [PTE(rng.randrange(1 << 14), rng.randrange(1 << 20)) for _ in range(150)]
    ptes += [PTE(512 * rng.randrange(64), rng.randrange(1 << 20), PageSize.SIZE_2M)
             for _ in range(30)]
    ptes += [PTE(512 * rng.randrange(64) + rng.randrange(1, 512), rng.randrange(1 << 20),
                 PageSize.SIZE_2M) for _ in range(10)]
    ptes += [PTE(0, 7, PageSize.SIZE_1G), PTE(1 << 18, 9, PageSize.SIZE_1G)]
    return ptes


@pytest.mark.parametrize("seed", range(4))
def test_tlb_matches_per_array_calls(seed):
    config = TLBConfig(l1_4k_entries=8, l1_4k_ways=2, l1_2m_entries=4, l1_2m_ways=2,
                       l2_entries_per_size=24, l2_ways=3, l2_latency=7)
    fused, reference = TLBHierarchy(config), TLBHierarchy(config)
    rng = random.Random(seed)
    ptes = tlb_entries(rng)
    outcomes = set()
    for _ in range(6000):
        asid = rng.randrange(3)
        pte = rng.choice(ptes)
        if rng.random() < 0.15:
            fused.insert(pte, asid)
            per_array_insert(reference, pte, asid)
            continue
        vpn = pte.vpn + rng.randrange(pte.page_size.pages_4k + 4)
        got, want = fused.lookup(vpn, asid), per_array_lookup(reference, vpn, asid)
        assert got[0] is want[0] and got[1] == want[1]
        outcomes.add(want[1] if want[0] is not None else None)
        if got[0] is None and pte.covers(vpn):
            # What the MMU does after the walk.
            fused.insert(pte, asid)
            per_array_insert(reference, pte, asid)
    assert outcomes == {0, 7, None}
    assert tlb_state(fused) == tlb_state(reference)


# -- the in-leaf searches ---------------------------------------------------


def closure_lookup(table: GappedPageTable, predicted: int, query_vpn: int, window: int):
    """``GappedPageTable.lookup`` as it was: one closure call per slot."""
    center = table._clamp(predicted)
    seen = set()
    line_paddrs: List[int] = []
    corrupt = [False]

    def probe(slot: int) -> Optional[PTE]:
        line = table.line_of(slot)
        if line not in seen:
            seen.add(line)
            line_paddrs.append(line * CACHE_LINE_SIZE)
        entry = table._slots[slot]
        if entry is None:
            return None
        if not entry.is_intact():
            corrupt[0] = True
            return None
        if entry.covers(query_vpn):
            return entry
        return None

    found = probe(center)
    if found is not None:
        return GPTLookup(found, center, line_paddrs, corrupt[0])
    step = 1
    while step <= window:
        for slot in (center + step, center - step):
            if 0 <= slot < table.num_slots:
                found = probe(slot)
                if found is not None:
                    return GPTLookup(found, slot, line_paddrs, corrupt[0])
        step += 1
    return GPTLookup(None, -1, line_paddrs, corrupt[0])


def closure_lookup_sorted(table: GappedPageTable, predicted: int, query_vpn: int, window: int):
    """``GappedPageTable.lookup_sorted`` as it was."""
    lo = max(0, predicted - window)
    hi = min(table.num_slots - 1, predicted + window)
    seen = set()
    line_paddrs: List[int] = []
    corrupt = [False]

    def touch(slot: int):
        line = table.line_of(slot)
        if line not in seen:
            seen.add(line)
            line_paddrs.append(line * CACHE_LINE_SIZE)

    def entry_at_or_left(slot: int):
        while slot >= lo:
            touch(slot)
            entry = table._slots[slot]
            if entry is not None:
                if entry.is_intact():
                    return slot
                corrupt[0] = True
            slot -= 1
        return None

    best = None
    low, high = lo, hi
    while low <= high:
        mid = (low + high) // 2
        probe = entry_at_or_left(mid)
        if probe is None:
            low = mid + 1
            continue
        entry = table._slots[probe]
        if entry.vpn <= query_vpn:
            best = probe
            low = mid + 1
        else:
            high = probe - 1
    if best is not None:
        entry = table._slots[best]
        if entry.covers(query_vpn):
            return GPTLookup(entry, best, line_paddrs, corrupt[0])
    return GPTLookup(None, -1, line_paddrs, corrupt[0])


def closure_find_slot(table: GappedPageTable, predicted: int, vpn: int, window: int) -> int:
    """``GappedPageTable.find_slot`` as it was."""
    center = table._clamp(predicted)
    entry = table._slots[center]
    if entry is not None and entry.vpn == vpn and entry.is_intact():
        return center
    step = 1
    while step <= window:
        for slot in (center + step, center - step):
            if 0 <= slot < table.num_slots:
                entry = table._slots[slot]
                if entry is not None and entry.vpn == vpn and entry.is_intact():
                    return slot
        step += 1
    raise KeyError(vpn)


def property_insert(table: GappedPageTable, predicted: int, pte: PTE, max_displacement: int) -> int:
    """``GappedPageTable.insert`` as it was: ``num_slots`` per probe."""
    center = table._clamp(predicted)
    if table._slots[center] is None:
        table._slots[center] = pte
        table.occupied += 1
        disp = abs(center - predicted)
        if disp > table.max_displacement:
            table.max_displacement = disp
        return center
    step = 1
    while step <= max_displacement:
        for slot in (center + step, center - step):
            if 0 <= slot < table.num_slots and table._slots[slot] is None:
                table._slots[slot] = pte
                table.occupied += 1
                disp = abs(slot - predicted)
                if disp > table.max_displacement:
                    table.max_displacement = disp
                return slot
        step += 1
    raise GPTFullError(predicted)


def same_lookup(got: GPTLookup, want: GPTLookup) -> bool:
    return (got.pte is want.pte and got.slot == want.slot
            and got.line_paddrs == want.line_paddrs
            and got.corrupt_seen == want.corrupt_seen)


def random_table(rng: random.Random, in_key_order: bool) -> GappedPageTable:
    """A table of 1-150 slots at a base that need not be line-aligned,
    holding 4 KB and 2 MB entries (in slot order of their VPNs when
    ``in_key_order``), some of them corrupt."""
    count = rng.randint(1, 150)
    table = GappedPageTable(count, rng.choice([0, 1 << 30, 8 * rng.randrange(1 << 24)]))
    density = rng.choice([0.1, 0.5, 0.9, 1.0])
    vpn = 512 * rng.randrange(1 << 10)
    for slot in range(count):
        if rng.random() >= density:
            continue
        huge = rng.random() < 0.1
        if in_key_order:
            vpn += 512 * rng.randint(1, 2) if huge else rng.randint(1, 3)
            if huge:
                vpn -= vpn % 512
            first = vpn
        else:
            first = 512 * rng.randrange(1 << 10) + (0 if huge else rng.randrange(512))
        entry = PTE(first, rng.randrange(1 << 24), PageSize.SIZE_2M if huge else PageSize.SIZE_4K)
        if huge and in_key_order:
            vpn += 511
        if rng.random() < 0.08:
            entry = entry.with_bitflip(rng.choice(["vpn", "ppn"]), rng.randrange(24))
        table._slots[slot] = entry
        table.occupied += 1
    if not in_key_order:
        # Stale twins: one entry in two slots, so that the probe order
        # decides which of them a search returns.
        live = [slot for slot, entry in enumerate(table._slots) if entry is not None]
        for slot in rng.sample(live, len(live) // 10):
            twin = rng.randrange(count)
            if table._slots[twin] is None:
                table.occupied += 1
            table._slots[twin] = table._slots[slot]
    return table


def query_vpns(rng: random.Random, table: GappedPageTable) -> List[int]:
    """First VPNs of entries, VPNs inside them, and VPNs near none."""
    live = [e for e in table._slots if e is not None]
    out = []
    for _ in range(12):
        if live and rng.random() < 0.7:
            entry = rng.choice(live)
            out.append(entry.vpn + rng.randrange(entry.page_size.pages_4k + 1))
        else:
            out.append(rng.randrange(1 << 20))
    return out


def search_arguments(rng: random.Random, table: GappedPageTable):
    """Predictions inside the table, off both ends (clamped centres)
    and windows from 0 past the table's width."""
    count = table.num_slots
    for vpn in query_vpns(rng, table):
        predicted = rng.randrange(-12, count + 12)
        window = rng.choice([0, 1, 2, rng.randrange(count + 1), count + 5])
        yield predicted, vpn, window


def outcome(result: GPTLookup) -> str:
    return ("hit" if result.pte is not None else "miss") + (
        "+corrupt" if result.corrupt_seen else "")


def test_lookup_matches_closure_search():
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        table = random_table(rng, in_key_order=False)
        for predicted, vpn, window in search_arguments(rng, table):
            want = closure_lookup(table, predicted, vpn, window)
            assert same_lookup(table.lookup(predicted, vpn, window), want)
            seen.add(outcome(want))
    assert seen == {"hit", "miss", "hit+corrupt", "miss+corrupt"}


def test_lookup_sorted_matches_closure_search():
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        table = random_table(rng, in_key_order=True)
        for predicted, vpn, window in search_arguments(rng, table):
            want = closure_lookup_sorted(table, predicted, vpn, window)
            assert same_lookup(table.lookup_sorted(predicted, vpn, window), want)
            seen.add(outcome(want))
    assert seen == {"hit", "miss", "hit+corrupt", "miss+corrupt"}


def test_find_slot_matches_closure_search():
    found = missing = 0
    for seed in range(40):
        rng = random.Random(seed)
        table = random_table(rng, in_key_order=rng.random() < 0.5)
        for predicted, vpn, window in search_arguments(rng, table):
            try:
                want = closure_find_slot(table, predicted, vpn, window)
            except KeyError:
                missing += 1
                with pytest.raises(KeyError):
                    table.find_slot(predicted, vpn, window)
            else:
                found += 1
                assert table.find_slot(predicted, vpn, window) == want
    assert found and missing


@pytest.mark.parametrize("center", [0, 3, 7, 12, 15])
def test_searches_probe_right_before_left(center):
    """An entry and its stale twin at equal distances on both sides of
    the predicted slot: each search returns the one it reaches first."""
    for distance in range(1, 16):
        table = GappedPageTable(16, 64 * 3 + 8)
        entry = PTE(1000, 5)
        for slot in (center - distance, center + distance):
            if 0 <= slot < 16:
                table._slots[slot] = entry
        for window in (distance - 1, distance, 20):
            want = closure_lookup(table, center, 1000, window)
            assert same_lookup(table.lookup(center, 1000, window), want)
            try:
                slot = closure_find_slot(table, center, 1000, window)
            except KeyError:
                with pytest.raises(KeyError):
                    table.find_slot(center, 1000, window)
            else:
                assert table.find_slot(center, 1000, window) == slot == want.slot


@pytest.mark.parametrize("fld", ["vpn", "ppn"])
@pytest.mark.parametrize("twin", [None, 5, 9])
def test_searches_pass_over_a_corrupt_predicted_entry(fld, twin):
    """A corrupt copy in the predicted slot, with or without an intact
    entry for the same VPN nearby: the corrupt one is never returned."""
    entry = PTE(1000, 5)
    table = GappedPageTable(16, 0)
    table._slots[7] = entry.with_bitflip(fld, 3)
    if twin is not None:
        table._slots[twin] = entry
    for window in range(4):
        want = closure_lookup(table, 7, 1000, window)
        assert same_lookup(table.lookup(7, 1000, window), want)
        assert want.corrupt_seen
        try:
            slot = closure_find_slot(table, 7, 1000, window)
        except KeyError:
            with pytest.raises(KeyError):
                table.find_slot(7, 1000, window)
        else:
            assert table.find_slot(7, 1000, window) == slot == twin


@pytest.mark.parametrize("seed", range(20))
def test_insert_matches_property_search(seed):
    rng = random.Random(seed)
    fused = random_table(rng, in_key_order=False)
    reference = GappedPageTable(fused.num_slots, fused.base_paddr)
    reference._slots = list(fused._slots)
    reference.occupied = fused.occupied
    full = 0
    for _ in range(fused.num_slots + 5):
        pte = PTE(rng.randrange(1 << 20), rng.randrange(1 << 20))
        predicted = rng.randrange(-5, fused.num_slots + 5)
        bound = rng.choice([0, 1, 3, fused.num_slots])
        try:
            want = property_insert(reference, predicted, pte, bound)
        except GPTFullError:
            full += 1
            with pytest.raises(GPTFullError):
                fused.insert(predicted, pte, bound)
        else:
            assert fused.insert(predicted, pte, bound) == want
        assert [id(e) for e in fused._slots] == [id(e) for e in reference._slots]
        assert (fused.occupied, fused.max_displacement) == (
            reference.occupied, reference.max_displacement)
    assert full


@pytest.mark.parametrize("free", [0, 1, 6, 7])
@pytest.mark.parametrize("predicted", [-2, 0, 3, 4, 7, 9])
def test_insert_reaches_both_edges(free, predicted):
    """One free slot in a full table of 8: the search finds it up to
    the table's edges, and only within ``max_displacement``."""
    for bound in range(9):
        fused, reference = GappedPageTable(8, 0), GappedPageTable(8, 0)
        for table in (fused, reference):
            for slot in range(8):
                if slot != free:
                    table._slots[slot] = PTE(slot, slot)
            table.occupied = 7
        pte = PTE(99, 99)
        try:
            want = property_insert(reference, predicted, pte, bound)
        except GPTFullError:
            with pytest.raises(GPTFullError):
                fused.insert(predicted, pte, bound)
        else:
            assert fused.insert(predicted, pte, bound) == want == free
            assert fused.max_displacement == reference.max_displacement


# Trusted tables: built and changed only through the table's own doors,
# so the searches skip the integrity check until a door withdraws it.


def os_records(rng: random.Random, count: int) -> List[PTE]:
    """Intact 4 KB and 2 MB entries in VPN order, as the OS records
    them."""
    vpn = 512 * rng.randrange(1 << 10)
    out = []
    for _ in range(count):
        huge = rng.random() < 0.1
        if huge:
            vpn += -vpn % 512
        out.append(PTE(vpn, rng.randrange(1 << 24), PageSize.SIZE_2M if huge else PageSize.SIZE_4K))
        vpn += 512 if huge else rng.randint(1, 3)
    return out


def fill_through_a_door(rng: random.Random, table: GappedPageTable) -> None:
    """``place`` (rising predictions or colliding ones) or
    ``bulk_place`` of OS records."""
    count = table.num_slots
    ptes = os_records(rng, rng.randint(0, count))
    door = rng.choice(["place", "place", "bulk_place"])
    if door == "place" and rng.random() < 0.5:
        predictions = sorted(rng.sample(range(count), len(ptes)))
    else:
        predictions = sorted(rng.randrange(-3, count + 3) for _ in ptes)
    try:
        if door == "place":
            table.place(np.array(predictions, dtype=np.int64), ptes, rng.choice([1, 4, count]))
        else:
            table.bulk_place(predictions, ptes)
    except GPTFullError:
        pass


def twin(table: GappedPageTable) -> GappedPageTable:
    """An untrusted copy, built by writing ``_slots``."""
    copy = GappedPageTable(table.num_slots, table.base_paddr)
    copy._slots = list(table._slots)
    copy.occupied, copy.max_displacement = table.occupied, table.max_displacement
    return copy


def fresh_or_damaged(rng: random.Random, table: GappedPageTable) -> PTE:
    """A new entry near the table's VPNs, sometimes one that fails its
    check."""
    live = [e for e in table._slots if e is not None]
    vpn = rng.choice(live).vpn + rng.randint(-2, 2) if live else rng.randrange(1 << 20)
    pte = PTE(max(0, vpn), rng.randrange(1 << 24))
    if rng.random() < 0.15:
        return pte.with_bitflip(rng.choice(["vpn", "ppn"]), rng.randrange(24))
    return pte


def check_searches(rng: random.Random, table: GappedPageTable, seen: set) -> None:
    """Every search of ``table`` against its closure reference, then an
    insert against the property search on an untrusted twin."""
    for predicted, vpn, window in search_arguments(rng, table):
        want = closure_lookup(table, predicted, vpn, window)
        assert same_lookup(table.lookup(predicted, vpn, window), want)
        seen.add((table.trusted, outcome(want)))
        if want.pte is not None and want.slot != table._clamp(predicted):
            seen.add((table.trusted, "collided"))
        want = closure_lookup_sorted(table, predicted, vpn, window)
        assert same_lookup(table.lookup_sorted(predicted, vpn, window), want)
        try:
            slot = closure_find_slot(table, predicted, vpn, window)
        except KeyError:
            with pytest.raises(KeyError):
                table.find_slot(predicted, vpn, window)
        else:
            assert table.find_slot(predicted, vpn, window) == slot
    reference = twin(table)
    pte = fresh_or_damaged(rng, table)
    predicted = rng.randrange(-5, table.num_slots + 5)
    bound = rng.choice([0, 1, 3, table.num_slots])
    try:
        want = property_insert(reference, predicted, pte, bound)
    except GPTFullError:
        with pytest.raises(GPTFullError):
            table.insert(predicted, pte, bound)
    else:
        assert table.insert(predicted, pte, bound) == want
    assert [id(e) for e in table._slots] == [id(e) for e in reference._slots]
    assert (table.occupied, table.max_displacement) == (
        reference.occupied, reference.max_displacement)


def test_searches_of_door_built_tables_match_references():
    """Seeded op sequences through every door, each op followed by
    every search: trust starts at a fill of an empty table and at
    ``clear``, ends at ``corrupt_slot`` and at an insert of an entry
    that fails its check, and a trusted table never holds damage."""
    seen: set = set()
    for seed in range(30):
        rng = random.Random(seed)
        count = rng.randint(1, 150)
        base = rng.choice([0, 1 << 30, 8 * rng.randrange(1 << 24), 64 * 5 + 24])
        table = GappedPageTable(count, base)
        assert not table.trusted
        fill_through_a_door(rng, table)
        assert table.trusted
        check_searches(rng, table, seen)
        for _ in range(25):
            trusted = table.trusted
            op = rng.choice(["insert", "remove", "corrupt", "clear", "expand", "fill"])
            live = [slot for slot, entry in enumerate(table._slots) if entry is not None]
            if op == "insert":
                pte = fresh_or_damaged(rng, table)
                try:
                    table.insert(
                        rng.randrange(table.num_slots), pte, rng.choice([2, table.num_slots]))
                except GPTFullError:
                    pass
                trusted = trusted and pte.is_intact()
            elif op == "remove" and live:
                table.remove(rng.choice(live))
            elif op == "corrupt" and live:
                table.corrupt_slot(rng.choice(live), rng.choice(["vpn", "ppn"]), rng.randrange(24))
                trusted = False
            elif op == "clear":
                table.clear()
                trusted = True
            elif op == "expand":
                table.expand(rng.randrange(20), rng.choice([None, 8 * rng.randrange(1 << 24) + 8]))
            elif op == "fill":
                trusted = trusted or not table.occupied
                fill_through_a_door(rng, table)
            assert table.trusted == trusted
            assert not table.trusted or table.corrupt_entry_count() == 0
            check_searches(rng, table, seen)
            assert not table.trusted or table.corrupt_entry_count() == 0
    assert {
        (True, "hit"), (True, "miss"), (True, "collided"),
        (False, "hit"), (False, "collided"),
        (False, "hit+corrupt"), (False, "miss+corrupt"),
    } <= seen
    assert (True, "hit+corrupt") not in seen and (True, "miss+corrupt") not in seen


@pytest.mark.parametrize("center", [0, 3, 4, 7, 12, 15])
def test_trusted_searches_probe_right_before_left(center):
    """Two intact entries for one VPN, placed at equal distances on
    both sides of the predicted slot (one side may fall off the table),
    and a 2 MB entry covering it on the other side: each search of the
    trusted table returns the entry it reaches first."""
    for distance in range(1, 16):
        pairs = ((PTE(1000, 5), PTE(1000, 6)), (PTE(512, 7, PageSize.SIZE_2M), PTE(1000, 8)))
        for left, right in pairs:
            for base in (0, 64 * 3 + 8, 64 * 3 + 40):
                table = GappedPageTable(16, base)
                sides = ((center - distance, left), (center + distance, right))
                placed = [(slot, pte) for slot, pte in sides if 0 <= slot < 16]
                table.place(np.array([slot for slot, _ in placed], dtype=np.int64),
                            [pte for _, pte in placed], 16)
                assert table.trusted
                for window in (distance - 1, distance, 20):
                    want = closure_lookup(table, center, 1000, window)
                    assert same_lookup(table.lookup(center, 1000, window), want)
                    assert same_lookup(table.lookup_sorted(center, 1000, window),
                                       closure_lookup_sorted(table, center, 1000, window))
                    try:
                        slot = closure_find_slot(table, center, 1000, window)
                    except KeyError:
                        with pytest.raises(KeyError):
                            table.find_slot(center, 1000, window)
                    else:
                        assert table.find_slot(center, 1000, window) == slot


# -- the ECPT walk -----------------------------------------------------------


def helper_walk(ecpt: ECPT, vpn: int) -> WalkResult:
    """``ECPT.walk`` as it was, with the helpers it called inlined:
    ``pud_cwt_paddr``, ``needs_pmd_cwt``, ``pmd_cwt_paddr``,
    ``sizes_in_region`` and each table's ``probe_paddrs``."""
    ecpt.stats.lookups += 1
    accesses: List[WalkAccess] = []
    pud_paddr = ecpt._pud_cwt_base + (vpn // PUD_REGION_PAGES) % (1 << 17) * CWT_ENTRY_BYTES
    accesses.append(WalkAccess(pud_paddr, AccessKind.CWT, level=6))
    pud_counts = ecpt._pud_cwt.get(vpn // PUD_REGION_PAGES)
    if bool(pud_counts) and len(pud_counts) > 1:
        pmd_paddr = ecpt._pmd_cwt_base + (vpn // PMD_REGION_PAGES) % (1 << 17) * CWT_ENTRY_BYTES
        accesses.append(WalkAccess(pmd_paddr, AccessKind.CWT, level=5))
    if not pud_counts:
        sizes = []
    elif len(pud_counts) == 1:
        sizes = list(pud_counts)
    else:
        sizes = []
        pmd_counts = ecpt._pmd_cwt.get(vpn // PMD_REGION_PAGES)
        if pmd_counts:
            sizes.extend(s for s in (PageSize.SIZE_4K, PageSize.SIZE_2M) if s in pmd_counts)
        if PageSize.SIZE_1G in pud_counts:
            sizes.append(PageSize.SIZE_1G)
    found = None
    for size in sizes:
        table = ecpt.tables[size]
        key = table.key_of(vpn)
        probes = []
        for w in range(table.ways):
            slot = _way_hash(key, w, table._capacity)
            probes.append((w, slot, table._bases[w] + slot * 8))
        for way, slot, paddr in probes:
            accesses.append(
                WalkAccess(paddr, AccessKind.PT_LEAF, level=1, parallel_group=0)
            )
            entry = table._slots[way][slot]
            if (
                entry is not None
                and table.key_of(entry.vpn) == table.key_of(vpn)
                and entry.covers(vpn)
            ):
                found = entry
    ecpt.stats.probes_issued += sum(1 for a in accesses if a.kind is AccessKind.PT_LEAF)
    return WalkResult(found, accesses)


def mixed_ecpt(rng: random.Random) -> ECPT:
    """Regions of one page size, regions mixing 4 KB and 2 MB pages,
    and regions where 1 GB entries share the region with smaller ones
    (ECPT checks overlap only within one page size)."""
    ecpt = ECPT(BumpAllocator(), initial_size=64)
    mapped = set()

    def map_once(pte: PTE) -> None:
        if (pte.vpn, pte.page_size) not in mapped:
            mapped.add((pte.vpn, pte.page_size))
            ecpt.map(pte)

    for region in range(6):
        base = region * PUD_REGION_PAGES
        for _ in range(rng.randint(5, 60)):
            choice = rng.random()
            if region in (0, 2, 3) or choice < 0.6:
                map_once(PTE(base + rng.randrange(4 * PMD_REGION_PAGES), rng.randrange(1 << 20)))
            if region in (1, 2, 3) and choice < 0.3:
                vpn = base + PMD_REGION_PAGES * rng.randrange(8)
                map_once(PTE(vpn, rng.randrange(1 << 20), PageSize.SIZE_2M))
        if region in (3, 4):
            map_once(PTE(base, rng.randrange(1 << 20), PageSize.SIZE_1G))
    for vpn, size in rng.sample(sorted(mapped), len(mapped) // 8):
        ecpt.unmap(vpn)
        mapped.discard((vpn, size))
    return ecpt


@pytest.mark.parametrize("seed", range(6))
def test_ecpt_walk_matches_helper_walk(seed):
    rng = random.Random(seed)
    ecpt = mixed_ecpt(rng)
    mixes = {len(c) for c in ecpt._pud_cwt.values()}
    assert 1 in mixes and max(mixes) > 1
    stats = ecpt.stats
    hits = 0
    for _ in range(1500):
        region = rng.randrange(7)
        vpn = region * PUD_REGION_PAGES + rng.randrange(5 * PMD_REGION_PAGES)
        before = (stats.lookups, stats.probes_issued)
        want = helper_walk(ecpt, vpn)
        middle = (stats.lookups, stats.probes_issued)
        got = ecpt.walk(vpn)
        after = (stats.lookups, stats.probes_issued)
        assert got.pte is want.pte
        assert got.accesses == want.accesses
        assert [a - b for a, b in zip(after, middle)] == [a - b for a, b in zip(middle, before)]
        hits += got.pte is not None
    assert hits


# -- the walkers -------------------------------------------------------------


class MethodRadixWalker(RadixWalker):
    """``RadixWalker.walk`` as it was: through ``RadixPWC``'s own
    methods and its ``poison_detections`` property."""

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        result = self.table.walk(vpn)
        lowest = self.pwc.lowest_cached_level(vpn, asid)
        cycles = self.pwc.latency
        poison_now = self.pwc.poison_detections
        detected = poison_now - self._poison_seen
        if detected:
            self._poison_seen = poison_now
            self.poison_detections += detected
            cycles += detected * self.pwc.latency
        issued = 0
        for access in result.accesses:
            if lowest is not None and access.level >= lowest:
                continue
            cycles += self.hierarchy.walk_access(access.paddr)
            issued += 1
        if len(result.accesses) > 1:
            self.pwc.fill(vpn, asid, result.accesses[-2].level)
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return WalkOutcome(result.pte, cycles, issued)


class MethodECPTWalker(ECPTWalker):
    """``ECPTWalker.walk`` as it was: a pass over the CWT accesses,
    then one over the probes, through ``CWC``'s attributes."""

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        result = self.table.walk(vpn)
        cycles = self.cwc.latency
        issued = 0
        cwt_latency = 0
        for access in result.accesses:
            if access.kind is not AccessKind.CWT:
                continue
            if access.level == 6:
                hit = self.cwc.pud.lookup((asid, vpn >> 18))
            else:
                hit = self.cwc.pmd.lookup((asid, vpn >> 9))
            if not hit:
                cwt_latency = max(cwt_latency, self.hierarchy.walk_access(access.paddr))
                issued += 1
                if access.level == 6:
                    self.cwc.pud.insert((asid, vpn >> 18))
                else:
                    self.cwc.pmd.insert((asid, vpn >> 9))
        probe_latency = 0
        for access in result.accesses:
            if access.kind is not AccessKind.PT_LEAF:
                continue
            probe_latency = max(probe_latency, self.hierarchy.walk_access(access.paddr))
            issued += 1
        poison_now = self.cwc.poison_detections
        detected = poison_now - self._poison_seen
        if detected:
            self._poison_seen = poison_now
            self.poison_detections += detected
            cycles += detected * self.cwc.latency
        cycles += cwt_latency + probe_latency
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return WalkOutcome(result.pte, cycles, issued)


class MethodLVMWalker(LVMWalker):
    """``LVMWalker.walk`` as it was: through ``LWC.lookup`` and
    ``LWC.fill_line``."""

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        self._sync_flushes(asid)
        trace = self.index.walk(vpn)
        self._sync_flushes(asid)
        cycles = 0
        issued = 0
        for level, offset, paddr in trace.node_accesses:
            cycles += self.lwc.latency
            if not self.lwc.lookup(asid, level, offset):
                cycles += self.hierarchy.walk_access(paddr)
                issued += 1
                self.lwc.fill_line(asid, level, offset)
        for paddr in trace.pte_line_paddrs:
            cycles += self.hierarchy.walk_access(paddr)
            issued += 1
        poison_now = self.lwc.poison_detections
        detected = poison_now - self._poison_seen
        if detected:
            self._poison_seen = poison_now
            self.poison_detections += detected
            cycles += detected * self.lwc.latency
        if trace.recovered:
            self.recovered_walks += 1
            self.recovery_cycles += max(0, cycles - self.lwc.latency)
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return WalkOutcome(trace.pte, cycles, issued)


def lru_state(lru):
    return (list(lru._entries), sorted(lru._poisoned), lru.hits, lru.misses,
            lru.poison_detections)


def walker_state(walker, walk_cache_sets):
    counters = {name: value for name, value in vars(walker).items()
                if isinstance(value, int) and not isinstance(value, bool)}
    return (counters, [lru_state(lru) for lru in walk_cache_sets],
            hierarchy_state(walker.hierarchy))


def radix_table(rng: random.Random) -> RadixPageTable:
    table = RadixPageTable(BumpAllocator())
    for region in range(4):
        base = region << 27 | rng.randrange(1 << 12) << 9
        for i in range(rng.randint(50, 400)):
            table.map(PTE(base + i, rng.randrange(1 << 20)))
        table.map(PTE((base >> 9) + 8 << 9, rng.randrange(1 << 20), PageSize.SIZE_2M))
    return table


def learned_index(rng: random.Random) -> LearnedIndex:
    index = LearnedIndex(BumpAllocator())
    vpns = set()
    for _ in range(5):
        base = rng.randrange(1 << 24)
        vpns.update(base + i * rng.randint(1, 3) for i in range(rng.randint(200, 2000)))
    index.bulk_build([PTE(v, rng.randrange(1 << 20)) for v in sorted(vpns)])
    return index


def walkers(scheme: str, rng: random.Random):
    """(fused walker, reference walker, the walk-cache LRU sets of each)
    over one shared page table, each with its own hierarchy."""
    config = HierarchyConfig(prefetch_degree=2, **SMALL)
    pair = []
    if scheme == "radix":
        table = radix_table(rng)
        for cls in (RadixWalker, MethodRadixWalker):
            walker = cls(table, MemoryHierarchy(config), RadixPWC(entries_per_level=4))
            pair.append((walker, tuple(walker.pwc.levels.values())))
    elif scheme == "ecpt":
        table = mixed_ecpt(rng)
        for cls in (ECPTWalker, MethodECPTWalker):
            walker = cls(table, MemoryHierarchy(config), CWC(pmd_entries=4, pud_entries=2))
            pair.append((walker, (walker.cwc.pud, walker.cwc.pmd)))
    else:
        index = learned_index(rng)
        for cls in (LVMWalker, MethodLVMWalker):
            walker = cls(index, MemoryHierarchy(config), LWC(entries=12))
            pair.append((walker, (walker.lwc._lru,)))
    return pair


def walk_targets(rng: random.Random, walker) -> List[int]:
    """Mapped VPNs (found through the walker's table) and unmapped ones."""
    if isinstance(walker, ECPTWalker):
        pool = [pte.vpn for t in walker.table.tables.values() for pte in t.entries()]
    elif isinstance(walker, LVMWalker):
        pool = [pte.vpn for pte in walker.index.mappings()]
    else:
        pool = []
        stack = [walker.table.root]
        while stack:
            for entry in stack.pop().entries.values():
                if isinstance(entry, PTE):
                    pool.append(entry.vpn)
                else:
                    stack.append(entry)
    pool.sort()
    out = []
    for _ in range(2500):
        if rng.random() < 0.85:
            out.append(rng.choice(pool) + rng.randrange(3))
        else:
            out.append(rng.randrange(1 << 30))
    return out


@pytest.mark.parametrize("scheme", ["radix", "ecpt", "lvm"])
def test_walkers_match_method_walkers(scheme):
    rng = random.Random(scheme)
    (fused, fused_sets), (reference, reference_sets) = walkers(scheme, rng)
    poison = (random.Random(1), random.Random(1))
    found = 0
    for i, vpn in enumerate(walk_targets(rng, fused)):
        asid = rng.randrange(2)
        if i % 5 == 0:
            for walker, faults in zip((fused, reference), poison):
                walk_cache = {"radix": "pwc", "ecpt": "cwc", "lvm": "lwc"}[scheme]
                getattr(walker, walk_cache).poison_random(faults)
        if scheme == "lvm" and i % 101 == 0:
            fused.index.stats.lwc_flushes += 1  # an OS-side retrain
        got, want = fused.walk(vpn, asid), reference.walk(vpn, asid)
        assert (got.pte, got.cycles, got.memory_accesses) == (
            want.pte, want.cycles, want.memory_accesses)
        found += got.pte is not None
    assert found and fused.poison_detections
    assert walker_state(fused, fused_sets) == walker_state(reference, reference_sets)
