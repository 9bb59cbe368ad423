"""Elastic Cuckoo Page Tables (ECPT) — the state-of-the-art hashed
baseline the paper compares against (sections 2.2, 6.3, 7).

ECPT keeps one d-ary (d = 3) cuckoo hash table per page size.  A walk
probes the d candidate slots of every page size the region may use —
in *parallel*, trading the sequential accesses of radix for extra
memory traffic ("incurring two unnecessary fetches per translation").
Cuckoo Walk Tables (CWTs) record, per VA region, which page sizes are
present so the walker can skip entire tables; the hardware Cuckoo Walk
Cache (CWC, in :mod:`repro.mmu.walk_cache`) caches CWT entries.

Elasticity: a table whose load factor crosses the threshold (0.6, per
the paper's hash-table baseline) doubles in size; entries are rehashed
into the new table.  The resize cost shows up as management work, as
in the original ECPT design's gradual-rehash window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.allocator import BumpAllocator, PhysicalAllocator
from repro.types import (
    PTE,
    AccessKind,
    PageSize,
    TranslationError,
    WalkAccess,
    WalkResult,
)

ENTRY_BYTES = 8
DEFAULT_WAYS = 3
DEFAULT_INITIAL_SIZE = 16384  # entries per way group (Table 1)
MAX_KICKS = 32

# CWT granularities, mirroring ECPT's PMD- and PUD-level walk tables:
# one PMD-CWT entry per 2 MB region, one PUD-CWT entry per 1 GB region.
PMD_REGION_PAGES = 512
PUD_REGION_PAGES = 512 * 512
CWT_ENTRY_BYTES = 8


_WAY_SEEDS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93)


def _way_hash(key: int, way: int, capacity: int) -> int:
    """Fast splitmix64-style integer hash, one independent function per
    way.  (The cryptographic Blake2 hash appears only in the section
    7.3 hash-table *baseline*; cuckoo ways need speed and independence,
    matching the original ECPT implementation's multiplicative hashes.)
    """
    x = (key ^ _WAY_SEEDS[way % len(_WAY_SEEDS)]) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x % capacity


def _way_hash_column(keys: np.ndarray, way: int) -> np.ndarray:
    """:func:`_way_hash` over a key column, before its final modulo.

    ``uint64`` arithmetic wraps modulo 2**64, which is exactly the
    scalar version's masking, so ``column[i] % capacity ==
    _way_hash(keys[i], way, capacity)`` for every capacity."""
    x = keys.astype(np.uint64) ^ np.uint64(_WAY_SEEDS[way % len(_WAY_SEEDS)])
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class _SlotColumns:
    """Each batch item's slot in every way, at one capacity: what a bulk
    insert reads in place of calling :func:`_way_hash`.  Items are
    positions in the batch; the 64-bit hashes are computed once and
    reduced modulo the capacity again after each resize."""

    def __init__(self, keys: np.ndarray, ways: int):
        self._hashes = [_way_hash_column(keys, w) for w in range(ways)]
        self._capacity = 0
        self._columns: List[List[int]] = []

    def at(self, capacity: int) -> List[List[int]]:
        if capacity != self._capacity:
            modulus = np.uint64(capacity)
            self._columns = [(h % modulus).tolist() for h in self._hashes]
            self._capacity = capacity
        return self._columns


@dataclass
class ECPTStats:
    lookups: int = 0
    probes_issued: int = 0
    resizes: int = 0
    kicks: int = 0


class _CuckooTable:
    """One d-ary cuckoo hash table for a single page size."""

    def __init__(
        self,
        allocator: PhysicalAllocator,
        page_size: PageSize,
        ways: int,
        initial_size: int,
        max_load: float,
        stats: ECPTStats,
    ):
        self.allocator = allocator
        self.page_size = page_size
        self.ways = ways
        self.max_load = max_load
        self.stats = stats
        self._capacity = initial_size  # slots per way
        self._slots: List[List[Optional[PTE]]] = [
            [None] * self._capacity for _ in range(ways)
        ]
        self._occupied = 0
        self._bases = [
            self.allocator.alloc(self._capacity * ENTRY_BYTES) for _ in range(ways)
        ]
        self._pages = page_size.pages_4k

    # ``key`` below is the page-size-specific VPN: the 4 KB VPN shifted
    # down so all sub-pages of one mapping share a key.
    def key_of(self, vpn: int) -> int:
        return vpn // self._pages

    @property
    def load_factor(self) -> float:
        return self._occupied / (self._capacity * self.ways)

    @property
    def table_bytes(self) -> int:
        return self._capacity * self.ways * ENTRY_BYTES

    def slot_paddr(self, way: int, slot: int) -> int:
        return self._bases[way] + slot * ENTRY_BYTES

    def probe_paddrs(self, vpn: int) -> List[Tuple[int, int, int]]:
        """(way, slot, paddr) for all d candidate locations of a VPN."""
        key = self.key_of(vpn)
        probes = []
        for w in range(self.ways):
            slot = _way_hash(key, w, self._capacity)
            probes.append((w, slot, self.slot_paddr(w, slot)))
        return probes

    def lookup(self, vpn: int) -> Optional[PTE]:
        key = self.key_of(vpn)
        for way in range(self.ways):
            entry = self._slots[way][_way_hash(key, way, self._capacity)]
            if entry is not None and self.key_of(entry.vpn) == key:
                return entry
        return None

    def insert(self, pte: PTE) -> None:
        if (self._occupied + 1) > self.max_load * self._capacity * self.ways:
            self._resize()
        item = pte
        way = 0
        for _ in range(MAX_KICKS):
            key = self.key_of(item.vpn)
            slot = _way_hash(key, way, self._capacity)
            evicted = self._slots[way][slot]
            self._slots[way][slot] = item
            if evicted is None:
                self._occupied += 1
                return
            self.stats.kicks += 1
            item = evicted
            # Re-insert the evicted item through its next way.
            way = (way + 1) % self.ways
        # Kick chain too long: grow and retry (the "elastic" part).
        self._resize()
        self.insert(item)

    def insert_positions(self, items: Iterable[int], columns: _SlotColumns) -> None:
        """:meth:`insert` for each of ``items`` in order, where the
        slots hold batch positions (see :meth:`ECPT.map_many`) and
        ``columns`` gives each position's slots.  The same load checks,
        kick chains and resizes, step for step."""
        ways = self.ways
        stats = self.stats
        kick_ways = tuple(w % ways for w in range(MAX_KICKS))
        capacity, slots = self._capacity, self._slots
        column = columns.at(capacity)
        threshold = self.max_load * capacity * ways
        for item in items:
            if (self._occupied + 1) > threshold:
                self.insert_positions(self._grow(), columns)
                capacity, slots = self._capacity, self._slots
                column = columns.at(capacity)
                threshold = self.max_load * capacity * ways
            for way in kick_ways:
                row = slots[way]
                slot = column[way][item]
                evicted = row[slot]
                row[slot] = item
                if evicted is None:
                    self._occupied += 1
                    break
                stats.kicks += 1
                item = evicted
            else:
                self.insert_positions(self._grow(), columns)
                self.insert_positions((item,), columns)
                capacity, slots = self._capacity, self._slots
                column = columns.at(capacity)
                threshold = self.max_load * capacity * ways

    def remove(self, vpn: int) -> Optional[PTE]:
        key = self.key_of(vpn)
        for way in range(self.ways):
            slot = _way_hash(key, way, self._capacity)
            entry = self._slots[way][slot]
            if entry is not None and self.key_of(entry.vpn) == key:
                self._slots[way][slot] = None
                self._occupied -= 1
                return entry
        return None

    def _resize(self) -> None:
        for entry in self._grow():
            self.insert(entry)

    def _grow(self) -> list:
        """Double every way; returns the live entries, way by way in
        slot order, for the caller to re-insert."""
        self.stats.resizes += 1
        live = [e for way in self._slots for e in way if e is not None]
        for base in self._bases:
            self.allocator.free(base, self._capacity * ENTRY_BYTES)
        self._capacity *= 2
        self._slots = [[None] * self._capacity for _ in range(self.ways)]
        self._bases = [
            self.allocator.alloc(self._capacity * ENTRY_BYTES)
            for _ in range(self.ways)
        ]
        self._occupied = 0
        return live

    def entries(self) -> List[PTE]:
        return [e for way in self._slots for e in way if e is not None]


class ECPT:
    """Elastic cuckoo page tables with cuckoo walk tables."""

    def __init__(
        self,
        allocator: Optional[PhysicalAllocator] = None,
        ways: int = DEFAULT_WAYS,
        initial_size: int = DEFAULT_INITIAL_SIZE,
        max_load: float = 0.6,
    ):
        self.allocator = allocator or BumpAllocator()
        self.stats = ECPTStats()
        self.tables: Dict[PageSize, _CuckooTable] = {
            size: _CuckooTable(
                self.allocator, size, ways, initial_size, max_load, self.stats
            )
            for size in PageSize
        }
        # CWT: which page sizes may exist per region (reference counts
        # so unmap can clear bits).
        self._pmd_cwt: Dict[int, Dict[PageSize, int]] = {}
        self._pud_cwt: Dict[int, Dict[PageSize, int]] = {}
        self._pmd_cwt_base = self.allocator.alloc(1 << 20)
        self._pud_cwt_base = self.allocator.alloc(1 << 20)

    # -- CWT maintenance ------------------------------------------------
    def _cwt_add(self, pte: PTE) -> None:
        pmd = pte.vpn // PMD_REGION_PAGES
        pud = pte.vpn // PUD_REGION_PAGES
        self._pmd_cwt.setdefault(pmd, {}).setdefault(pte.page_size, 0)
        self._pmd_cwt[pmd][pte.page_size] += 1
        self._pud_cwt.setdefault(pud, {}).setdefault(pte.page_size, 0)
        self._pud_cwt[pud][pte.page_size] += 1

    def _cwt_drop(self, pte: PTE) -> None:
        pmd = pte.vpn // PMD_REGION_PAGES
        pud = pte.vpn // PUD_REGION_PAGES
        for table, region in ((self._pmd_cwt, pmd), (self._pud_cwt, pud)):
            counts = table.get(region)
            if counts and pte.page_size in counts:
                counts[pte.page_size] -= 1
                if counts[pte.page_size] <= 0:
                    del counts[pte.page_size]
                if not counts:
                    del table[region]

    def sizes_in_region(self, vpn: int) -> List[PageSize]:
        """Page sizes the CWTs say may map this VPN (probe trimming).

        The PUD-level CWT (1 GB granularity) is consulted first: a
        region holding a single page size is fully resolved there.
        Only mixed regions need the finer PMD-level CWT.
        """
        pud_counts = self._pud_cwt.get(vpn // PUD_REGION_PAGES)
        if not pud_counts:
            return []
        if len(pud_counts) == 1:
            return list(pud_counts)
        sizes: List[PageSize] = []
        pmd_counts = self._pmd_cwt.get(vpn // PMD_REGION_PAGES)
        if pmd_counts:
            sizes.extend(
                s for s in (PageSize.SIZE_4K, PageSize.SIZE_2M) if s in pmd_counts
            )
        if PageSize.SIZE_1G in pud_counts:
            sizes.append(PageSize.SIZE_1G)
        return sizes

    def needs_pmd_cwt(self, vpn: int) -> bool:
        """Whether the walk must also consult the PMD-level CWT."""
        pud_counts = self._pud_cwt.get(vpn // PUD_REGION_PAGES)
        return bool(pud_counts) and len(pud_counts) > 1

    def pud_cwt_paddr(self, vpn: int) -> int:
        return (
            self._pud_cwt_base
            + (vpn // PUD_REGION_PAGES) % (1 << 17) * CWT_ENTRY_BYTES
        )

    def pmd_cwt_paddr(self, vpn: int) -> int:
        return (
            self._pmd_cwt_base
            + (vpn // PMD_REGION_PAGES) % (1 << 17) * CWT_ENTRY_BYTES
        )

    # -- PageTable interface ---------------------------------------------
    def map(self, pte: PTE) -> None:
        table = self.tables[pte.page_size]
        if table.lookup(pte.vpn) is not None:
            raise TranslationError(f"VPN {pte.vpn:#x} already mapped")
        table.insert(pte)
        self._cwt_add(pte)

    def map_many(self, ptes: Sequence[PTE]) -> None:
        """:meth:`map` each of ``ptes`` in order, leaving the identical
        state: slots, kicks and resizes (hence allocator bases), stats,
        and CWT dicts in the same insertion order.

        Per page-size table, the live entries and the batch are
        numbered, the slots hold those numbers while the batch goes in,
        and every number's slot in each way comes from hash columns
        computed once with NumPy.  Duplicates are found up front with a
        set of keys: every live entry sits in one of its probe slots,
        so the set answers what :meth:`map`'s lookup would."""
        batches: Dict[PageSize, List[PTE]] = {}
        for pte in ptes:
            batches.setdefault(pte.page_size, []).append(pte)
        members: Dict[PageSize, List[PTE]] = {}
        columns: Dict[PageSize, _SlotColumns] = {}
        for size, batch in batches.items():
            table = self.tables[size]
            numbered = members[size] = table.entries() + batch
            keys = np.array([e.vpn for e in numbered], dtype=np.int64)
            keys //= size.pages_4k
            if len(set(keys.tolist())) < len(numbered):
                # A duplicate: map one at a time so the error (and the
                # state left behind) is exactly the per-entry path's.
                for pte in ptes:
                    self.map(pte)
                return
            columns[size] = _SlotColumns(keys, table.ways)
        for size, numbered in members.items():
            table = self.tables[size]
            number = {id(e): i for i, e in enumerate(numbered)}
            table._slots = [
                [None if e is None else number[id(e)] for e in way]
                for way in table._slots
            ]
        try:
            start = {size: len(m) - len(batches[size]) for size, m in members.items()}
            for size, run in groupby(ptes, attrgetter("page_size")):
                end = start[size] + sum(1 for _ in run)
                self.tables[size].insert_positions(
                    range(start[size], end), columns[size]
                )
                start[size] = end
        finally:
            for size, numbered in members.items():
                table = self.tables[size]
                table._slots = [
                    [None if i is None else numbered[i] for i in way]
                    for way in table._slots
                ]
        # The CWTs are independent of the tables: adding every entry
        # after the inserts gives the dicts the same operation order.
        for cwt, region_pages in (
            (self._pmd_cwt, PMD_REGION_PAGES),
            (self._pud_cwt, PUD_REGION_PAGES),
        ):
            for (region, size), run in groupby(
                ptes, lambda p: (p.vpn // region_pages, p.page_size)
            ):
                counts = cwt.setdefault(region, {})
                counts[size] = counts.get(size, 0) + sum(1 for _ in run)

    def unmap(self, vpn: int) -> PTE:
        for table in self.tables.values():
            entry = table.lookup(vpn)
            if entry is not None and entry.vpn == vpn:
                table.remove(vpn)
                self._cwt_drop(entry)
                return entry
        raise TranslationError(f"VPN {vpn:#x} is not mapped")

    def walk(self, vpn: int) -> WalkResult:
        """Parallel cuckoo walk: CWT consult, then d probes per
        candidate page size, all in one parallel group."""
        self.stats.lookups += 1
        accesses: List[WalkAccess] = []
        # Level 6 = PUD CWT, level 5 = PMD CWT (for the CWC's benefit).
        accesses.append(WalkAccess(self.pud_cwt_paddr(vpn), AccessKind.CWT, level=6))
        if self.needs_pmd_cwt(vpn):
            accesses.append(
                WalkAccess(self.pmd_cwt_paddr(vpn), AccessKind.CWT, level=5)
            )
        sizes = self.sizes_in_region(vpn)
        found: Optional[PTE] = None
        group = 0
        for size in sizes:
            table = self.tables[size]
            for way, slot, paddr in table.probe_paddrs(vpn):
                accesses.append(
                    WalkAccess(paddr, AccessKind.PT_LEAF, level=1, parallel_group=group)
                )
                entry = table._slots[way][slot]
                if (
                    entry is not None
                    and table.key_of(entry.vpn) == table.key_of(vpn)
                    and entry.covers(vpn)
                ):
                    found = entry
        self.stats.probes_issued += sum(
            1 for a in accesses if a.kind is AccessKind.PT_LEAF
        )
        return WalkResult(found, accesses)

    def find(self, vpn: int) -> Optional[PTE]:
        for table in self.tables.values():
            entry = table.lookup(vpn)
            if entry is not None and entry.covers(vpn):
                return entry
        return None

    @property
    def table_bytes(self) -> int:
        return sum(t.table_bytes for t in self.tables.values())
