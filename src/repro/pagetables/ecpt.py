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
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DuplicateMappingError
from repro.mem.allocator import BumpAllocator, PhysicalAllocator
from repro.types import (
    BASE_PAGE_SHIFT,
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
# Entries per CWT: region numbers wrap modulo this many.
_CWT_ENTRIES = 1 << 17
# The page sizes a PMD-level CWT entry records.
_PMD_SIZES = (PageSize.SIZE_4K, PageSize.SIZE_2M)
_CWT = AccessKind.CWT
_PT_LEAF = AccessKind.PT_LEAF


_VPN = attrgetter("vpn")
_PAGE_SIZE = attrgetter("page_size")
#: Page size by its byte count (cheaper than calling the enum).
_PAGE_SIZES = {int(size): size for size in PageSize}

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


def _runs(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(first, stop) indexes of the maximal runs over which every one
    of the equal-length, non-empty ``columns`` holds one value."""
    changed = np.zeros(len(columns[0]) - 1, dtype=bool)
    for column in columns:
        changed |= column[1:] != column[:-1]
    cuts = np.flatnonzero(changed) + 1
    return np.concatenate(([0], cuts)), np.concatenate((cuts, [len(columns[0])]))


class _SlotColumns:
    """Each batch item's slot in every way, at one capacity: what a bulk
    insert reads in place of calling :func:`_way_hash`.  Items are
    positions in the batch; the 64-bit hashes are computed once and,
    after each resize, reduced modulo the new capacity.

    Only the positions a capacity can hold are reduced.  Positions go
    in in order, and position ``p`` goes in only while ``p + 1 <=
    max_load * capacity * ways`` (every table slot holds a lower one),
    so no position above that load limit is read at that capacity."""

    def __init__(self, keys: np.ndarray, ways: int, max_load: float):
        self._hashes = [_way_hash_column(keys, w) for w in range(ways)]
        self._ways = ways
        self._max_load = max_load
        self._capacity = 0
        self._columns: List[List[int]] = []

    def at(self, capacity: int) -> List[List[int]]:
        if capacity != self._capacity:
            held = int(self._max_load * capacity * self._ways) + 1
            modulus = np.uint64(capacity)
            self._columns = [(h[:held] % modulus).tolist() for h in self._hashes]
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

    def insert_positions(self, items: Sequence[int], columns: _SlotColumns) -> None:
        """:meth:`insert` for each of ``items`` in order, where the
        slots hold batch positions (see :meth:`ECPT.map_many`) and
        ``columns`` gives each position's slots.  The same load checks,
        kick chains and resizes, step for step.

        :meth:`insert` grows before an item once ``occupied`` reaches
        the load limit ``floor(max_load * capacity * ways)``, so a run
        of up to ``limit - occupied`` items goes in between two checks,
        each probing its way-0 slot inline.  A run may fill the table
        to its limit exactly: it grows only when another item arrives.
        """
        ways = self.ways
        kicks = 0
        done, count = 0, len(items)
        while done < count:
            room = int(self.max_load * self._capacity * ways) - self._occupied
            if room <= 0:
                self.insert_positions(self._grow(), columns)
                # :meth:`insert` places the item that made it grow
                # without a second check.
                room = max(
                    1, int(self.max_load * self._capacity * ways) - self._occupied
                )
            # Way k of a kick chain is way k % ways: way 0 inline, then
            # the (slot row, hash column) pairs of the other steps.
            pairs = tuple(zip(self._slots, columns.at(self._capacity)))
            row0, column0 = pairs[0]
            chain = tuple(pairs[k % ways] for k in range(1, MAX_KICKS))
            run = items[done : done + room]
            for item in run:
                slot = column0[item]
                evicted = row0[slot]
                row0[slot] = item
                if evicted is None:
                    continue
                first = item
                kicks += 1
                item = evicted
                for row, column in chain:
                    slot = column[item]
                    evicted = row[slot]
                    row[slot] = item
                    if evicted is None:
                        break
                    kicks += 1
                    item = evicted
                else:
                    # Kick chain too long: grow, place the item left
                    # over, and go on after ``first``.
                    self.insert_positions(self._grow(), columns)
                    self.insert_positions((item,), columns)
                    done += run.index(first) + 1
                    break
            else:
                self._occupied += len(run)
                done += len(run)
        self.stats.kicks += kicks

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

    # -- PageTable interface ---------------------------------------------
    def map(self, pte: PTE) -> None:
        table = self.tables[pte.page_size]
        if table.lookup(pte.vpn) is not None:
            raise DuplicateMappingError(f"VPN {pte.vpn:#x} already mapped")
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
        if not ptes:
            return
        # VPNs stay below 2**35 and page sizes below 2**31: int64 columns.
        vpns = np.fromiter(map(_VPN, ptes), dtype=np.int64, count=len(ptes))
        sizes = np.fromiter(map(_PAGE_SIZE, ptes), dtype=np.int64, count=len(ptes))
        firsts, stops = _runs(sizes)
        # (page size, entries) of each run of one page size, in PTE order.
        size_runs = [
            (_PAGE_SIZES[size], count)
            for size, count in zip(sizes[firsts].tolist(), (stops - firsts).tolist())
        ]
        members: Dict[PageSize, List[PTE]] = {}
        columns: Dict[PageSize, _SlotColumns] = {}
        start: Dict[PageSize, int] = {}
        for size in dict.fromkeys(size for size, _ in size_runs):
            table = self.tables[size]
            live = table.entries()
            batch = np.flatnonzero(sizes == size)
            members[size] = live + [ptes[i] for i in batch.tolist()]
            start[size] = len(live)
            keys = np.concatenate((
                np.fromiter(map(_VPN, live), dtype=np.int64, count=len(live)),
                vpns[batch],
            )) // size.pages_4k
            if len(set(keys.tolist())) < len(keys):
                # A duplicate: map one at a time so the error (and the
                # state left behind) is exactly the per-entry path's.
                for pte in ptes:
                    self.map(pte)
                return
            columns[size] = _SlotColumns(keys, table.ways, table.max_load)
        for size, numbered in members.items():
            live = numbered[: start[size]]
            if live:
                table = self.tables[size]
                number = {id(e): i for i, e in enumerate(live)}
                table._slots = [
                    [None if e is None else number[id(e)] for e in way]
                    for way in table._slots
                ]
        try:
            for size, count in size_runs:
                end = start[size] + count
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
        # Each run of one (region, page size) in PTE order adds its
        # length at once, where per-entry adds would count it up.
        for cwt, region_pages in (
            (self._pmd_cwt, PMD_REGION_PAGES),
            (self._pud_cwt, PUD_REGION_PAGES),
        ):
            regions = vpns // region_pages
            firsts, stops = _runs(regions, sizes)
            for region, size, run in zip(
                regions[firsts].tolist(),
                sizes[firsts].tolist(),
                (stops - firsts).tolist(),
            ):
                size = _PAGE_SIZES[size]
                counts = cwt.setdefault(region, {})
                counts[size] = counts.get(size, 0) + run

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
        candidate page size, all in one parallel group.

        The PUD-level CWT (1 GB granularity) is consulted first: a
        region holding a single page size is fully resolved there.
        Only mixed regions also consult the finer PMD-level CWT, whose
        entry names the 4 KB and 2 MB sizes present in its 2 MB region
        (1 GB pages are probed whenever the PUD entry lists them).
        Level 6 tags the PUD-CWT access, level 5 the PMD-CWT one (for
        the CWC's benefit)."""
        self.stats.lookups += 1
        pud = vpn // PUD_REGION_PAGES
        accesses = [
            WalkAccess(
                self._pud_cwt_base + pud % _CWT_ENTRIES * CWT_ENTRY_BYTES,
                _CWT, 6,
            )
        ]
        pud_counts = self._pud_cwt.get(pud)
        if not pud_counts or len(pud_counts) == 1:
            sizes = pud_counts or ()
        else:
            pmd = vpn // PMD_REGION_PAGES
            accesses.append(
                WalkAccess(
                    self._pmd_cwt_base + pmd % _CWT_ENTRIES * CWT_ENTRY_BYTES,
                    _CWT, 5,
                )
            )
            pmd_counts = self._pmd_cwt.get(pmd) or ()
            sizes = [s for s in _PMD_SIZES if s in pmd_counts]
            if PageSize.SIZE_1G in pud_counts:
                sizes.append(PageSize.SIZE_1G)
        found: Optional[PTE] = None
        append = accesses.append
        tables = self.tables
        for size in sizes:
            table = tables[size]
            pages = table._pages
            key = vpn // pages
            capacity = table._capacity
            for way, row, base in zip(range(table.ways), table._slots, table._bases):
                slot = _way_hash(key, way, capacity)
                append(WalkAccess(base + slot * ENTRY_BYTES, _PT_LEAF, 1, 0))
                entry = row[slot]
                if entry is not None:
                    first = entry.vpn
                    if (
                        first // pages == key
                        and first <= vpn < first + (entry.page_size >> BASE_PAGE_SHIFT)
                    ):
                        found = entry
            self.stats.probes_issued += table.ways
        return WalkResult(found, accesses)

    def find(self, vpn: int) -> Optional[PTE]:
        for table in self.tables.values():
            entry = table.lookup(vpn)
            if entry is not None and entry.covers(vpn):
                return entry
        return None

    def mappings(self) -> List[PTE]:
        """Every installed translation, in VPN order."""
        return sorted(
            (e for table in self.tables.values() for e in table.entries()), key=_VPN
        )

    @property
    def table_bytes(self) -> int:
        return sum(t.table_bytes for t in self.tables.values())
