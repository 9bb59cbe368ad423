"""Four-level x86-64 radix page table (paper section 2.1).

The baseline the paper measures against: PML4 → PDPT → PD → PT, each a
4 KB table of 512 eight-byte entries, indexed by 9-bit slices of the
VPN.  2 MB pages terminate at the PD level, 1 GB pages at the PDPT.  A
full walk is four sequential, dependent memory accesses; the hardware
page-walk cache (modelled in :mod:`repro.mmu.walk_cache`) short-
circuits the upper levels.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Union

from repro.errors import DuplicateMappingError
from repro.mem.allocator import BumpAllocator, PhysicalAllocator
from repro.types import (
    PTE,
    AccessKind,
    PageSize,
    TranslationError,
    WalkAccess,
    WalkResult,
)

TABLE_BYTES = 4096
ENTRIES_PER_TABLE = 512
ENTRY_BYTES = 8

# Radix levels, counting down toward the leaf: 4=PML4, 3=PDPT, 2=PD, 1=PT.
LEVELS = (4, 3, 2, 1)
_SHIFTS = {4: 27, 3: 18, 2: 9, 1: 0}
_HUGE_LEVEL = {PageSize.SIZE_1G: 3, PageSize.SIZE_2M: 2, PageSize.SIZE_4K: 1}

# Walk-loop constant: (level, shift, access kind) per step, so the hot
# walk avoids a dict lookup and a conditional per level.
_WALK_STEPS = tuple(
    (level, _SHIFTS[level], AccessKind.PT_LEAF if level == 1 else AccessKind.PT_NODE)
    for level in LEVELS
)


def level_index(vpn: int, level: int) -> int:
    """9-bit table index of a 4 KB VPN at a given radix level."""
    return (vpn >> _SHIFTS[level]) & (ENTRIES_PER_TABLE - 1)


class _Table:
    """One 4 KB radix table: 512 slots of child tables or PTEs."""

    __slots__ = ("paddr", "entries", "level")

    def __init__(self, paddr: int, level: int):
        self.paddr = paddr
        self.level = level
        self.entries: Dict[int, Union["_Table", PTE]] = {}

    def entry_paddr(self, index: int) -> int:
        return self.paddr + index * ENTRY_BYTES


class RadixPageTable:
    """The baseline 4-level radix page table."""

    def __init__(self, allocator: Optional[PhysicalAllocator] = None):
        self.allocator = allocator or BumpAllocator()
        self._num_tables = 0
        self.root = self._new_table(4)

    def _new_table(self, level: int) -> _Table:
        paddr = self.allocator.alloc(TABLE_BYTES)
        self._num_tables += 1
        return _Table(paddr, level)

    # -- mapping -----------------------------------------------------
    def map(self, pte: PTE) -> None:
        leaf_level = _HUGE_LEVEL[pte.page_size]
        if pte.vpn % pte.page_size.pages_4k != 0:
            raise TranslationError(
                f"VPN {pte.vpn:#x} misaligned for {pte.page_size.name}"
            )
        table = self.root
        for level in LEVELS:
            index = level_index(pte.vpn, level)
            if level == leaf_level:
                existing = table.entries.get(index)
                if isinstance(existing, PTE):
                    raise DuplicateMappingError(f"VPN {pte.vpn:#x} already mapped")
                if isinstance(existing, _Table):
                    raise TranslationError(
                        f"VPN {pte.vpn:#x}: large mapping overlaps smaller pages"
                    )
                table.entries[index] = pte
                return
            nxt = table.entries.get(index)
            if nxt is None:
                nxt = self._new_table(level - 1)
                table.entries[index] = nxt
            elif isinstance(nxt, PTE):
                raise TranslationError(
                    f"VPN {pte.vpn:#x} overlaps an existing large page"
                )
            table = nxt

    def map_many(self, ptes: Iterable[PTE]) -> None:
        """Install ``ptes`` in order, leaving exactly the state (tables,
        their allocation order, dict order) that :meth:`map` on each
        would.  A run of consecutive 4 KB entries with rising VPNs in
        one leaf table costs one descent and one ``dict.update``; other
        entries go through :meth:`map`."""
        run: List[PTE] = []
        last = -1
        for pte in ptes:
            vpn = pte.vpn
            if pte.page_size is not PageSize.SIZE_4K:
                self._map_leaf_run(run)
                run = []
                self.map(pte)
                continue
            if vpn <= last or vpn >> 9 != last >> 9:
                self._map_leaf_run(run)
                run = []
            run.append(pte)
            last = vpn
        self._map_leaf_run(run)

    def _map_leaf_run(self, run: List[PTE]) -> None:
        if not run:
            return
        first = run[0].vpn
        table = self.root
        for level in LEVELS[:-1]:
            index = level_index(first, level)
            nxt = table.entries.get(index)
            if nxt is None:
                nxt = self._new_table(level - 1)
                table.entries[index] = nxt
            elif isinstance(nxt, PTE):
                raise TranslationError(
                    f"VPN {first:#x} overlaps an existing large page"
                )
            table = nxt
        indices = [pte.vpn & (ENTRIES_PER_TABLE - 1) for pte in run]
        if not table.entries.keys().isdisjoint(indices):
            # A duplicate: map one at a time so the error (and the
            # state left behind) is exactly the per-entry path's.
            for pte in run:
                self.map(pte)
            return
        table.entries.update(zip(indices, run))

    def unmap(self, vpn: int) -> PTE:
        table = self.root
        for level in LEVELS:
            index = level_index(vpn, level)
            entry = table.entries.get(index)
            if entry is None:
                raise TranslationError(f"VPN {vpn:#x} is not mapped")
            if isinstance(entry, PTE):
                if entry.vpn != vpn:
                    raise TranslationError(
                        f"VPN {vpn:#x} is inside a mapping starting at "
                        f"{entry.vpn:#x}; unmap uses the first VPN"
                    )
                del table.entries[index]
                return entry
            table = entry
        raise TranslationError(f"VPN {vpn:#x} is not mapped")

    # -- walking -----------------------------------------------------
    def walk(self, vpn: int) -> WalkResult:
        accesses = []
        append = accesses.append
        table = self.root
        for level, shift, kind in _WALK_STEPS:
            index = (vpn >> shift) & 511
            append(WalkAccess(table.paddr + index * ENTRY_BYTES, kind, level))
            entry = table.entries.get(index)
            if entry is None:
                return WalkResult(None, accesses)
            if entry.__class__ is PTE:
                return WalkResult(entry, accesses)
            table = entry
        return WalkResult(None, accesses)

    def find(self, vpn: int) -> Optional[PTE]:
        table = self.root
        for level in LEVELS:
            entry = table.entries.get(level_index(vpn, level))
            if entry is None or isinstance(entry, PTE):
                return entry
            table = entry
        return None

    def mappings(self) -> List[PTE]:
        """Every installed translation, in VPN order."""
        found: List[PTE] = []
        tables = [self.root]
        for table in tables:  # grows as child tables turn up
            for entry in table.entries.values():
                if isinstance(entry, PTE):
                    found.append(entry)
                else:
                    tables.append(entry)
        return sorted(found, key=attrgetter("vpn"))

    @property
    def table_bytes(self) -> int:
        return self._num_tables * TABLE_BYTES
