"""The Ideal page table (paper section 6.3).

An oracle that always finds the PTE with exactly one memory access: the
upper bound the paper compares LVM against.  Entries are laid out
densely in "physical memory" in VPN order per 2 MB-aligned region, so
spatial locality matches the minimum-possible 8-bytes-per-translation
layout used in the paper's memory-consumption accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import DuplicateMappingError
from repro.mem.allocator import BumpAllocator, PhysicalAllocator
from repro.types import (
    PTE,
    PTE_SIZE,
    AccessKind,
    TranslationError,
    WalkAccess,
    WalkResult,
)

_BLOCK_ENTRIES = 512  # entries per allocated storage block


class IdealPageTable:
    """Single-access oracle page table.

    Entries take exactly 8 bytes each and are packed densely in mapping
    order (one entry per *mapping*, not per 4 KB page), which is the
    minimum-possible layout the paper's memory accounting assumes —
    and what gives the oracle its best-case spatial locality.
    """

    def __init__(self, allocator: Optional[PhysicalAllocator] = None):
        self.allocator = allocator or BumpAllocator()
        self._entries: Dict[int, PTE] = {}  # first VPN -> PTE
        self._covering: Dict[int, int] = {}  # any covered VPN -> first VPN
        self._entry_paddrs: Dict[int, int] = {}  # first VPN -> entry paddr
        self._free_slots: list = []  # recycled entry paddrs
        self._block_cursor = 0
        self._blocks = 0

    def _entry_paddr(self, vpn: int) -> int:
        paddr = self._entry_paddrs.get(vpn)
        if paddr is not None:
            return paddr
        if self._free_slots:
            paddr = self._free_slots.pop()
        else:
            if self._block_cursor % _BLOCK_ENTRIES == 0:
                self._current_block = self.allocator.alloc(
                    _BLOCK_ENTRIES * PTE_SIZE
                )
                self._blocks += 1
            paddr = self._current_block + (
                self._block_cursor % _BLOCK_ENTRIES
            ) * PTE_SIZE
            self._block_cursor += 1
        self._entry_paddrs[vpn] = paddr
        return paddr

    def map(self, pte: PTE) -> None:
        if pte.vpn in self._entries:
            raise DuplicateMappingError(f"VPN {pte.vpn:#x} already mapped")
        self._entries[pte.vpn] = pte
        for covered in range(pte.vpn, pte.vpn + pte.page_size.pages_4k):
            self._covering[covered] = pte.vpn
        self._entry_paddr(pte.vpn)  # ensure backing storage exists

    def unmap(self, vpn: int) -> PTE:
        pte = self._entries.pop(vpn, None)
        if pte is None:
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        for covered in range(vpn, vpn + pte.page_size.pages_4k):
            self._covering.pop(covered, None)
        self._free_slots.append(self._entry_paddrs.pop(vpn))
        return pte

    def walk(self, vpn: int) -> WalkResult:
        first = self._covering.get(vpn)
        if first is None:
            # A miss still performs its one probe, but must not
            # allocate entry storage for an unmapped page.
            if not hasattr(self, "_miss_probe"):
                self._miss_probe = self.allocator.alloc(PTE_SIZE * 8)
            access = WalkAccess(self._miss_probe, AccessKind.PT_LEAF, level=1)
            return WalkResult(None, [access])
        access = WalkAccess(self._entry_paddr(first), AccessKind.PT_LEAF, level=1)
        return WalkResult(self._entries.get(first), [access])

    def find(self, vpn: int) -> Optional[PTE]:
        first = self._covering.get(vpn)
        return self._entries.get(first) if first is not None else None

    def mappings(self) -> List[PTE]:
        """Every installed translation, in VPN order."""
        return [self._entries[vpn] for vpn in sorted(self._entries)]

    @property
    def table_bytes(self) -> int:
        return self._blocks * _BLOCK_ENTRIES * PTE_SIZE
