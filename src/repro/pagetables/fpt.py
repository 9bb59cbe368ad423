"""Flattened Page Tables (FPT) — prior-work comparison (section 7.5.3).

FPT folds adjacent radix levels into one wider table so a walk takes
two accesses instead of four: L4+L3 become one 2 MB table indexed by 18
VPN bits, and L2+L1 likewise.  The catch the paper highlights: every
fold needs a 2 MB *physically contiguous* allocation, which competes
with the application's own huge pages; when the allocation fails the
subtree falls back to ordinary 4 KB radix tables, and the walk for that
region degrades toward radix.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Union

from repro.errors import DuplicateMappingError
from repro.mem.allocator import BumpAllocator, OutOfPhysicalMemory, PhysicalAllocator
from repro.pagetables.radix import ENTRY_BYTES, TABLE_BYTES
from repro.types import (
    PTE,
    AccessKind,
    PageSize,
    TranslationError,
    WalkAccess,
    WalkResult,
)

FOLDED_TABLE_BYTES = 2 << 20  # 2 MB: 2**18 eight-byte entries
FOLDED_BITS = 18
FOLDED_ENTRIES = 1 << FOLDED_BITS


class _Node:
    """A table in the (possibly folded) tree."""

    __slots__ = ("paddr", "entries", "folded", "size_bytes")

    def __init__(self, paddr: int, folded: bool, size_bytes: int):
        self.paddr = paddr
        self.folded = folded
        self.size_bytes = size_bytes
        self.entries: Dict[int, Union["_Node", "_Sub", PTE]] = {}

    def entry_paddr(self, index: int) -> int:
        return self.paddr + index * ENTRY_BYTES


class _Sub:
    """An unfolded fallback pair: a 4 KB upper table whose entries point
    at 4 KB lower tables (two accesses instead of one)."""

    __slots__ = ("upper", "lowers")

    def __init__(self, upper: _Node):
        self.upper = upper
        self.lowers: Dict[int, _Node] = {}


class FlattenedPageTable:
    """Radix with L4+L3 and L2+L1 folding when contiguity allows."""

    def __init__(self, allocator: Optional[PhysicalAllocator] = None):
        self.allocator = allocator or BumpAllocator()
        self._bytes = 0
        self.folds_succeeded = 0
        self.folds_failed = 0
        self.root = self._alloc_folded()  # top: folded L4+L3 (always tried once)
        if self.root is None:
            # Even the root fold failed: plain 4 KB upper table.
            self.root = _Sub(self._alloc_small())

    # -- allocation -----------------------------------------------------
    def _alloc_folded(self) -> Optional[_Node]:
        try:
            paddr = self.allocator.alloc(FOLDED_TABLE_BYTES)
        except OutOfPhysicalMemory:
            self.folds_failed += 1
            return None
        # A folded table competes for exactly the 2 MB blocks data huge
        # pages want; the caller may still get None if the buddy has no
        # order-9 block.
        self.folds_succeeded += 1
        self._bytes += FOLDED_TABLE_BYTES
        return _Node(paddr, folded=True, size_bytes=FOLDED_TABLE_BYTES)

    def _alloc_small(self) -> _Node:
        paddr = self.allocator.alloc(TABLE_BYTES)
        self._bytes += TABLE_BYTES
        return _Node(paddr, folded=False, size_bytes=TABLE_BYTES)

    # -- index helpers ----------------------------------------------------
    @staticmethod
    def _upper_index(vpn: int) -> int:
        return (vpn >> FOLDED_BITS) & (FOLDED_ENTRIES - 1)

    @staticmethod
    def _lower_index(vpn: int) -> int:
        return vpn & (FOLDED_ENTRIES - 1)

    # -- mapping ----------------------------------------------------------
    def map(self, pte: PTE) -> None:
        if pte.page_size is PageSize.SIZE_1G:
            raise TranslationError(
                "this FPT configuration folds L2+L1 and cannot hold 1 GB pages"
            )
        if pte.vpn % pte.page_size.pages_4k != 0:
            raise TranslationError(
                f"VPN {pte.vpn:#x} misaligned for {pte.page_size.name}"
            )
        upper_entry = self._upper_slot(pte.vpn, create=True)
        node_or_sub = upper_entry
        if pte.page_size is PageSize.SIZE_2M:
            # A 2 MB page occupies 512 lower slots' span; store it once
            # per covered lower index granule start.
            self._set_lower(node_or_sub, pte.vpn, pte)
        else:
            self._set_lower(node_or_sub, pte.vpn, pte)

    def _upper_slot(self, vpn: int, create: bool):
        """Resolve (creating on demand) the lower-level container for
        this VPN's 1 GB-scale region."""
        index = self._upper_index(vpn)
        if isinstance(self.root, _Node):
            lower = self.root.entries.get(index)
            if lower is None and create:
                lower = self._alloc_folded()
                if lower is None:
                    lower = _Sub(self._alloc_small())
                self.root.entries[index] = lower
            return lower
        # Unfolded root: chase two small tables.
        sub: _Sub = self.root
        up_idx = index >> 9
        lo_idx = index & 511
        lower_tbl = sub.lowers.get(up_idx)
        if lower_tbl is None and create:
            lower_tbl = self._alloc_small()
            sub.lowers[up_idx] = lower_tbl
        if lower_tbl is None:
            return None
        lower = lower_tbl.entries.get(lo_idx)
        if lower is None and create:
            lower = self._alloc_folded()
            if lower is None:
                lower = _Sub(self._alloc_small())
            lower_tbl.entries[lo_idx] = lower
        return lower

    def _set_lower(self, container, vpn: int, pte: PTE) -> None:
        index = self._lower_index(vpn)
        if isinstance(container, _Node):
            if index in container.entries:
                raise DuplicateMappingError(f"VPN {vpn:#x} already mapped")
            container.entries[index] = pte
            return
        sub: _Sub = container
        up_idx = index >> 9
        lo_idx = index & 511
        lower = sub.lowers.get(up_idx)
        if lower is None:
            lower = self._alloc_small()
            sub.lowers[up_idx] = lower
        if lo_idx in lower.entries:
            raise DuplicateMappingError(f"VPN {vpn:#x} already mapped")
        lower.entries[lo_idx] = pte

    def unmap(self, vpn: int) -> PTE:
        container = self._upper_slot(vpn, create=False)
        if container is None:
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        index = self._lower_index(vpn)
        if isinstance(container, _Node):
            entry = container.entries.get(index)
            if isinstance(entry, PTE) and entry.vpn == vpn:
                del container.entries[index]
                return entry
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        sub: _Sub = container
        lower = sub.lowers.get(index >> 9)
        if lower is not None:
            entry = lower.entries.get(index & 511)
            if isinstance(entry, PTE) and entry.vpn == vpn:
                del lower.entries[index & 511]
                return entry
        raise TranslationError(f"VPN {vpn:#x} is not mapped")

    # -- walking -----------------------------------------------------------
    def walk(self, vpn: int) -> WalkResult:
        accesses = []
        index = self._upper_index(vpn)
        # Step 1: upper structure (folded: 1 access; unfolded: 2).
        if isinstance(self.root, _Node):
            # A folded L4+L3 entry covers 1 GB, like a PDPTE: tag it
            # level 3 so the PWC keys and skips it correctly.
            accesses.append(
                WalkAccess(self.root.entry_paddr(index), AccessKind.PT_NODE, level=3)
            )
            container = self.root.entries.get(index)
        else:
            sub: _Sub = self.root
            accesses.append(
                WalkAccess(sub.upper.entry_paddr(index >> 9), AccessKind.PT_NODE, level=4)
            )
            lower_tbl = sub.lowers.get(index >> 9)
            if lower_tbl is None:
                return WalkResult(None, accesses)
            accesses.append(
                WalkAccess(lower_tbl.entry_paddr(index & 511), AccessKind.PT_NODE, level=3)
            )
            container = lower_tbl.entries.get(index & 511)
        if container is None:
            return WalkResult(None, accesses)
        # Step 2: lower structure (folded: 1 access; unfolded: 2).
        low = self._lower_index(vpn)
        if isinstance(container, _Node):
            accesses.append(
                WalkAccess(container.entry_paddr(low), AccessKind.PT_LEAF, level=1)
            )
            entry = container.entries.get(low)
            if isinstance(entry, PTE) and entry.covers(vpn):
                return WalkResult(entry, accesses)
            # 2 MB pages live at their first sub-VPN's slot.
            aligned = low - (low % PageSize.SIZE_2M.pages_4k)
            entry = container.entries.get(aligned)
            if isinstance(entry, PTE) and entry.covers(vpn):
                return WalkResult(entry, accesses)
            return WalkResult(None, accesses)
        sub = container
        accesses.append(
            WalkAccess(sub.upper.entry_paddr(low >> 9), AccessKind.PT_NODE, level=2)
        )
        lower = sub.lowers.get(low >> 9)
        if lower is None:
            return WalkResult(None, accesses)
        accesses.append(
            WalkAccess(lower.entry_paddr(low & 511), AccessKind.PT_LEAF, level=1)
        )
        entry = lower.entries.get(low & 511)
        if isinstance(entry, PTE) and entry.covers(vpn):
            return WalkResult(entry, accesses)
        aligned = (low & 511) - ((low & 511) % PageSize.SIZE_2M.pages_4k)
        entry = lower.entries.get(aligned)
        if isinstance(entry, PTE) and entry.covers(vpn):
            return WalkResult(entry, accesses)
        return WalkResult(None, accesses)

    def find(self, vpn: int) -> Optional[PTE]:
        return self.walk(vpn).pte

    def mappings(self) -> List[PTE]:
        """Every installed translation, in VPN order."""
        found: List[PTE] = []
        # An unfolded pair's lower tables hold what a folded table would.
        tables = [self.root]
        for table in tables:  # grows as child tables turn up
            children = table.lowers if isinstance(table, _Sub) else table.entries
            for entry in children.values():
                if isinstance(entry, PTE):
                    found.append(entry)
                else:
                    tables.append(entry)
        return sorted(found, key=attrgetter("vpn"))

    @property
    def table_bytes(self) -> int:
        return self._bytes

    @property
    def fold_success_rate(self) -> float:
        total = self.folds_succeeded + self.folds_failed
        return self.folds_succeeded / total if total else 0.0
