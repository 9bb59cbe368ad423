"""Binary buddy allocator modelling Linux's physical page allocator.

LVM sizes its gapped page tables to the contiguity the buddy allocator
can provide *right now* (paper section 4.3.2), and the fragmentation
studies of sections 3.2 and 7.3 are defined in terms of buddy-order
availability, so the reproduction needs a faithful buddy: power-of-two
blocks, split on demand, coalesce with the buddy on free, free lists
per order.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mem.allocator import OutOfPhysicalMemory
from repro.types import BASE_PAGE_SHIFT, BASE_PAGE_SIZE

DEFAULT_MAX_ORDER = 18  # 4 KB << 18 = 1 GB largest block, > Linux's 10


class BuddyAllocator:
    """A binary buddy allocator over a contiguous physical range."""

    def __init__(
        self,
        total_bytes: int,
        base_paddr: int = 0,
        max_order: int = DEFAULT_MAX_ORDER,
    ):
        if total_bytes < BASE_PAGE_SIZE:
            raise ValueError("need at least one page of physical memory")
        self.base_paddr = base_paddr
        self.max_order = max_order
        self.total_pages = total_bytes // BASE_PAGE_SIZE
        # free_lists[order] -> sorted-ish list of page-frame numbers
        # (relative to base) of free blocks of 2**order pages.
        self.free_lists: List[List[int]] = [[] for _ in range(max_order + 1)]
        self._free_set: Dict[int, int] = {}  # pfn -> order, for coalescing
        self.free_pages = 0
        self._seed_free_blocks()

    def _seed_free_blocks(self) -> None:
        pfn = 0
        remaining = self.total_pages
        while remaining > 0:
            order = min(self.max_order, remaining.bit_length() - 1)
            # Keep blocks naturally aligned, as real buddies are.
            while order > 0 and pfn % (1 << order) != 0:
                order -= 1
            self._insert_free(pfn, order)
            pfn += 1 << order
            remaining -= 1 << order

    # -- free-list bookkeeping ----------------------------------------
    def _insert_free(self, pfn: int, order: int) -> None:
        self.free_lists[order].append(pfn)
        self._free_set[pfn] = order
        self.free_pages += 1 << order

    def _remove_free(self, pfn: int, order: int) -> None:
        self.free_lists[order].remove(pfn)
        del self._free_set[pfn]
        self.free_pages -= 1 << order

    # -- public API ------------------------------------------------------
    @staticmethod
    def order_for(nbytes: int) -> int:
        pages = -(-nbytes // BASE_PAGE_SIZE)
        return max(0, (pages - 1).bit_length())

    def alloc_order(self, order: int) -> int:
        """Allocate a block of 2**order pages; returns its base paddr."""
        if order > self.max_order:
            raise OutOfPhysicalMemory(f"order {order} exceeds max {self.max_order}")
        current = order
        while current <= self.max_order and not self.free_lists[current]:
            current += 1
        if current > self.max_order:
            raise OutOfPhysicalMemory(
                f"no free block of order >= {order} "
                f"({self.free_pages} pages free but fragmented)"
            )
        pfn = self.free_lists[current].pop()
        del self._free_set[pfn]
        self.free_pages -= 1 << current
        # Split down to the requested order, freeing the upper halves.
        while current > order:
            current -= 1
            buddy = pfn + (1 << current)
            self._insert_free(buddy, current)
        return self.base_paddr + (pfn << BASE_PAGE_SHIFT)

    def alloc(self, nbytes: int) -> int:
        return self.alloc_order(self.order_for(nbytes))

    def free(self, paddr: int, nbytes: int) -> None:
        self.free_order(paddr, self.order_for(nbytes))

    def free_order(self, paddr: int, order: int) -> None:
        pfn = (paddr - self.base_paddr) >> BASE_PAGE_SHIFT
        if pfn % (1 << order) != 0:
            raise ValueError(f"pfn {pfn} misaligned for order {order}")
        # Coalesce with the buddy while possible.
        while order < self.max_order:
            buddy = pfn ^ (1 << order)
            if self._free_set.get(buddy) != order:
                break
            self._remove_free(buddy, order)
            pfn = min(pfn, buddy)
            order += 1
        self._insert_free(pfn, order)

    def max_contiguous_bytes(self) -> int:
        for order in range(self.max_order, -1, -1):
            if self.free_lists[order]:
                return (1 << order) * BASE_PAGE_SIZE
        return 0

    # -- introspection for the fragmentation studies -------------------
    @property
    def free_bytes(self) -> int:
        return self.free_pages * BASE_PAGE_SIZE

    @property
    def used_bytes(self) -> int:
        return (self.total_pages - self.free_pages) * BASE_PAGE_SIZE

    def free_pages_at_or_above(self, order: int) -> int:
        """Free pages sitting in blocks of at least 2**order pages."""
        return sum(
            len(self.free_lists[o]) << o for o in range(order, self.max_order + 1)
        )

    def contiguity_fraction(self, block_bytes: int) -> float:
        """Fraction of free memory immediately allocatable as
        ``block_bytes``-sized contiguous blocks (Figure 3's metric)."""
        if self.free_pages == 0:
            return 0.0
        order = self.order_for(block_bytes)
        if order > self.max_order:
            return 0.0
        usable = 0
        for o in range(order, self.max_order + 1):
            usable += (len(self.free_lists[o]) << o) // (1 << order) * (1 << order)
        return usable / self.free_pages

    def fmfi(self, order: int) -> float:
        """Free-memory fragmentation index at ``order`` (Gorman 2005).

        0 means all free memory is available at the requested order;
        values toward 1 mean free memory exists but is too fragmented.
        """
        if self.free_pages == 0:
            return 0.0
        satisfying = self.free_pages_at_or_above(order)
        return 1.0 - satisfying / self.free_pages
