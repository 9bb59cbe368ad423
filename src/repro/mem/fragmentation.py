"""Fragmentation injection and measurement (paper sections 3.2, 7.3).

The paper's Figure 3 measures, across Meta's fleet, the median fraction
of free memory immediately allocatable as a contiguous block of a given
size: plentiful at hundreds of KBs, practically zero at hundreds of
MBs.  We reproduce the *generator* of that condition: a buddy allocator
subjected to datacenter-like churn (many small allocations with long
and mixed lifetimes pinning pages inside large blocks), then measure
the same metric.

Two fragmentation knobs are exposed, matching the studies in 7.3:

* ``fragment_to_max_contiguity`` caps the largest available block
  (e.g. 256 KB);
* ``fragment_to_fmfi`` drives the free-memory fragmentation index at a
  target order to a chosen level (0.8 / 0.85 / 0.9).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mem.allocator import OutOfPhysicalMemory
from repro.mem.buddy import BuddyAllocator
from repro.types import BASE_PAGE_SIZE

#: Block sizes reported in Figure 3 (bytes).
FIGURE3_SIZES = [
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    16 << 20,
    64 << 20,
    256 << 20,
    1 << 30,
]


@dataclass
class ContiguityProfile:
    """Fraction of free memory allocatable per contiguous block size."""

    fractions: Dict[int, float]

    def at(self, block_bytes: int) -> float:
        return self.fractions[block_bytes]

    def rows(self) -> List[Tuple[int, float]]:
        return sorted(self.fractions.items())


def measure_contiguity(
    buddy: BuddyAllocator, sizes: List[int] = FIGURE3_SIZES
) -> ContiguityProfile:
    return ContiguityProfile(
        {size: buddy.contiguity_fraction(size) for size in sizes}
    )


def datacenter_churn(
    buddy: BuddyAllocator,
    target_occupancy: float = 0.7,
    churn_rounds: int = 4,
    seed: int = 42,
    high_water: float = 0.97,
) -> None:
    """Fragment a buddy allocator the way long-running servers do.

    Long-lived small allocations pepper the physical space while bulk
    (short-lived) memory comes and goes: each round fills memory to the
    high-water mark with mostly-small allocations, then frees a random
    scatter of them back down toward ``target_occupancy``.  What
    survives pins pages everywhere, so the free memory left behind is
    made of small holes — Figure 3's shape: contiguity plentiful at
    tens-to-hundreds of KBs, gone at hundreds of MBs.
    """
    rng = random.Random(seed)
    live: List[Tuple[int, int]] = []  # (paddr, order)
    target_used = int(buddy.total_pages * target_occupancy)
    high_used = int(buddy.total_pages * high_water)
    for _ in range(churn_rounds):
        # Fill phase: mostly order 0-2 with occasional mid-size blocks.
        while buddy.total_pages - buddy.free_pages < high_used:
            order = rng.choice([0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6])
            try:
                paddr = buddy.alloc_order(order)
            except OutOfPhysicalMemory:
                break
            live.append((paddr, order))
        # Drain phase: free a random scatter down to the target; the
        # survivors are the long-lived population pinning the space.
        rng.shuffle(live)
        keep: List[Tuple[int, int]] = []
        for paddr, order in live:
            if buddy.total_pages - buddy.free_pages > target_used:
                buddy.free_order(paddr, order)
            else:
                keep.append((paddr, order))
        live = keep


def fragment_to_max_contiguity(buddy: BuddyAllocator, max_block_bytes: int) -> None:
    """Pin single pages until no free block exceeds ``max_block_bytes``.

    Used by the 7.3 fragmentation study that caps LVM's allocations at
    256 KB.  The pinned pages are leaked deliberately: they model other
    tenants' memory.
    """
    limit_order = BuddyAllocator.order_for(max_block_bytes)
    # Carve every block larger than the cap into (2 * cap)-sized chunks
    # and pin the first page of each chunk (leaked on purpose: it models
    # another tenant's memory).  Freeing the remaining pages coalesces
    # into one buddy block per order up to exactly `limit_order`, so
    # blocks of `max_block_bytes` stay plentiful but nothing larger can
    # ever reform.
    step = 1 << (limit_order + 1)
    for order in range(buddy.max_order, limit_order, -1):
        while buddy.free_lists[order]:
            base = buddy.alloc_order(order)
            pages = 1 << order
            for chunk_start in range(0, pages, step):
                chunk_base = base + chunk_start * BASE_PAGE_SIZE
                span = min(step, pages - chunk_start)
                for page in range(1, span):
                    buddy.free_order(chunk_base + page * BASE_PAGE_SIZE, 0)


def fragment_to_fmfi(
    buddy: BuddyAllocator,
    target_fmfi: float,
    order: int = 9,
    seed: int = 11,
) -> None:
    """Drive the FMFI at ``order`` (default 2 MB) up to ``target_fmfi``.

    Pins individual pages inside the largest free blocks until the
    requested fraction of free memory is unavailable at ``order``.
    """
    rng = random.Random(seed)
    guard = 0
    while buddy.fmfi(order) < target_fmfi and guard < 10_000_000:
        guard += 1
        # Break one block at or above `order` by pinning one page in it.
        top = None
        for o in range(buddy.max_order, order - 1, -1):
            if buddy.free_lists[o]:
                top = o
                break
        if top is None:
            break
        base = buddy.alloc_order(top)
        pages = 1 << top
        pin = rng.randrange(pages)
        for page in range(pages):
            if page == pin:
                continue
            buddy.free_order(base + page * BASE_PAGE_SIZE, 0)
