#!/usr/bin/env python3
"""Quickstart: build an LVM learned index and translate addresses.

This walks the paper's own example (section 4.1, Figure 4): an address
space with a heap and a stack, a learned index trained over it, and a
single-access translation for VPN 139.

Run:  python examples/quickstart.py
"""

from repro.core import LearnedIndex
from repro.mem import BumpAllocator
from repro.types import PTE, PageSize


def main() -> None:
    # -- 1. An application's mapped pages ---------------------------------
    # A heap covering VPNs [100, 150) and a stack at [1000, 1032),
    # echoing Figure 4(a).  Each VPN maps to some physical page.
    heap = [PTE(vpn=100 + i, ppn=0x100 + i) for i in range(50)]
    stack = [PTE(vpn=1000 + i, ppn=0x900 + i) for i in range(32)]

    # -- 2. Build the learned index ---------------------------------------
    # The OS does this when the process's first pages are mapped
    # (section 4.3.1).  The BumpAllocator stands in for the physical
    # page allocator backing the gapped page tables.
    index = LearnedIndex(BumpAllocator())
    index.bulk_build(heap + stack)

    print("Learned index built:")
    print(f"  size      : {index.index_size_bytes} bytes "
          f"({index.index_size_bytes // 16} linear models)")
    print(f"  depth     : {index.depth} model levels")
    print(f"  leaves    : {index.num_leaves} gapped page tables")

    # -- 3. Translate: the paper's VPN = 139 ------------------------------
    walk = index.walk(139)
    print(f"\nTranslate VPN 139:")
    print(f"  hit       : {walk.hit}")
    print(f"  PPN       : {walk.pte.ppn:#x}")
    print(f"  model hops: {len(walk.node_accesses)}")
    print(f"  PTE lines : {len(walk.pte_line_paddrs)} "
          f"(single-access translation: {walk.total_memory_accesses} "
          f"memory accesses total)")

    # -- 4. Grow the address space -----------------------------------------
    # Sequential growth at the heap edge is absorbed by the
    # minimum-insertion-distance + rescaling techniques (section 4.3.4):
    # no retraining happens.
    for vpn in range(150, 400):
        index.insert(PTE(vpn=vpn, ppn=0x2000 + vpn))
    stats = index.stats
    print(f"\nAfter 250 inserts at the heap edge:")
    print(f"  rescales      : {stats.rescales}")
    print(f"  local retrains: {stats.local_retrains}")
    print(f"  full rebuilds : {stats.full_rebuilds}")
    assert index.walk(399).hit

    # -- 5. Mix in a huge page ---------------------------------------------
    # One structure serves all page sizes (section 4.4): a 2 MB page is
    # keyed by its first 4 KB VPN; queries inside it round down.
    huge = PTE(vpn=512 * 16, ppn=0x8000, page_size=PageSize.SIZE_2M)
    index.insert(huge)
    inner = index.walk(512 * 16 + 123)
    print(f"\n2 MB page at VPN {huge.vpn}: query {512 * 16 + 123} -> "
          f"PPN {inner.pte.ppn:#x} (page size {inner.pte.page_size.name})")

    # -- 6. Collision statistics -------------------------------------------
    for vpn in range(100, 150):
        index.walk(vpn)
    print(f"\nCollision rate over the heap: {stats.collision_rate:.4f} "
          f"(paper: 0.2% average)")


if __name__ == "__main__":
    main()
