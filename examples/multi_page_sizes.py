#!/usr/bin/env python3
"""Multiple (and arbitrary!) page sizes in one learned index.

Section 4.4's claim, demonstrated: LVM represents different page sizes
as different slopes in one structure — no separate tables, no extra
lookups.  The last part exercises the paper's "future work" teaser:
*arbitrary* page sizes beyond x86's 4K/2M/1G work with zero changes,
because a page size is just another slope.

Run:  python examples/multi_page_sizes.py
"""

from repro.core import LearnedIndex
from repro.mem import BumpAllocator
from repro.types import PTE, PageSize


def main() -> None:
    index = LearnedIndex(BumpAllocator())

    # A mixed address space: dense 4 KB pages (steep slope), a run of
    # 2 MB pages (slope / 512), and a 1 GB page (slope / 262144).
    mappings = []
    mappings += [PTE(vpn=v, ppn=0x1000 + v) for v in range(2048)]
    mappings += [
        PTE(vpn=(1 << 16) + 512 * i, ppn=0x100000 + i, page_size=PageSize.SIZE_2M)
        for i in range(64)
    ]
    mappings += [
        PTE(vpn=1 << 18, ppn=0x800000, page_size=PageSize.SIZE_1G)
    ]
    index.bulk_build(mappings)

    print(f"One index over {len(mappings)} mappings of three sizes:")
    print(f"  index size: {index.index_size_bytes} bytes, "
          f"depth {index.depth}, {index.num_leaves} leaves")

    # Every size resolves with a lookup of the 4 KB query VPN — the
    # entry's 2-bit size field tells the TLB what reach to install.
    probes = [
        ("4 KB page", 1234),
        ("2 MB page interior", (1 << 16) + 512 * 7 + 300),
        ("1 GB page interior", (1 << 18) + 99_999),
    ]
    for label, vpn in probes:
        walk = index.walk(vpn)
        assert walk.hit, label
        print(f"  {label:20s} VPN {vpn:>8}: size field "
              f"{walk.pte.page_size.encode()} ({walk.pte.page_size.name}), "
              f"{walk.total_memory_accesses} memory accesses")

    # -- Arbitrary page sizes (the paper's future-work direction) ---------
    # A hypothetical 64 KB page = 16 base pages.  Nothing in the index
    # knows about it; it is just mappings whose covers() span 16 VPNs
    # and a leaf whose slope is ~1/16.
    # Duck-typed page size: like a PageSize member, an int holding the
    # byte count (what the entry's integrity tag and the index read),
    # with the 4 KB page count and the size field.
    class Size64K(int):
        pages_4k = 16
        name = "SIZE_64K"

        @staticmethod
        def encode():
            return 3

    size_64k = Size64K(64 << 10)
    odd_index = LearnedIndex(BumpAllocator())
    base = 1 << 20
    odd = [
        PTE(vpn=base + 16 * i, ppn=0x200000 + i, page_size=size_64k)  # type: ignore[arg-type]
        for i in range(256)
    ]
    odd_index.bulk_build(odd)
    walk = odd_index.walk(base + 16 * 100 + 9)
    assert walk.hit and walk.pte is odd[100]
    print(f"\nArbitrary 64 KB pages: index "
          f"{odd_index.index_size_bytes} bytes, lookup of an interior "
          f"VPN resolves in {walk.total_memory_accesses} accesses — no "
          f"hardware or structural changes (section 4.4).")


if __name__ == "__main__":
    main()
