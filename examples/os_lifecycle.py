#!/usr/bin/env python3
"""A process lifetime over an LVM page table (paper section 5).

Follows one process from exec() to exit the way the paper's Linux
prototype drives LVM: batched initial mappings, demand growth at the
heap edge, mid-life munmap/mmap churn, mprotect and accessed/dirty-bit
updates (software walks), and the shared kernel index — printing the
management events (rescales / retrains / rebuilds / LWC flushes) the
paper measures in section 7.3.

Run:  python examples/os_lifecycle.py
"""

from repro.analysis import render_table
from repro.core import LearnedIndex
from repro.kernel import (
    KERNEL_BASE_VPN,
    Process,
    SharedKernelIndex,
    VMA,
)
from repro.mem import BumpAllocator
from repro.types import Permission


def main() -> None:
    # -- Boot: one kernel index shared by everyone (section 5.2) --------
    kernel = SharedKernelIndex(BumpAllocator())
    kernel.map_direct(KERNEL_BASE_VPN, 50_000, ppn0=0)
    print(f"Kernel index: {kernel.index.index_size_bytes} bytes, shared by all "
          f"processes (no per-process kernel training)")

    # -- exec(): initial VMAs stream in, the index is built once ---------
    index = LearnedIndex(BumpAllocator())
    process = Process(index)
    kernel.attach()
    index.begin_batch()
    process.mmap(VMA(start_vpn=0x400, pages=1024, perms=Permission.RX,
                     name="text", file_backed=True))
    process.mmap(VMA(start_vpn=0x1000, pages=512, name="data"))
    process.mmap(VMA(start_vpn=0x4000, pages=20_000, name="heap"))
    process.mmap(VMA(start_vpn=0x7FFF_F000, pages=2048, name="stack"))
    index.end_batch()
    print(f"\nAfter exec: index {index.index_size_bytes} bytes, "
          f"depth {index.depth}, {index.num_mappings} mappings")

    # -- Steady state: the heap grows page by page -----------------------
    heap_end = 0x4000 + 20_000
    process.mmap(VMA(start_vpn=heap_end, pages=30_000, name="heap2"),
                 populate=False)
    for vpn in range(heap_end, heap_end + 30_000):
        process.handle_fault(vpn << 12)  # demand paging, one insert each

    # -- Mid-life churn ----------------------------------------------------
    process.munmap(0x1000)  # drop the data segment...
    process.mmap(VMA(start_vpn=0x1000, pages=512, name="data"))  # ...remap

    # -- Software PTE operations (section 5.2, "Software lookup") --------
    # The OS finds the PTE in its own records and writes it in place; a
    # permission change then needs a TLB shootdown, not an index change.
    pte = index.find(0x4000)
    pte.accessed = True
    pte.dirty = True
    index.find(0x400).perms = Permission.READ
    print(f"software walk of heap base: accessed={pte.accessed} "
          f"dirty={pte.dirty}")

    # -- The section 7.3 management events ---------------------------------
    stats = index.stats
    max_retrain_s = max(stats.retrain_times_s, default=0.0)
    rows = [
        ("full rebuilds (retrains)", stats.full_rebuilds),
        ("local leaf retrains", stats.local_retrains),
        ("rescales (edge growth)", stats.rescales),
        ("LWC flushes", stats.lwc_flushes),
        ("max retrain time", f"{max_retrain_s * 1e3:.2f} ms"),
        ("management CPU time", f"{stats.management_time_s * 1e3:.1f} ms"),
    ]
    print()
    print(render_table(["event", "count"], rows,
                       title="Management events over the process lifetime"))
    print(f"\nPaper section 7.3: retrains occur at most 3 times (2 on "
          f"average) and cost ~ms — this run: {stats.full_rebuilds} "
          f"rebuilds, {max_retrain_s * 1e3:.2f} ms worst.")
    assert stats.full_rebuilds <= 3

    # -- exit(): everything torn down -------------------------------------
    for name_vpn in (0x400, 0x4000, heap_end, 0x7FFF_F000):
        process.munmap(name_vpn)
    print(f"\nAfter exit: {index.num_mappings - 512} non-data mappings left "
          f"(data segment remapped above still present: "
          f"{index.num_mappings} total)")


if __name__ == "__main__":
    main()
