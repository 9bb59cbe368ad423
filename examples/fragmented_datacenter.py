#!/usr/bin/env python3
"""LVM on a fragmented datacenter server (paper sections 3.2, 7.3).

Simulates a long-running server: physical memory is churned until free
memory exists only in small pieces (the condition Figure 3 measures at
Meta), then an LVM index is built for a memcached-style process on that
machine.  LVM adapts its gapped page tables to whatever contiguity the
buddy allocator still has — the property that lets it work where
designs needing large contiguous tables (e.g. FPT's 2 MB folds) fail.

Run:  python examples/fragmented_datacenter.py
"""

from repro.analysis import bytes_human, render_table
from repro.core.nodes import leaf_nodes
from repro.mem import BuddyAllocator, datacenter_churn, measure_contiguity
from repro.sim.simulator import TranslationStack
from repro.workloads import build_workload


def main() -> None:
    # -- 1. A server after months of uptime --------------------------------
    print("Churning a 2 GB buddy allocator to datacenter fragmentation...")
    buddy = BuddyAllocator(2 << 30)
    datacenter_churn(buddy, target_occupancy=0.7)
    profile = measure_contiguity(buddy)
    rows = [(f"{size >> 10}KB", f"{frac:.3f}") for size, frac in profile.rows()]
    print(render_table(
        ["contiguous block", "fraction of free memory"], rows,
        title="Figure 3 — what this server can still allocate",
    ))
    print(f"largest free block: {bytes_human(buddy.max_contiguous_bytes())}")

    # -- 2. Build LVM for a memcached-style process on it -------------------
    print("\nBuilding LVM for a memcached-style address space "
          "on the fragmented server...")
    workload = build_workload("mem$")
    stack = TranslationStack("lvm", vmas=workload.vmas, allocator=buddy)
    index = stack.page_table
    leaves = leaf_nodes(index.root)
    table_sizes = sorted(leaf.table.size_bytes for leaf in leaves)
    print(f"  index size     : {index.index_size_bytes} bytes")
    print(f"  gapped tables  : {len(leaves)}")
    print(f"  largest table  : {bytes_human(table_sizes[-1])} "
          f"(fits the available contiguity)")
    print(f"  total PT space : {bytes_human(index.table_bytes)} for "
          f"{index.num_mappings} translations "
          f"(minimum {bytes_human(index.min_required_bytes)})")

    # -- 3. Lookups still single-access ------------------------------------
    trace = workload.trace(20_000, seed=1)
    for va in trace:
        index.walk(int(va) >> 12)
    print(f"  collision rate : {index.stats.collision_rate:.4f} over "
          f"{index.stats.lookups} lookups")
    assert index.stats.collision_rate < 0.05


if __name__ == "__main__":
    main()
