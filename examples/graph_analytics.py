#!/usr/bin/env python3
"""Graph analytics under four translation schemes.

Reproduces the paper's headline scenario on one workload: a graphBIG
BFS over a Kronecker graph (the 75 GB workload, scaled), simulated
end-to-end under radix, ECPT, LVM and the ideal page table, printing
the per-scheme speedups, MMU overhead and page-walk traffic — a
single-workload slice of Figures 9-11.

Run:  python examples/graph_analytics.py [kernel] [refs]
      kernel in {bfs, dfs, cc, dc, pr, sssp}, default bfs
"""

import sys

from repro.analysis import render_table
from repro.sim import SimConfig, Simulator
from repro.workloads import build_workload


def main() -> None:
    kernel = sys.argv[1] if len(sys.argv) > 1 else "bfs"
    refs = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000

    print(f"Building graph workload {kernel!r} "
          f"(Kronecker graph, scaled from the paper's 75 GB)...")
    workload = build_workload(kernel)
    space = workload.space
    print(f"  mapped pages : {space.total_pages}")
    print(f"  gap=1 coverage: {space.gap_coverage():.3f} (Figure 2)")

    config = SimConfig(num_refs=refs)
    results = {}
    for scheme in ("radix", "ecpt", "lvm", "ideal"):
        print(f"  simulating {scheme}...")
        sim = Simulator(scheme, workload, config)
        results[scheme] = (sim, sim.run())

    base = results["radix"][1]
    rows = []
    for scheme, (sim, res) in results.items():
        rows.append((
            scheme,
            f"{base.cycles / res.cycles:.3f}",
            f"{res.mmu_cycles / base.mmu_cycles:.2f}",
            f"{res.walk_traffic / base.walk_traffic:.2f}",
            f"{res.walk_cycles_per_walk:.0f}",
            f"{res.walk_traffic_per_walk:.2f}",
        ))
    print()
    print(render_table(
        ["scheme", "speedup", "MMU overhead", "walk traffic",
         "cycles/walk", "accesses/walk"],
        rows,
        title=f"{kernel} under 4 KB pages (all relative to radix)",
    ))

    lvm_sim, lvm_res = results["lvm"]
    index = lvm_sim.page_table
    print(f"\nLVM learned index: {index.index_size_bytes} bytes, "
          f"depth {index.depth}, {index.num_leaves} leaves, "
          f"LWC hit rate {lvm_res.walk_cache_hit_rate:.4f}, "
          f"collision rate {index.stats.collision_rate:.4f}")


if __name__ == "__main__":
    main()
