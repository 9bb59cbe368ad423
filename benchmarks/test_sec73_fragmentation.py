"""Section 7.3 memory fragmentation study.

The paper caps LVM's physical allocations at 256 KB (abundant even in
highly fragmented datacenters, Figure 3) and pushes the free-memory
fragmentation index (FMFI) to 0.8 / 0.85 / 0.9: LVM adapts by creating
more, smaller gapped page tables, keeps per-node coverage high, and
performance stays put (LWC hit rates above 99%).
"""

from repro.analysis import render_table
from repro.core.nodes import leaf_nodes
from repro.mem.buddy import BuddyAllocator
from repro.mem.fragmentation import fragment_to_fmfi, fragment_to_max_contiguity
from repro.sim import SimConfig, Simulator
from repro.workloads import build_workload

from conftest import bench_refs


def _make_allocator(kind):
    buddy = BuddyAllocator(4 << 30)
    if kind == "cap256k":
        fragment_to_max_contiguity(buddy, 256 << 10)
    elif kind.startswith("fmfi"):
        fragment_to_fmfi(buddy, float(kind[4:]) / 100.0)
    return buddy


def test_sec73_fragmentation(benchmark):
    def run_all():
        workload = build_workload("gups")
        results = {}
        # Baseline: unfragmented.
        sim = Simulator("lvm", workload, SimConfig(num_refs=bench_refs()))
        results["none"] = (sim, sim.run())
        for kind in ("cap256k", "fmfi80", "fmfi85", "fmfi90"):
            cfg = SimConfig(num_refs=bench_refs())
            # Back the LVM structures with a pre-fragmented buddy.
            sim = Simulator("lvm", workload, cfg, allocator=_make_allocator(kind))
            results[kind] = (sim, sim.run())
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base_cycles = results["none"][1].cycles
    rows = []
    for kind, (sim, res) in results.items():
        index = sim.page_table
        leaves = leaf_nodes(index.root)
        max_table = max(l.table.size_bytes for l in leaves)
        rows.append((
            kind, len(leaves), f"{max_table >> 10}KB",
            f"{res.walk_cache_hit_rate:.4f}",
            f"{base_cycles / res.cycles:.3f}",
        ))
    print()
    print(render_table(
        ["fragmentation", "leaves", "largest GPT", "LWC hit rate",
         "speedup vs unfragmented"],
        rows,
        title="Section 7.3 — LVM under physical memory fragmentation",
    ))
    capped = results["cap256k"]
    for leaf in leaf_nodes(capped[0].page_table.root):
        assert leaf.table.size_bytes <= 256 << 10
    for kind, (sim, res) in results.items():
        # Paper: LWC hit rates stay above 99% and performance is flat.
        assert res.walk_cache_hit_rate > 0.98, kind
        assert res.cycles < base_cycles * 1.06, kind
