"""Section 7.3 "LVM Overheads in the OS".

Runs an LVM page table end-to-end over a growing address space (the
prototype-style run the paper uses beyond simulation) and measures
retrain frequency and cost.  Paper findings: retrains (full rebuilds)
occur at most 3 times / 2 on average, complete in ~ms, and management
is ~1% of execution.
"""

import time

from repro.analysis import render_table
from repro.core import LearnedIndex
from repro.mem.allocator import BumpAllocator
from repro.types import PTE



def run_lifetime(name_seed: int):
    """One process lifetime: init burst, steady growth, churn."""
    index = LearnedIndex(BumpAllocator())
    index.begin_batch()
    base = 0x400 + name_seed * (1 << 22)
    for v in range(base, base + 20_000):
        index.map(PTE(vpn=v, ppn=v))
    index.end_batch()
    # Steady-state growth at the edge (the common case).
    edge = base + 20_000
    for v in range(edge, edge + 30_000):
        index.map(PTE(vpn=v, ppn=v))
    # Some mid-life frees and reuses.
    for v in range(base + 100, base + 1100):
        index.unmap(v)
    for v in range(base + 100, base + 1100):
        index.map(PTE(vpn=v, ppn=v))
    return index.stats


def max_retrain_s(stats) -> float:
    return max(stats.retrain_times_s, default=0.0)


def test_sec73_os_overheads(benchmark):
    start = time.perf_counter()
    lifetimes = benchmark.pedantic(
        lambda: [run_lifetime(i) for i in range(4)], rounds=1, iterations=1
    )
    wall = time.perf_counter() - start
    rows = []
    for i, stats in enumerate(lifetimes):
        rows.append((
            f"proc{i}",
            stats.full_rebuilds,
            stats.local_retrains,
            stats.rescales,
            f"{max_retrain_s(stats) * 1e3:.2f}ms",
            f"{100 * stats.management_time_s / wall:.2f}%",
        ))
    print()
    print(render_table(
        ["process", "rebuilds", "local retrains", "rescales",
         "max retrain", "mgmt share"],
        rows,
        title="Section 7.3 — OS management overheads",
    ))
    for stats in lifetimes:
        # Paper: full rebuilds at most 3 per lifetime.
        assert stats.full_rebuilds <= 3
        # Retrains are fast (paper: < 1.9 ms at full scale; our spaces
        # are smaller, so the bound is comfortably loose).
        assert max_retrain_s(stats) < 0.2
        # Edge growth is absorbed by rescaling, not rebuilds.
        assert stats.rescales >= 1
