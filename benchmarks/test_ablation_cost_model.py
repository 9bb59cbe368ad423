"""Ablations over LVM's design parameters (DESIGN.md extensions).

Sweeps the cost-model weights, the gapped-array scale, the depth limit
and the minimum insertion distance, exposing each design choice's
contribution — the trade-offs section 4.2.3 describes qualitatively.
"""

from repro.analysis import render_table
from repro.core import LearnedIndex, LVMConfig
from repro.mem import BumpAllocator
from repro.sim.simulator import TranslationStack
from repro.types import PTE
from repro.workloads import build_workload


def build_with(config: LVMConfig, workload):
    """The LVM index a process over ``workload``'s VMAs builds."""
    return TranslationStack("lvm", vmas=workload.vmas, lvm_config=config).page_table


def probe(index, workload, n=15_000):
    trace = workload.trace(n, seed=2)
    for va in trace:
        index.walk(int(va) >> 12)
    return index.stats.collision_rate


def test_ablation_x3_collision_weight(benchmark):
    """x3 trades index size for collision rate (equation 1)."""
    def run():
        workload = build_workload("MUMr")
        rows = []
        for x3 in (0.0, 20.0, 200.0, 2000.0):
            index = build_with(LVMConfig(x3=x3), workload)
            cr = probe(index, workload)
            rows.append((x3, index.index_size_bytes, cr))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["x3", "index bytes", "collision rate"], rows,
        title="Ablation — collision weight x3 (MUMr)",
    ))
    # More collision weight never hurts collisions.
    assert rows[-1][2] <= rows[0][2] + 0.01


def test_ablation_ga_scale(benchmark):
    """ga_scale trades memory overhead for insert behaviour (4.3.2)."""
    def run():
        rows = []
        base = [PTE(vpn=2 * v, ppn=v) for v in range(30_000)]
        for ga in (1.05, 1.3, 1.6):
            config = LVMConfig(ga_scale=ga)
            index = LearnedIndex(BumpAllocator(), config)
            index.bulk_build(list(base))
            for v in range(0, 6000, 2):  # gap inserts
                index.insert(PTE(vpn=2 * v + 1, ppn=v))
            overhead = index.table_bytes / index.min_required_bytes
            rows.append((
                ga, f"{overhead:.2f}x",
                index.stats.local_retrains + index.stats.full_rebuilds,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["ga_scale", "table overhead", "retrains during inserts"], rows,
        title="Ablation — gapped-array scale",
    ))
    # Larger gaps absorb more inserts without retraining.
    assert rows[-1][2] <= rows[0][2]


def test_ablation_d_limit(benchmark):
    """d_limit bounds worst-case walk length (section 4.2.3)."""
    def run():
        workload = build_workload("mem$")
        rows = []
        for d_limit in (1, 2, 3, 4):
            index = build_with(LVMConfig(d_limit=d_limit), workload)
            cr = probe(index, workload, n=8_000)
            rows.append((d_limit, index.depth, index.index_size_bytes, cr))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["d_limit", "actual depth", "index bytes", "collision rate"], rows,
        title="Ablation — depth limit (mem$)",
    ))
    for d_limit, depth, _, _ in rows:
        assert depth <= d_limit
    # A one-level index cannot describe a multi-segment space as well.
    assert rows[0][3] >= rows[2][3] - 0.005


def test_ablation_min_insert_distance(benchmark):
    """The minimum insertion distance amortizes edge growth (4.3.4)."""
    def run():
        rows = []
        for dist_mb in (1, 16, 64, 256):
            config = LVMConfig(min_insert_distance_bytes=dist_mb << 20)
            index = LearnedIndex(BumpAllocator(), config)
            index.bulk_build([PTE(vpn=v, ppn=v) for v in range(10_000)])
            for v in range(10_000, 60_000):
                index.insert(PTE(vpn=v, ppn=v))
            rows.append((
                f"{dist_mb}MB", index.stats.rescales,
                index.stats.local_retrains, index.stats.full_rebuilds,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["min insert distance", "rescales", "local retrains", "rebuilds"],
        rows,
        title="Ablation — minimum insertion distance (50k edge inserts)",
    ))
    # Larger distances mean fewer edge expansions.
    assert rows[-1][1] <= rows[0][1]
    # The paper's 64 MB default absorbs 50k pages in a handful of
    # expansions with no rebuilds.
    by_dist = {r[0]: r for r in rows}
    assert by_dist["64MB"][1] <= 16
    assert by_dist["64MB"][3] == 0
