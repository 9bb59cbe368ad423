"""Section 7.3 tail-latency study (memcached).

"Our results show that LVM computational costs do not affect even the
99th percentile tail latency."  We replay a memcached GET stream,
charging each request its translation + data-access cycles; concurrent
address-space growth runs in the background so LVM's management events
(inserts, rescales, the odd retrain) land *between* requests, and the
request-latency distribution is compared against radix.
"""

import numpy as np

from repro.analysis import render_table
from repro.sim import SimConfig, Simulator
from repro.types import PTE
from repro.workloads import build_workload

from conftest import bench_refs

ACCESSES_PER_REQUEST = 4  # bucket probe + item + metadata touches


def run_request_stream(scheme: str):
    workload = build_workload("mem$")
    cfg = SimConfig(num_refs=bench_refs())
    sim = Simulator(scheme, workload, cfg)
    trace = workload.trace(bench_refs(), cfg.trace_seed)
    num_requests = len(trace) // ACCESSES_PER_REQUEST
    latencies = np.zeros(num_requests)
    core = cfg.core
    # Background growth: a fresh arena faulted in while serving.
    growth_base = max(v.end_vpn for v in workload.vmas) + (1 << 13)
    growth_cursor = 0
    for r in range(num_requests):
        cycles = 0.0
        for k in range(ACCESSES_PER_REQUEST):
            va = int(trace[r * ACCESSES_PER_REQUEST + k])
            pte, tcycles = sim.mmu.translate(va)
            if pte is None:
                sim.process.handle_fault(va)
                pte, more = sim.mmu.translate(va)
                tcycles += more
            cycles += tcycles * core.walk_stall_exposure
            cycles += sim.hierarchy.access(pte.translate(va)) * core.data_stall_exposure
        if scheme == "lvm" and r % 50 == 0:
            # Growth between requests: LVM management work happens here.
            before = sim.page_table.stats.local_retrains
            sim.page_table.map(PTE(vpn=growth_base + growth_cursor,
                                   ppn=growth_cursor))
            growth_cursor += 1
            retrained = sim.page_table.stats.local_retrains - before
            cycles += retrained * cfg.lvm_costs.local_retrain_cycles
        latencies[r] = cycles
    return latencies


def test_sec73_tail_latency(benchmark):
    def run_both():
        return {s: run_request_stream(s) for s in ("radix", "lvm")}

    lat = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    stats = {}
    for scheme, values in lat.items():
        p50, p99, p999 = np.percentile(values, [50, 99, 99.9])
        stats[scheme] = (p50, p99, p999)
        rows.append((scheme, f"{p50:.0f}", f"{p99:.0f}", f"{p999:.0f}"))
    print()
    print(render_table(
        ["scheme", "p50 (cycles)", "p99", "p99.9"], rows,
        title="Section 7.3 — memcached request latency under growth",
    ))
    # LVM's p99 beats radix's (its walks are cheaper) and management
    # work between requests does not blow up the tail.
    assert stats["lvm"][1] <= stats["radix"][1] * 1.02
    assert stats["lvm"][2] <= stats["radix"][2] * 1.2
