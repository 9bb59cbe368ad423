"""Section 7.1 multi-tenancy and multi-threading.

Paper findings: stacking workloads on an 8-core setup (one per core,
shared LLC) leaves LVM's speedups within 0.5% of solo runs; running the
graph workloads with eight threads leaves results within 1% because
retrains are rare and locking is fine-grained.
"""

from repro.analysis import render_table
from repro.sim import SimConfig, Simulator
from repro.sim.multicore import MultiTenantSimulator, MultiThreadedSimulator
from repro.workloads import build_workload

from conftest import bench_refs

TENANTS = ("gups", "bfs", "mem$", "dc")


def test_sec71_multitenancy(benchmark):
    def run():
        refs = max(5000, bench_refs() // 2)
        workloads = [build_workload(n) for n in TENANTS]
        out = {}
        for scheme in ("radix", "lvm"):
            solo = []
            for w in workloads:
                sim = Simulator(scheme, w, SimConfig(num_refs=refs))
                solo.append(sim.run())
            stacked = MultiTenantSimulator(
                scheme, workloads, SimConfig(num_refs=refs)
            ).run()
            out[scheme] = (solo, stacked)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    deltas = []
    for i, name in enumerate(TENANTS):
        solo_sp = out["radix"][0][i].cycles / out["lvm"][0][i].cycles
        stack_sp = out["radix"][1][i].cycles / out["lvm"][1][i].cycles
        rows.append((name, solo_sp, stack_sp))
        deltas.append(abs(stack_sp - solo_sp) / solo_sp)
    print()
    print(render_table(
        ["workload", "LVM speedup solo", "LVM speedup stacked"], rows,
        title="Section 7.1 — multi-tenancy (shared LLC, one tenant/core)",
    ))
    # Paper: within 0.5%; shared-LLC contention at our scale allows 5%.
    assert max(deltas) < 0.05


def test_sec71_multithreading(benchmark):
    def run():
        refs = max(5000, bench_refs() // 2)
        workload = build_workload("bfs")
        out = {}
        for scheme in ("radix", "lvm"):
            single = MultiThreadedSimulator(
                scheme, workload, num_threads=1, config=SimConfig(num_refs=refs)
            ).run()
            eight = MultiThreadedSimulator(
                scheme, workload, num_threads=8, config=SimConfig(num_refs=refs)
            ).run()
            out[scheme] = (single, eight)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    sp1 = out["radix"][0]["max_thread_cycles"] / out["lvm"][0]["max_thread_cycles"]
    sp8 = out["radix"][1]["max_thread_cycles"] / out["lvm"][1]["max_thread_cycles"]
    print(f"\nLVM speedup: 1 thread {sp1:.3f}, 8 threads {sp8:.3f}")
    # Paper: within 1% across thread counts; we allow 5% at bench scale.
    assert abs(sp8 - sp1) / sp1 < 0.05
