"""Tests for the simulator, runner, results, and multicore layers."""

import dataclasses

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.sim import (
    SCHEMES,
    ResultSet,
    SimConfig,
    SimResult,
    Simulator,
    geomean,
    mean,
    run_suite,
    table1_rows,
)
from repro.sim.multicore import MultiTenantSimulator, MultiThreadedSimulator
from repro.workloads import build_workload

REFS = 4000


@pytest.fixture(scope="module")
def gups():
    return build_workload("gups")


class TestSimulator:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_schemes_run(self, gups, scheme):
        result = Simulator(scheme, gups, SimConfig(num_refs=REFS)).run()
        assert result.refs == REFS
        assert result.cycles > 0
        assert result.walks > 0
        assert result.walk_traffic >= result.walks * 0 + 1

    def test_extended_schemes_run(self, gups):
        for scheme in ("fpt", "asap", "midgard"):
            result = Simulator(scheme, gups, SimConfig(num_refs=REFS)).run()
            assert result.cycles > 0

    def test_thp_reduces_walks(self, gups):
        four_k = Simulator("radix", gups, SimConfig(num_refs=REFS)).run()
        thp = Simulator(
            "radix", gups, SimConfig(num_refs=REFS, thp=True)
        ).run()
        assert thp.walks < four_k.walks

    def test_lvm_traffic_below_radix(self, gups):
        radix = Simulator("radix", gups, SimConfig(num_refs=REFS)).run()
        lvm = Simulator("lvm", gups, SimConfig(num_refs=REFS)).run()
        assert lvm.walk_traffic < radix.walk_traffic
        assert lvm.index_size_bytes > 0
        assert lvm.walk_cache_hit_rate > 0.9

    def test_ecpt_traffic_above_radix(self, gups):
        radix = Simulator("radix", gups, SimConfig(num_refs=REFS)).run()
        ecpt = Simulator("ecpt", gups, SimConfig(num_refs=REFS)).run()
        assert ecpt.walk_traffic > radix.walk_traffic

    def test_deterministic(self, gups):
        a = Simulator("lvm", gups, SimConfig(num_refs=REFS)).run()
        b = Simulator("lvm", gups, SimConfig(num_refs=REFS)).run()
        assert a.cycles == b.cycles
        assert a.walk_traffic == b.walk_traffic

    def test_unknown_scheme_rejected(self, gups):
        with pytest.raises(ValueError):
            Simulator("nope", gups, SimConfig(num_refs=REFS))

    def test_config_clone(self):
        cfg = SimConfig(num_refs=REFS)
        thp = cfg.clone(thp=True)
        assert thp.thp and not cfg.thp
        with pytest.raises(AttributeError):
            cfg.clone(bogus=1)

    def test_table1_renders(self):
        rows = table1_rows()
        assert any("LVM" in name for name, _ in rows)


class TestResultSet:
    def make(self):
        rs = ResultSet()
        for scheme, cycles, mmu, traffic in (
            ("radix", 100.0, 50, 10), ("lvm", 80.0, 30, 5),
        ):
            rs.add(SimResult(
                workload="w", scheme=scheme, thp=False, refs=1,
                instructions=1, cycles=cycles, mmu_cycles=mmu,
                walk_traffic=traffic, l2_mpki=2.0, l3_mpki=1.0,
            ))
        return rs

    def test_speedup(self):
        rs = self.make()
        assert rs.speedup("w", "lvm", False) == pytest.approx(1.25)

    def test_relative_metrics(self):
        rs = self.make()
        assert rs.mmu_overhead_relative("w", "lvm", False) == pytest.approx(0.6)
        assert rs.walk_traffic_relative("w", "lvm", False) == pytest.approx(0.5)
        assert rs.mpki_relative("w", "lvm", False, "l2") == pytest.approx(1.0)

    def test_missing_run_raises(self):
        rs = self.make()
        with pytest.raises(KeyError):
            rs.get("w", "ideal", False)

    def test_aggregates(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert mean([1.0, 3.0]) == 2.0
        assert geomean([]) == 0.0


class TestRunner:
    def test_small_suite(self):
        rs = run_suite(
            workload_names=["gups"],
            schemes=("radix", "lvm"),
            page_modes=(False,),
            config=SimConfig(num_refs=2000),
        )
        assert len(rs.results) == 2
        assert rs.speedup("gups", "lvm", False) > 0


class TestMulticore:
    def test_multitenant_runs(self, gups):
        bfs = build_workload("dc")
        sims = MultiTenantSimulator(
            "lvm", [gups, bfs], SimConfig(num_refs=2000)
        )
        results = sims.run()
        assert len(results) == 2
        assert all(r.cycles > 0 for r in results)

    def test_multithreaded_runs(self, gups):
        sim = MultiThreadedSimulator(
            "lvm", gups, num_threads=4, config=SimConfig(num_refs=2000)
        )
        out = sim.run()
        assert out["max_thread_cycles"] > 0

    def test_stacked_tenants_share_one_l3(self, gups):
        """Every tenant's L2 misses go to the one shared L3."""
        dc = build_workload("dc", scale=256)
        sim = MultiTenantSimulator("lvm", [gups, dc], SimConfig(num_refs=2000))
        sim.run()
        shared = sim.sims[0].hierarchy.l3
        l2_misses = [s.hierarchy.l2.misses for s in sim.sims]
        assert all(l2_misses)
        assert shared.accesses == sum(l2_misses)

    def test_stacked_tenants_never_share_a_line(self):
        """Tenants own disjoint physical memory.  Under LRU, with no
        prefetch, another tenant's lines can only evict a tenant's own,
        so the shared L3 hits at most as often as the solo runs did
        together.  Two tenants of one workload at the same physical
        addresses would hit on each other's lines and break this."""
        dc = build_workload("dc", scale=256)
        config = SimConfig(num_refs=2000)
        config.hierarchy = dataclasses.replace(config.hierarchy, prefetch_degree=0)
        stacked = MultiTenantSimulator("lvm", [dc, dc], config)
        stacked.run()
        solo_hits = 0
        for i in range(2):
            solo = Simulator(
                "lvm", dc,
                dataclasses.replace(config, trace_seed=config.trace_seed + i),
            )
            solo.run()
            solo_hits += solo.hierarchy.l3.hits
        assert solo_hits > 0
        assert stacked.sims[0].hierarchy.l3.hits <= solo_hits

    def test_threads_share_one_l3(self):
        """Every thread's L2 misses go to the primary's L3."""
        dc = build_workload("dc", scale=256)
        sim = MultiThreadedSimulator(
            "lvm", dc, num_threads=4, config=SimConfig(num_refs=2000)
        )
        sim.run()
        hierarchies = [sim.primary.hierarchy] + [c.hierarchy for c in sim.cores]
        assert sim.primary.hierarchy.l3.accesses == sum(
            h.l2.misses for h in hierarchies
        )
        assert all(c.page_table is sim.primary.page_table for c in sim.cores)
        assert all(c.mmu is not sim.primary.mmu for c in sim.cores)

    @pytest.mark.parametrize("threads", [1, 8])
    def test_threads_run_the_standard_loop(self, threads):
        """Each thread's shard goes through ``Simulator.run_standard``;
        fault-free, that gives the cycles of the per-thread loop the
        study used to carry (translate, demand-fault, access)."""
        bfs = build_workload("bfs", scale=256)
        config = SimConfig(num_refs=3000, footprint_scale=256)
        sim = MultiThreadedSimulator("lvm", bfs, num_threads=threads, config=config)
        reference = MultiThreadedSimulator("lvm", bfs, num_threads=threads, config=config)
        assert sim.run()["max_thread_cycles"] == _per_thread_loop(reference)

    def test_fault_plan_applies_to_threads(self):
        """A fault plan fires in the threading study as in solo runs,
        and every translation still checks out against the OS."""
        bfs = build_workload("bfs", scale=256)
        config = SimConfig(
            num_refs=3000, footprint_scale=256, verify_translations=True,
            faults=FaultPlan(seed=3, pte_bitflip_rate=0.01),
        )
        sim = MultiThreadedSimulator("lvm", bfs, num_threads=4, config=config)
        out = sim.run()
        assert sim.primary.injector.total_injected > 0
        assert out["incorrect_translations"] == 0


def _per_thread_loop(sim):
    """The threading study's own translate loop, as it was before the
    cores ran ``run_standard`` (less its lock counters, which never
    fired): the reference for fault-free cycles."""
    refs = sim.config.num_refs
    shards = np.array_split(sim.primary._trace(refs).packed, sim.num_threads)
    ipr = sim.primary.workload.info.instructions_per_ref
    fault = sim.primary.process.handle_fault
    per_thread_cycles = []
    for core, shard in zip(sim.cores, shards):
        stalls = mmu_cycles = 0
        for va in shard.tolist():
            pte, tcycles = core.mmu.translate(va)
            if pte is None:
                fault(va)
                pte, more = core.mmu.translate(va)
                tcycles += more
            mmu_cycles += tcycles
            stalls += core.hierarchy.access(pte.translate(va))
        per_thread_cycles.append(
            sim.config.core.cycles(int(len(shard) * ipr), stalls, mmu_cycles)
        )
    return max(per_thread_cycles)
