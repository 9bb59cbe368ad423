"""Multi-tenant and multi-threaded simulation (paper section 7.1).

*Multi-tenancy*: stacked workloads on an 8-core setup, one workload per
core, private L1/L2 and TLBs, shared L3.  The paper finds LVM's
speedups unchanged (within 0.5%) — per-process learned indexes are
independent and the LWC is ASID-tagged, so tenants do not interfere in
the MMU.

*Multi-threading*: one process, its trace split into N contiguous
shards, one per thread, each thread with its own core/MMU but one
shared page table and ASID.  The paper finds results within 1% of
single-threaded because PTE updates use per-table locking and retrains
are exceedingly rare.  Every workload here is populated before the
run, so no thread takes a demand fault or updates the table, and no
lock is modelled.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.config import SimConfig
from repro.sim.results import SimResult
from repro.sim.simulator import Simulator
from repro.workloads.registry import BuiltWorkload

#: References each tenant runs per round before the next core's turn.
ROUND_REFS = 256

#: Physical memory per stacked tenant, from ``i * TENANT_PHYS_SPAN``: a
#: multiple of every cache's set span, so a tenant's lines land in the
#: same sets as in its solo run, and no two tenants share a line.
TENANT_PHYS_SPAN = 1 << 40


class MultiTenantSimulator:
    """One workload per core, private MMUs, shared last-level cache.

    Tenant ``i`` is a :class:`Simulator` over its own workload, physical
    memory (:data:`TENANT_PHYS_SPAN`) and trace seed (``trace_seed + i``)
    around the first tenant's L3, so every core's L2 misses contend in
    one LLC: a tenant's ``l3_mpki`` counts all tenants' misses in it.
    """

    def __init__(
        self,
        scheme: str,
        workloads: Sequence[BuiltWorkload],
        config: Optional[SimConfig] = None,
    ):
        self.config = config or SimConfig()
        self.scheme = scheme
        self.sims: List[Simulator] = []
        shared_l3 = None
        for i, workload in enumerate(workloads):
            seeded = replace(self.config, trace_seed=self.config.trace_seed + i)
            sim = Simulator(scheme, workload, seeded, l3=shared_l3, phys_base=i * TENANT_PHYS_SPAN)
            shared_l3 = sim.hierarchy.l3
            self.sims.append(sim)

    def run(self, num_refs: Optional[int] = None) -> List[SimResult]:
        """Interleave the tenants' traces, :data:`ROUND_REFS`
        references per tenant per round; one result per tenant."""
        refs = num_refs or self.config.num_refs
        traces = [sim._trace(refs).vas for sim in self.sims]
        totals = [[0, 0] for _ in self.sims]
        for start in range(0, max(map(len, traces), default=0), ROUND_REFS):
            for sim, vas, total in zip(self.sims, traces, totals):
                data_stall, mmu_cycles = sim.run_standard(vas[start:start + ROUND_REFS])
                total[0] += data_stall
                total[1] += mmu_cycles
        return [
            sim._result(len(vas), *total)
            for sim, vas, total in zip(self.sims, traces, totals)
        ]


class MultiThreadedSimulator:
    """One process, N threads: shared page table, private cores."""

    def __init__(
        self,
        scheme: str,
        workload: BuiltWorkload,
        num_threads: int = 8,
        config: Optional[SimConfig] = None,
    ):
        self.config = config or SimConfig()
        self.num_threads = num_threads
        # One simulator owns the page table and process; each thread
        # runs on a sibling core (its own L1, L2, TLBs and walker) over
        # that table and the simulator's L3.
        self.primary = Simulator(scheme, workload, self.config)
        self.cores = [self.primary.sibling() for _ in range(num_threads)]

    def run(self, num_refs: Optional[int] = None) -> Dict[str, float]:
        """Split the trace into one contiguous shard per thread and run
        each shard on its core through :meth:`Simulator.run_standard`,
        so fault plans and ``verify_translations`` apply per thread."""
        refs = num_refs or self.config.num_refs
        shards = np.array_split(self.primary._trace(refs).packed, self.num_threads)
        ipr = self.primary.workload.info.instructions_per_ref
        per_thread_cycles = []
        for core, shard in zip(self.cores, shards):
            stalls, mmu_cycles = core.run_standard(shard.tolist())
            instructions = int(len(shard) * ipr)
            per_thread_cycles.append(
                self.config.core.cycles(instructions, stalls, mmu_cycles)
            )
        return {
            "max_thread_cycles": max(per_thread_cycles),
            "total_refs": refs,
            "incorrect_translations": sum(
                core.incorrect_translations for core in self.cores
            ),
        }
