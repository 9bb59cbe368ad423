"""Multi-tenant and multi-threaded simulation (paper section 7.1).

*Multi-tenancy*: stacked workloads on an 8-core setup, one workload per
core, private L1/L2 and TLBs, shared L3.  The paper finds LVM's
speedups unchanged (within 0.5%) — per-process learned indexes are
independent and the LWC is ASID-tagged, so tenants do not interfere in
the MMU.

*Multi-threading*: one process, its trace interleaved across N threads,
each with its own core/MMU but one shared page table and ASID.  The
paper finds results within 1% of single-threaded because PTE updates
use per-table locking and retrains are exceedingly rare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.config import SimConfig
from repro.sim.results import SimResult
from repro.sim.simulator import Simulator
from repro.types import TranslationError
from repro.workloads.registry import BuiltWorkload

#: References each tenant runs per round before the next core's turn.
ROUND_REFS = 256

#: Physical memory per stacked tenant, from ``i * TENANT_PHYS_SPAN``: a
#: multiple of every cache's set span, so a tenant's lines land in the
#: same sets as in its solo run, and no two tenants share a line.
TENANT_PHYS_SPAN = 1 << 40


@dataclass
class LockStats:
    """Locking behaviour of LVM's multi-threaded updates (section 5.2)."""

    pte_lock_acquisitions: int = 0
    pte_lock_conflicts: int = 0
    retrain_lock_acquisitions: int = 0

    @property
    def conflict_rate(self) -> float:
        if not self.pte_lock_acquisitions:
            return 0.0
        return self.pte_lock_conflicts / self.pte_lock_acquisitions


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
        self.locks = LockStats()

    def run(self, num_refs: Optional[int] = None) -> Dict[str, float]:
        refs = num_refs or self.config.num_refs
        shards = np.array_split(self.primary._trace(refs).packed, self.num_threads)
        ipr = self.primary.workload.info.instructions_per_ref
        fault = self.primary.process.handle_fault
        per_thread_cycles = []
        last_table = {}
        for tid, (core, shard) in enumerate(zip(self.cores, shards)):
            translate = core.mmu.translate
            access = core.hierarchy.access
            stalls = 0
            mmu_cycles = 0
            for va in shard.tolist():
                pte, tcycles = translate(va)
                if pte is None:
                    # Concurrent fault: the table lock serializes the
                    # mapping (section 5.2, "Multi-threading").
                    self.locks.pte_lock_acquisitions += 1
                    owner = last_table.get(va >> 21)
                    if owner is not None and owner != tid:
                        self.locks.pte_lock_conflicts += 1
                    last_table[va >> 21] = tid
                    fault(va)
                    pte, more = translate(va)
                    tcycles += more
                    if pte is None:
                        raise TranslationError(f"unmappable VA {va:#x}")
                mmu_cycles += tcycles
                stalls += access(pte.translate(va))
            instructions = int(len(shard) * ipr)
            per_thread_cycles.append(
                self.config.core.cycles(instructions, stalls, mmu_cycles)
            )
        return {
            "max_thread_cycles": max(per_thread_cycles),
            "total_refs": refs,
            "lock_conflict_rate": self.locks.conflict_rate,
        }
