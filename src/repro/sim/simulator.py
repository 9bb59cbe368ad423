"""Trace-driven full-system-style simulation (section 6.1 analogue).

The paper uses SST + QEMU + DRAMSim3; here a trace of data references
flows through the TLB hierarchy, the scheme-specific page walker (with
its walk cache), and the L1/L2/L3/DRAM chain.  Translation cycles, walk
traffic, cache misses and execution cycles fall out of the same runs,
exactly as Figures 9-12 are produced from one set of simulations.

Everything scheme-specific — page-table construction, walker
construction, the trace loop, per-scheme stats — is delegated to the
scheme's :class:`~repro.schemes.base.SchemeDescriptor`, resolved
through :mod:`repro.schemes.registry`.  :class:`TranslationStack`
builds the scheme-independent machinery (hierarchy, allocator,
process, TLBs) for a :class:`Simulator` run, a served tenant and each
core of the section 7.1 runs; :class:`Simulator` adds the trace loops.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

from repro.core.config import LVMConfig
from repro.core.learned_index import LearnedIndex
from repro.faults import FaultInjector
from repro.kernel.process import Mint, Process, mint
from repro.kernel.vma import VMA
from repro.mem.allocator import BumpAllocator
from repro.mem.buddy import BuddyAllocator
from repro.mmu.cache import Cache
from repro.mmu.hierarchy import MemoryHierarchy
from repro.mmu.mmu import MMU
from repro.schemes import registry
from repro.sim.config import SimConfig
from repro.sim.results import SimResult
from repro.types import BASE_PAGE_SHIFT, BASE_PAGE_SIZE, TranslationError
from repro.workloads.compile import CompiledTrace, compiled_trace_for
from repro.workloads.registry import BuiltWorkload
from repro.workloads.trace_cache import cache_for_config


class TranslationStack:
    """One core's translation machine over one address space.

    Built in this order: the cache hierarchy (around ``l3`` when the
    cores of a multicore run share one), the fault injector from
    ``config.faults``, the allocator, the scheme's page table, the
    process, the given ``vmas`` (inside LVM's start-up batch, so it
    builds its index once), the walker and the MMU.  The scheme
    descriptor's ``make_page_table`` and ``make_walker`` hooks receive
    the stack, so run-specific state they need belongs on it.  Its
    physical memory starts at ``phys_base`` (the default allocator's
    page tables 1 GiB above it, data frames 4 GiB); stacked tenants
    each take their own.

    ``scheme`` may be a registered scheme name (or alias) or a
    :class:`~repro.schemes.base.SchemeDescriptor` instance; unknown
    names raise :class:`~repro.errors.UnknownSchemeError` before any
    state is built.
    """

    def __init__(
        self,
        scheme,
        config: Optional[SimConfig] = None,
        vmas: Sequence[VMA] = (),
        lvm_config: Optional[LVMConfig] = None,
        allocator=None,
        l3: Optional[Cache] = None,
        phys_base: int = 0,
    ):
        self.descriptor = registry.get(scheme)
        self.scheme = self.descriptor.name
        self.config = config or SimConfig()
        self.config.validate()
        self.lvm_config = lvm_config
        self.phys_base = phys_base
        self.hierarchy = MemoryHierarchy(self.config.hierarchy, l3)
        # An all-zero (or absent) plan builds no injector at all, so
        # fault-free runs stay bit-identical to the pre-injector code.
        plan = self.config.faults
        self.injector: Optional[FaultInjector] = (
            FaultInjector(plan) if plan is not None and plan.enabled else None
        )
        # ``allocator`` lets the fragmentation studies (sections 7.3,
        # 7.5.3) back the page tables with a pre-fragmented buddy.
        self.allocator = allocator if allocator is not None else self._make_allocator()
        if self.injector is not None and self.descriptor.wraps_allocator_under_faults:
            self.allocator = self.injector.wrap_allocator(self.allocator)
        self.page_table = self.descriptor.make_page_table(self)
        self.process = Process(
            self.page_table,
            allocator=self.allocator,
            thp=self.config.thp,
            thp_coverage=self.config.thp_coverage,
            injector=self.injector,
            phys_base=phys_base,
        )
        lvm = isinstance(self.page_table, LearnedIndex)
        if lvm:
            self.page_table.begin_batch()
        self.process.install(self._mint(vmas))
        if lvm:
            self.page_table.end_batch()
        self.walker = self.descriptor.make_walker(self)
        self.mmu = MMU(self.walker, self.config.tlb)

    def _mint(self, vmas: Sequence[VMA]) -> Mint:
        """The PTEs this stack installs for ``vmas``."""
        process = self.process
        return mint(vmas, process.thp, process.thp_coverage, process.next_ppn)

    def _make_allocator(self):
        if self.config.phys_mem_bytes is None:
            return BumpAllocator(base=self.phys_base + (1 << 30))
        return BuddyAllocator(self.config.phys_mem_bytes, base_paddr=self.phys_base)

    def sibling(self) -> "TranslationStack":
        """Another core over this stack's address space: the same page
        table, process and injector, with its own L1, L2,
        TLBs and walker in front of this stack's L3."""
        core = copy.copy(self)
        core.hierarchy = MemoryHierarchy(self.config.hierarchy, self.hierarchy.l3)
        core.walker = self.descriptor.make_walker(core)
        core.mmu = MMU(core.walker, self.config.tlb)
        return core


class Simulator(TranslationStack):
    """One (workload, scheme, page-size) simulation: a translation
    stack over the workload's VMAs, driven by its reference trace.

    Its PTEs come from the workload's memoized mint, so the simulators
    of one workload and page mode (a sweep's cells, one per scheme)
    mint once and install the same entries."""

    def __init__(
        self,
        scheme,
        workload: BuiltWorkload,
        config: Optional[SimConfig] = None,
        allocator=None,
        l3: Optional[Cache] = None,
        phys_base: int = 0,
    ):
        self.workload = workload
        self.incorrect_translations = 0
        super().__init__(
            scheme, config, workload.vmas,
            allocator=allocator, l3=l3, phys_base=phys_base,
        )

    def _mint(self, vmas: Sequence[VMA]) -> Mint:
        """The workload's memoized mint for this run's page mode and
        physical base (``vmas`` are the workload's own)."""
        process = self.process
        return self.workload.mint(
            process.thp, process.thp_coverage, process.next_ppn
        )

    # -- the run -----------------------------------------------------------
    def run(self, num_refs: Optional[int] = None) -> SimResult:
        refs = num_refs or self.config.num_refs
        trace = self._trace(refs)
        refs = len(trace)
        data_stall, mmu_cycles = self.descriptor.run_trace(self, trace)
        return self._result(refs, data_stall, mmu_cycles)

    def _trace(self, refs: int) -> CompiledTrace:
        """The compiled reference trace for this run."""
        return compiled_trace_for(
            self.workload, refs, self.config.trace_seed,
            cache=cache_for_config(self.config),
        )

    def run_standard(self, vas: List[int]) -> "tuple[int, int]":
        """The default trace loop: every reference in ``vas`` is
        translated through the TLB hierarchy, then accesses the data
        hierarchy.  Returns (data_stall, mmu_cycles) for these
        references; a multicore run calls it once per round."""
        translate = self.mmu.translate
        access = self.hierarchy.access
        fault = self.process.handle_fault
        injector = self.injector
        verify = self.config.verify_translations
        data_stall = 0
        mmu_cycles = 0
        for va in vas:
            if injector is not None:
                injector.on_reference(self)
            pte, tcycles = translate(va)
            if pte is None:
                # Demand fault: the OS maps the page, the access retries.
                fault(va)
                pte, more = translate(va)
                tcycles += more
                if pte is None:
                    raise TranslationError(f"unmappable VA {va:#x}")
            if verify:
                self._verify_translation(va, pte)
            mmu_cycles += tcycles
            # ``pte.translate(va)``, inlined.
            base_va = pte.vpn << BASE_PAGE_SHIFT
            data_stall += access(
                pte.ppn * BASE_PAGE_SIZE + (va - (base_va - base_va % pte.page_size))
            )
        return data_stall, mmu_cycles

    def _verify_translation(self, va: int, pte) -> None:
        """Chaos-harness cross-check: the translation the MMU returned
        must agree with the OS's authoritative mapping records."""
        vpn = va // BASE_PAGE_SIZE
        auth = self.process.page_table.find(vpn)
        if (
            auth is None
            or not pte.covers(vpn)
            or auth.ppn != pte.ppn
            or auth.page_size != pte.page_size
        ):
            self.incorrect_translations += 1

    def run_virtual_hierarchy(self, vas: List[int]) -> "tuple[int, int]":
        """Midgard's trace loop (section 7.5.2): the cache hierarchy is
        indexed by intermediate (virtual) addresses, so hits need no
        translation; only LLC misses walk the page table."""
        hierarchy = self.hierarchy
        access = hierarchy.access
        injector = self.injector
        data_stall = 0
        mmu_cycles = 0
        for va in vas:
            if injector is not None:
                injector.on_reference(self)
            dram_before = hierarchy.dram_accesses
            data_stall += access(va)
            if hierarchy.dram_accesses != dram_before:
                outcome = self.walker.walk(va >> 12)
                mmu_cycles += outcome.cycles
                self.mmu.stats.walks += 1
                self.mmu.stats.walk_cycles += outcome.cycles
                self.mmu.stats.walk_traffic += outcome.memory_accesses
        return data_stall, mmu_cycles

    # -- accounting ----------------------------------------------------
    def _result(self, refs: int, data_stall: int, mmu_cycles: int) -> SimResult:
        instructions = int(refs * self.workload.info.instructions_per_ref)
        mgmt_cycles, mgmt_detail = self.descriptor.mgmt_cycles(self)
        cycles = self.config.core.cycles(
            instructions, data_stall, mmu_cycles, mgmt_cycles
        )
        stats = self.mmu.stats
        result = SimResult(
            workload=self.workload.info.name,
            scheme=self.scheme,
            thp=self.config.thp,
            refs=refs,
            instructions=instructions,
            cycles=cycles,
            mmu_cycles=stats.mmu_cycles,
            walk_cycles=stats.walk_cycles,
            walks=stats.walks,
            walk_traffic=stats.walk_traffic,
            l1_tlb_hits=stats.l1_tlb_hits,
            l2_tlb_hits=stats.l2_tlb_hits,
            l2_tlb_miss_rate=stats.l2_tlb_miss_rate,
            l1_mpki=self.hierarchy.l1.mpki(instructions),
            l2_mpki=self.hierarchy.l2.mpki(instructions),
            l3_mpki=self.hierarchy.l3.mpki(instructions),
            dram_accesses=self.hierarchy.dram_accesses,
            table_bytes=self.page_table.table_bytes,
            mgmt_cycles=mgmt_cycles,
            mgmt_detail=mgmt_detail,
        )
        self.descriptor.fill_walk_cache_stats(self, result)
        self.descriptor.fill_scheme_stats(self, result)
        self._fill_fault_stats(result)
        return result

    def _fill_fault_stats(self, result: SimResult) -> None:
        if self.injector is not None:
            result.faults_injected = self.injector.total_injected
            result.fault_counts = dict(self.injector.counts)
        result.incorrect_translations = self.incorrect_translations
        detail = {}
        pstats = self.process.stats
        for name in (
            "dropped_mmap_events",
            "dropped_munmap_events",
            "duplicate_events",
            "duplicate_rejects",
            "stale_reconciled",
        ):
            value = getattr(pstats, name)
            if value:
                detail[name] = value
        detections = getattr(self.walker, "poison_detections", 0)
        if detections:
            detail["poison_detections"] = detections
        result.poison_detections = detections
        if isinstance(self.page_table, LearnedIndex):
            istats = self.page_table.stats
            for name in (
                "recovered_scans",
                "recovered_retrains",
                "recovered_rebuilds",
                "corrupt_entries_detected",
                "alloc_retries",
                "rescale_fallback_rebuilds",
            ):
                value = getattr(istats, name)
                if value:
                    detail[name] = value
            result.recovery_cycles = getattr(self.walker, "recovery_cycles", 0)
        result.recovery_detail = detail
        result.recoveries = sum(detail.values())


def simulate(
    scheme, workload: BuiltWorkload, config: Optional[SimConfig] = None
) -> SimResult:
    """Convenience one-shot: build the simulator and run it."""
    return Simulator(scheme, workload, config).run()
