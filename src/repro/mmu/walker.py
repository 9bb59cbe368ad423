"""Hardware page-table walkers, one per translation scheme.

A walker takes the *software* walk (the sequence of physical accesses
the page-table data structure implies) and turns it into hardware
behaviour: walk-cache hits skip accesses, parallel probes overlap,
surviving accesses go through the cache hierarchy, and the result is a
cycle count plus the memory traffic actually issued — the quantities
Figures 10 and 11 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.fixed_point import MODEL_BYTES
from repro.core.learned_index import LearnedIndex
from repro.mmu.hierarchy import MemoryHierarchy
from repro.mmu.walk_cache import CWC, LWC, RadixPWC
from repro.pagetables.ecpt import ECPT
from repro.pagetables.fpt import FlattenedPageTable
from repro.pagetables.ideal import IdealPageTable
from repro.pagetables.radix import RadixPageTable
from repro.types import PTE, AccessKind

_CWT = AccessKind.CWT
_PT_LEAF = AccessKind.PT_LEAF
# LVM models one 64 B line fetch brings into the LWC (section 4.6.2).
_MODELS_PER_LINE = 64 // MODEL_BYTES


@dataclass
class WalkOutcome:
    """One hardware page walk: result, latency, and traffic."""

    pte: Optional[PTE]
    cycles: int
    memory_accesses: int


class RadixWalker:
    """Radix walker with a three-level page walk cache."""

    def __init__(
        self,
        table: RadixPageTable,
        hierarchy: MemoryHierarchy,
        pwc: Optional[RadixPWC] = None,
    ):
        self.table = table
        self.hierarchy = hierarchy
        self.pwc = pwc or RadixPWC()
        self.walks = 0
        self.total_cycles = 0
        self.total_accesses = 0
        self.poison_detections = 0
        # Hot-path constants: the PWC's (level, shift, LRU set) deepest
        # first, and its three LRU sets for the poison count.
        self._pwc_levels = self.pwc._probe_order
        self._pwc_sets = tuple(lru for _, _, lru in self._pwc_levels)
        self._walk_access = hierarchy.walk_access
        # Cumulative PWC-detection snapshot: detections only ever happen
        # inside ``walk`` (during the PWC probe), so one delta per walk
        # replaces a before/after pair of counts.
        self._poison_seen = self.pwc.poison_detections

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        result = self.table.walk(vpn)
        accesses = result.accesses
        levels = self._pwc_levels
        # ``RadixPWC.lowest_cached_level``: the deepest level whose
        # entry the PWC holds; the walk starts below it.
        lowest = 5  # above the PML4: nothing cached, every access issues
        for level, shift, lru in levels:
            if lru.lookup((asid, vpn >> shift)):
                lowest = level
                break
        latency = self.pwc.latency
        cycles = latency
        # A parity trip costs the dead probe before the walk restarts
        # below the invalidated entry.
        pd, pdpt, pml4 = self._pwc_sets
        poison_now = pd.poison_detections + pdpt.poison_detections + pml4.poison_detections
        detected = poison_now - self._poison_seen
        if detected:
            self._poison_seen = poison_now
            self.poison_detections += detected
            cycles += detected * latency
        issued = 0
        walk_access = self._walk_access
        for access in accesses:
            if access.level < lowest:
                cycles += walk_access(access.paddr)
                issued += 1
        # ``RadixPWC.fill``: install the non-leaf entries this walk
        # traversed, down to the deepest one.
        if len(accesses) > 1:
            deepest_nonleaf = accesses[-2].level
            for level, shift, lru in levels:
                if level >= deepest_nonleaf:
                    lru.insert((asid, vpn >> shift))
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return WalkOutcome(result.pte, cycles, issued)


class FPTWalker(RadixWalker):
    """FPT uses the radix walker machinery over its folded tables."""

    def __init__(
        self,
        table: FlattenedPageTable,
        hierarchy: MemoryHierarchy,
        pwc: Optional[RadixPWC] = None,
    ):
        # The PWC keys by radix-style level tags, which FPT emits.
        super().__init__(table, hierarchy, pwc)  # type: ignore[arg-type]


class ECPTWalker:
    """Parallel cuckoo walker with a cuckoo walk cache."""

    def __init__(
        self,
        table: ECPT,
        hierarchy: MemoryHierarchy,
        cwc: Optional[CWC] = None,
    ):
        self.table = table
        self.hierarchy = hierarchy
        self.cwc = cwc or CWC()
        self.walks = 0
        self.total_cycles = 0
        self.total_accesses = 0
        self.poison_detections = 0
        # Hot-path constants: the CWC's two LRU sets.
        self._cwc_pud = self.cwc.pud
        self._cwc_pmd = self.cwc.pmd
        self._walk_access = hierarchy.walk_access
        # See RadixWalker: one cumulative snapshot per walk instead of a
        # before/after pair of counts.
        self._poison_seen = self.cwc.poison_detections

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        result = self.table.walk(vpn)
        pud, pmd = self._cwc_pud, self._cwc_pmd
        walk_access = self._walk_access
        latency = self.cwc.latency
        issued = 0
        # The walk lists its CWT accesses before its probes.  CWT
        # consults on CWC miss: the PUD entry always, the PMD entry
        # only for mixed-size regions (level tags 6 and 5).  The two
        # fetches are independent and overlap, so latency is their max.
        # All cuckoo probes are issued in parallel too: latency is the
        # slowest probe, traffic is every probe (the "two unnecessary
        # fetches per translation").
        cwt_latency = 0
        probe_latency = 0
        for access in result.accesses:
            kind = access.kind
            if kind is _PT_LEAF:
                cycles = walk_access(access.paddr)
                if cycles > probe_latency:
                    probe_latency = cycles
                issued += 1
            elif kind is _CWT:
                if access.level == 6:
                    lru, key = pud, (asid, vpn >> 18)
                else:
                    lru, key = pmd, (asid, vpn >> 9)
                if not lru.lookup(key):
                    cycles = walk_access(access.paddr)
                    if cycles > cwt_latency:
                        cwt_latency = cycles
                    issued += 1
                    lru.insert(key)
        cycles = latency + cwt_latency + probe_latency
        poison_now = pud.poison_detections + pmd.poison_detections
        detected = poison_now - self._poison_seen
        if detected:
            self._poison_seen = poison_now
            self.poison_detections += detected
            cycles += detected * latency
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return WalkOutcome(result.pte, cycles, issued)


class LVMWalker:
    """LVM page-table walker with the LVM Walk Cache (section 4.6.2)."""

    def __init__(
        self,
        index: LearnedIndex,
        hierarchy: MemoryHierarchy,
        lwc: Optional[LWC] = None,
    ):
        self.index = index
        self.hierarchy = hierarchy
        self.lwc = lwc or LWC()
        self.walks = 0
        self.total_cycles = 0
        self.total_accesses = 0
        self.poison_detections = 0
        self.recovered_walks = 0
        self.recovery_cycles = 0
        self._seen_flushes = index.stats.lwc_flushes
        # Hot-path constant: the LWC's LRU set.
        self._lwc_lru = self.lwc._lru
        self._walk_access = hierarchy.walk_access
        # See RadixWalker: one cumulative snapshot per walk instead of a
        # before/after pair of counts.
        self._poison_seen = self.lwc.poison_detections

    def _sync_flushes(self, asid: int) -> None:
        """Apply OS-requested LWC flushes (after node retrains)."""
        if self.index.stats.lwc_flushes != self._seen_flushes:
            self.lwc.flush_asid(asid)
            self._seen_flushes = self.index.stats.lwc_flushes

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        self._sync_flushes(asid)
        trace = self.index.walk(vpn)
        # A recovery may retrain or rebuild mid-lookup; flush the LWC
        # before charging the walk so its node fetches see the
        # post-repair state.
        self._sync_flushes(asid)
        lru = self._lwc_lru
        latency = self.lwc.latency
        cycles = 0
        issued = 0
        walk_access = self._walk_access
        for level, offset, paddr in trace.node_accesses:
            # Model evaluation + LWC lookup: 2 cycles (section 7.4).
            cycles += latency
            if not lru.lookup((asid, level, offset)):
                cycles += walk_access(paddr)
                issued += 1
                # ``LWC.fill_line``: the fetched line's four models.
                first = offset - offset % _MODELS_PER_LINE
                for neighbour in range(first, first + _MODELS_PER_LINE):
                    lru.insert((asid, level, neighbour))
        for paddr in trace.pte_line_paddrs:
            cycles += walk_access(paddr)
            issued += 1
        poison_now = lru.poison_detections
        detected = poison_now - self._poison_seen
        if detected:
            self._poison_seen = poison_now
            self.poison_detections += detected
            cycles += detected * latency
        if trace.recovered:
            self.recovered_walks += 1
            # The degradation ladder's extra line fetches are already in
            # pte_line_paddrs; attribute everything past the first
            # (collision-free) translation access to recovery.
            self.recovery_cycles += max(0, cycles - latency)
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return WalkOutcome(trace.pte, cycles, issued)


class IdealWalker:
    """Oracle walker: exactly one memory access per walk."""

    def __init__(self, table: IdealPageTable, hierarchy: MemoryHierarchy):
        self.table = table
        self.hierarchy = hierarchy
        self.walks = 0
        self.total_cycles = 0
        self.total_accesses = 0

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        result = self.table.walk(vpn)
        cycles = self.hierarchy.walk_access(result.accesses[0].paddr)
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += 1
        return WalkOutcome(result.pte, cycles, 1)


class ASAPWalker(RadixWalker):
    """ASAP (section 7.5.1): radix plus translation prefetching.

    When the OS managed to allocate the VMA's leaf page tables
    contiguously, the walker can compute the PTE's (and PDE's) address
    directly and prefetch them while the ordinary walk proceeds.  The
    prefetches warm the caches — the walk's leaf accesses then hit —
    but they are extra traffic on top of the standard walk, which is
    precisely why the paper finds ASAP slower than ECPT and LVM.
    """

    def __init__(
        self,
        table: RadixPageTable,
        hierarchy: MemoryHierarchy,
        pwc: Optional[RadixPWC] = None,
        prefetch_success_rate: float = 1.0,
    ):
        super().__init__(table, hierarchy, pwc)
        self.prefetch_success_rate = prefetch_success_rate
        self.prefetches = 0

    def _region_prefetchable(self, vpn: int) -> bool:
        """Deterministic per-1GB-region contiguity outcome."""
        if self.prefetch_success_rate >= 1.0:
            return True
        if self.prefetch_success_rate <= 0.0:
            return False
        region = vpn >> 18
        # Cheap deterministic hash spread over [0, 1).
        spread = ((region * 2654435761) & 0xFFFF) / 65536.0
        return spread < self.prefetch_success_rate

    def walk(self, vpn: int, asid: int = 0) -> WalkOutcome:
        prefetched = 0
        if self._region_prefetchable(vpn):
            result = self.table.walk(vpn)
            # Prefetch the two deepest entries' lines ahead of the walk.
            for access in result.accesses[-2:]:
                self.hierarchy.walk_access(access.paddr)
                prefetched += 1
            self.prefetches += prefetched
        outcome = super().walk(vpn, asid)
        outcome.memory_accesses += prefetched
        self.total_accesses += prefetched
        return outcome
