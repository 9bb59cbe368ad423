"""The full MMU: TLB hierarchy in front of a scheme-specific walker.

``translate`` is what the simulator calls per memory reference; it
returns the translation and the cycles the reference spent in the MMU
(the paper's "MMU overhead" metric, Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mmu.tlb import TLBConfig, TLBHierarchy
from repro.types import PTE


@dataclass
class MMUStats:
    translations: int = 0
    l1_tlb_hits: int = 0
    l2_tlb_hits: int = 0
    walks: int = 0
    faults: int = 0
    tlb_cycles: int = 0
    walk_cycles: int = 0
    walk_traffic: int = 0

    @property
    def mmu_cycles(self) -> int:
        """Total cycles memory requests spent in the MMU (Figure 10)."""
        return self.tlb_cycles + self.walk_cycles

    @property
    def l2_tlb_miss_rate(self) -> float:
        reached_l2 = self.translations - self.l1_tlb_hits
        if reached_l2 <= 0:
            return 0.0
        return 1.0 - self.l2_tlb_hits / reached_l2


class MMU:
    """TLBs + page-table walker for one hardware thread."""

    def __init__(self, walker, tlb_config: Optional[TLBConfig] = None):
        self.walker = walker
        self.tlb = TLBHierarchy(tlb_config)
        self.stats = MMUStats()

    def translate(self, va: int, asid: int = 0) -> Tuple[Optional[PTE], int]:
        """Translate a virtual address; returns (pte, mmu cycles).

        ``pte`` is None on a translation fault (unmapped page); the OS
        layer is expected to handle the fault and retry.
        """
        stats = self.stats
        vpn = va >> 12
        stats.translations += 1
        pte, tlb_latency = self.tlb.lookup(vpn, asid)
        if pte is not None:
            if tlb_latency == 0:
                stats.l1_tlb_hits += 1
            else:
                stats.l2_tlb_hits += 1
                stats.tlb_cycles += tlb_latency
            return pte, tlb_latency
        stats.tlb_cycles += tlb_latency
        outcome = self.walker.walk(vpn, asid)
        stats.walks += 1
        stats.walk_cycles += outcome.cycles
        stats.walk_traffic += outcome.memory_accesses
        if outcome.pte is None:
            stats.faults += 1
            return None, tlb_latency + outcome.cycles
        self.tlb.insert(outcome.pte, asid)
        return outcome.pte, tlb_latency + outcome.cycles

    def invalidate(self, vpn: int, asid: int = 0) -> None:
        """TLB shootdown for one page (section 5.2)."""
        self.tlb.invalidate(vpn, asid)

    def flush_asid(self, asid: int) -> None:
        self.tlb.flush_asid(asid)
