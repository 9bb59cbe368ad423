"""Virtualization support: nested page tables (paper section 4.6.2).

Under virtualization every *guest* page-table access is itself a guest-
physical address that must be translated through the *host* page table.
For radix this is the infamous 2D walk: 4 guest levels, each needing a
4-step host walk for its GPA, plus the final data GPA translation —
up to 4x5 + 4 = 24 memory accesses.

LVM nests the same way but each dimension is single-access in the
common case: d_g guest model accesses + 1 guest PTE, each translated by
(d_h models + 1 PTE) host lookups — and because the learned models are
tiny and LWC/nested-TLB cached, the effective walk collapses toward a
single host-translated access.  The paper: "Due to the increased
performance cost of nested radix page tables, we expect LVM to provide
even higher performance gains."

The nested walkers below reuse the per-dimension software tables and
cache guest-physical -> host-physical translations in a *nested TLB*
(as real MMUs do for the second dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.learned_index import LearnedIndex
from repro.errors import SchemeCapabilityError
from repro.mmu.hierarchy import MemoryHierarchy
from repro.mmu.tlb import TLBArray
from repro.mmu.walk_cache import LWC, RadixPWC
from repro.pagetables.radix import RadixPageTable
from repro.schemes import registry as scheme_registry
from repro.types import PTE, PageSize


@dataclass
class NestedWalkOutcome:
    """One 2D page walk: result plus latency and traffic accounting."""

    pte: Optional[PTE]  # the guest PTE (GVA -> GPA)
    host_pte: Optional[PTE]  # the host mapping of the final GPA
    cycles: int
    memory_accesses: int
    host_walks: int  # second-dimension walks actually performed

    @property
    def hit(self) -> bool:
        return self.pte is not None and self.host_pte is not None


class _NestedTLB:
    """GPA -> host-PTE cache for the second walk dimension."""

    def __init__(self, entries: int = 32):
        self._arr = TLBArray("nTLB", entries, 4, PageSize.SIZE_4K)
        self.hits = 0
        self.misses = 0

    def lookup(self, gpa_vpn: int) -> Optional[PTE]:
        pte = self._arr.lookup(gpa_vpn, asid=0)
        if pte is not None and pte.covers(gpa_vpn):
            self.hits += 1
            return pte
        self.misses += 1
        return None

    def insert(self, pte: PTE) -> None:
        self._arr.insert(pte, asid=0)


class NestedRadixWalker:
    """The 2D radix walk of hardware-assisted virtualization."""

    def __init__(
        self,
        guest_table: RadixPageTable,
        host_table: RadixPageTable,
        hierarchy: MemoryHierarchy,
        pwc: Optional[RadixPWC] = None,
        host_pwc: Optional[RadixPWC] = None,
    ):
        self.guest = guest_table
        self.host = host_table
        self.hierarchy = hierarchy
        self.pwc = pwc or RadixPWC()
        self.host_pwc = host_pwc or RadixPWC()
        self.ntlb = _NestedTLB()
        self.walks = 0
        self.total_cycles = 0
        self.total_accesses = 0

    def _host_translate(self, gpa: int) -> "tuple[Optional[PTE], int, int]":
        """Translate one guest-physical address; returns
        (host pte, cycles, memory accesses)."""
        gpa_vpn = gpa >> 12
        cached = self.ntlb.lookup(gpa_vpn)
        if cached is not None:
            return cached, 1, 0
        result = self.host.walk(gpa_vpn)
        lowest = self.host_pwc.lowest_cached_level(gpa_vpn, 0)
        cycles = self.host_pwc.latency
        issued = 0
        for access in result.accesses:
            if lowest is not None and access.level >= lowest:
                continue
            cycles += self.hierarchy.walk_access(access.paddr)
            issued += 1
        if len(result.accesses) > 1:
            self.host_pwc.fill(gpa_vpn, 0, result.accesses[-2].level)
        if result.pte is not None:
            self.ntlb.insert(result.pte)
        return result.pte, cycles, issued

    def walk(self, gva_vpn: int, asid: int = 0) -> NestedWalkOutcome:
        """2D walk: each guest page-table access is host-translated."""
        guest_result = self.guest.walk(gva_vpn)
        lowest = self.pwc.lowest_cached_level(gva_vpn, asid)
        cycles = self.pwc.latency
        issued = 0
        host_walks = 0
        for access in guest_result.accesses:
            if lowest is not None and access.level >= lowest:
                continue
            # The guest table entry's address is a GPA: translate it
            # through the host dimension first, then fetch it.
            _, host_cycles, host_issued = self._host_translate(access.paddr)
            host_walks += 1
            cycles += host_cycles + self.hierarchy.walk_access(access.paddr)
            issued += host_issued + 1
        if len(guest_result.accesses) > 1:
            self.pwc.fill(gva_vpn, asid, guest_result.accesses[-2].level)
        host_pte = None
        if guest_result.pte is not None:
            # Finally translate the data GPA itself.
            gpa = guest_result.pte.ppn << 12
            host_pte, host_cycles, host_issued = self._host_translate(gpa)
            host_walks += 1
            cycles += host_cycles
            issued += host_issued
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return NestedWalkOutcome(
            guest_result.pte, host_pte, cycles, issued, host_walks
        )


class NestedLVMWalker:
    """2D LVM walk: learned indexes in both dimensions.

    The guest OS keeps an LVM index for GVA->GPA; the hypervisor keeps
    one for GPA->HPA (the paper's "Virtualization Support").  Each
    dimension enjoys single-access translation, so the worst-case 2D
    walk is (d_g+1) x (d_h+1) but the common case — LWCs holding both
    tiny indexes, nested TLB covering hot GPAs — is one guest PTE fetch
    plus one host PTE fetch.
    """

    def __init__(
        self,
        guest_index: LearnedIndex,
        host_index: LearnedIndex,
        hierarchy: MemoryHierarchy,
        lwc: Optional[LWC] = None,
        host_lwc: Optional[LWC] = None,
    ):
        self.guest = guest_index
        self.host = host_index
        self.hierarchy = hierarchy
        self.lwc = lwc or LWC()
        self.host_lwc = host_lwc or LWC()
        self.ntlb = _NestedTLB()
        self.walks = 0
        self.total_cycles = 0
        self.total_accesses = 0

    def _host_translate(self, gpa: int) -> "tuple[Optional[PTE], int, int]":
        gpa_vpn = gpa >> 12
        cached = self.ntlb.lookup(gpa_vpn)
        if cached is not None:
            return cached, 1, 0
        trace = self.host.walk(gpa_vpn)
        cycles = 0
        issued = 0
        for level, offset, paddr in trace.node_accesses:
            cycles += self.host_lwc.latency
            if not self.host_lwc.lookup(1, level, offset):
                cycles += self.hierarchy.walk_access(paddr)
                issued += 1
                self.host_lwc.fill_line(1, level, offset)
        for paddr in trace.pte_line_paddrs:
            cycles += self.hierarchy.walk_access(paddr)
            issued += 1
        if trace.pte is not None:
            self.ntlb.insert(trace.pte)
        return trace.pte, cycles, issued

    def walk(self, gva_vpn: int, asid: int = 0) -> NestedWalkOutcome:
        trace = self.guest.walk(gva_vpn)
        cycles = 0
        issued = 0
        host_walks = 0
        for level, offset, paddr in trace.node_accesses:
            cycles += self.lwc.latency
            if not self.lwc.lookup(asid, level, offset):
                _, host_cycles, host_issued = self._host_translate(paddr)
                host_walks += 1
                cycles += host_cycles + self.hierarchy.walk_access(paddr)
                issued += host_issued + 1
                self.lwc.fill_line(asid, level, offset)
        for paddr in trace.pte_line_paddrs:
            _, host_cycles, host_issued = self._host_translate(paddr)
            host_walks += 1
            cycles += host_cycles + self.hierarchy.walk_access(paddr)
            issued += host_issued + 1
        host_pte = None
        if trace.pte is not None:
            gpa = trace.pte.ppn << 12
            host_pte, host_cycles, host_issued = self._host_translate(gpa)
            host_walks += 1
            cycles += host_cycles
            issued += host_issued
        self.walks += 1
        self.total_cycles += cycles
        self.total_accesses += issued
        return NestedWalkOutcome(
            trace.pte, host_pte, cycles, issued, host_walks
        )


def build_host_mapping(
    guest_pages: int,
    allocator,
    scheme: str = "lvm",
    base_gpa_vpn: int = 1 << 20,
):
    """The hypervisor's GPA->HPA mapping backing a guest's memory.

    Guest physical memory is one big, regular region (hypervisors
    allocate it in large chunks), which is the learned index's best
    case — one more reason nested LVM nests cheaply.

    ``scheme`` resolves through the scheme registry; schemes without
    virtualization support raise
    :class:`~repro.errors.SchemeCapabilityError` naming the schemes
    that have it.
    """
    ptes = [
        PTE(vpn=base_gpa_vpn + i, ppn=(2 << 20) + i) for i in range(guest_pages)
    ]
    descriptor = scheme_registry.get(scheme)
    if not descriptor.supports_virtualization:
        raise SchemeCapabilityError(
            f"scheme {descriptor.name!r} cannot host nested translation; "
            f"virtualization-capable schemes: "
            f"{', '.join(scheme_registry.virtualization_schemes())}"
        )
    return descriptor.make_host_table(allocator, ptes)
