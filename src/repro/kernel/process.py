"""A process: address space + translation scheme + fault handling.

This is the glue the paper's Linux prototype provides (section 5.3): it
streams map/unmap operations from the VMA layer into whichever page
table backs the process — radix, ECPT, FPT, ideal, or LVM's
:class:`~repro.core.learned_index.LearnedIndex` — assigns physical
frames, and services page faults by mapping on first access (demand
paging).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import DuplicateMappingError
from repro.kernel import invariants
from repro.kernel.thp import plan_vma_runs
from repro.kernel.vma import VMA, AddressSpace
from repro.mem.allocator import BumpAllocator, PhysicalAllocator
from repro.types import PTE, BASE_PAGE_SIZE, PageSize, TranslationError


@dataclass
class ProcessStats:
    faults: int = 0
    mapped_pages: int = 0
    huge_mappings: int = 0
    shootdowns: int = 0
    # Event-stream fault accounting (injection + recovery).
    dropped_mmap_events: int = 0
    dropped_munmap_events: int = 0
    duplicate_events: int = 0
    duplicate_rejects: int = 0
    stale_reconciled: int = 0


class Mint(NamedTuple):
    """The PTEs :func:`mint` made for ``vmas``, in mapping order, and
    what they were made from."""

    vmas: Tuple[VMA, ...]
    ptes: Tuple[PTE, ...]
    pages: int  # 4 KB pages the PTEs cover
    huge: int  # huge mappings among them
    first_ppn: int
    next_ppn: int  # the frame after the last one used
    thp: bool
    thp_coverage: float


def mint(
    vmas: Iterable[VMA], thp: bool, thp_coverage: float, first_ppn: int
) -> Mint:
    """The PTEs for every page of ``vmas``, with data frames handed out
    in order from ``first_ppn``; a pure function of its arguments.

    ``plan_vma_runs`` decides each VMA's mix of huge and 4 KB mappings.
    Frames come from a bump cursor: what matters for the translation
    study is the *page table* layout, and a cursor gives all schemes
    identical data-cache behaviour.
    """
    vmas = tuple(vmas)
    ptes: List[PTE] = []
    ppn = first_ppn
    huge = 0
    for vma in vmas:
        for first, count, size in plan_vma_runs(vma, thp, thp_coverage):
            step = size.pages_4k
            span = count * step
            ptes.extend(
                map(
                    PTE,
                    range(first, first + span, step),
                    range(ppn, ppn + span, step),
                    repeat(size, count),
                    repeat(vma.perms, count),
                )
            )
            ppn += span
            if size is not PageSize.SIZE_4K:
                huge += count
    return Mint(
        vmas, tuple(ptes), ppn - first_ppn, huge, first_ppn, ppn, thp, thp_coverage
    )


class Process:
    """One simulated process with demand paging."""

    def __init__(
        self,
        page_table,
        allocator: Optional[PhysicalAllocator] = None,
        asid: int = 0,
        thp: bool = False,
        thp_coverage: float = 0.9,
        injector=None,
        phys_base: int = 0,
    ):
        self.page_table = page_table
        self.allocator = allocator or BumpAllocator()
        self.asid = asid
        self.thp = thp
        self.thp_coverage = thp_coverage
        # Optional FaultInjector perturbing the kernel→page-table event
        # stream (dropped / duplicated mmap and munmap deliveries).
        self.injector = injector
        self.address_space = AddressSpace()
        self.stats = ProcessStats()
        # Data-page frame numbers, from 4 GiB above ``phys_base``.
        self.next_ppn = phys_base // BASE_PAGE_SIZE + (1 << 20)

    # -- mapping ---------------------------------------------------------
    def mmap(self, vma: VMA, populate: bool = True) -> VMA:
        """Create a VMA; with ``populate`` pre-fault all of it (the
        simulator's region of interest starts after initialization)."""
        if populate:
            self.mmap_all((vma,))
        else:
            self.address_space.mmap(vma)
        return vma

    def mmap_all(self, vmas: Iterable[VMA]) -> None:
        """Create each of ``vmas``, in order, and install translations
        for all of their pages: :func:`mint` them from this process's
        frame cursor, then :meth:`install` them."""
        self.install(mint(vmas, self.thp, self.thp_coverage, self.next_ppn))

    def install(self, minted: Mint) -> None:
        """Create the VMAs of ``minted``, in order, and deliver its PTEs.

        ``minted`` must come from this process's frame cursor, THP
        setting and coverage (anything else raises ``ValueError``), but
        may be shared: the entries are delivered, never copied.  On a
        clean event stream they reach the table in one ``map_many``
        call; under a fault injector, or for a table without
        ``map_many``, each PTE is one map event, which the injector may
        drop or replay.
        """
        made_for = (minted.first_ppn, minted.thp, minted.thp_coverage)
        if made_for != (self.next_ppn, self.thp, self.thp_coverage):
            raise ValueError(
                f"a mint for (first frame, THP, coverage) {made_for} cannot "
                f"be installed at {(self.next_ppn, self.thp, self.thp_coverage)}"
            )
        for vma in minted.vmas:
            self.address_space.mmap(vma)
        self.next_ppn = minted.next_ppn
        map_many = getattr(self.page_table, "map_many", None)
        if map_many is None or self.injector is not None:
            for pte in minted.ptes:
                self._map_event(pte)
            return
        map_many(minted.ptes)
        self.stats.mapped_pages += minted.pages
        self.stats.huge_mappings += minted.huge

    def _map_event(self, pte: PTE, droppable: bool = True) -> None:
        """Deliver one map event through the (possibly faulty) stream."""
        inj = self.injector
        if inj is not None and droppable and inj.drop_kernel_event():
            # The async map event was lost before reaching the agent:
            # the VMA record stands, so demand faults remap on first
            # touch.  (Fault-time maps are synchronous — never dropped.)
            self.stats.dropped_mmap_events += 1
            return
        self._deliver_map(pte)
        if inj is not None and inj.duplicate_kernel_event():
            # The event was replayed; the duplicate must bounce off the
            # page table's duplicate-mapping guard.
            self.stats.duplicate_events += 1
            self._deliver_map(pte, replay=True)
        self.stats.mapped_pages += pte.page_size.pages_4k
        if pte.page_size is not PageSize.SIZE_4K:
            self.stats.huge_mappings += 1

    def _deliver_map(self, pte: PTE, replay: bool = False) -> None:
        """Hand one map event to the page table, absorbing duplicates.

        A replayed event is simply rejected.  A *fresh* mapping that
        collides means a stale translation squatting on the VPN (the
        signature of a lost munmap): the kernel reconciles by unmapping
        it first, then delivering the new translation.
        """
        try:
            self.page_table.map(pte)
        except DuplicateMappingError:
            if replay:
                self.stats.duplicate_rejects += 1
                return
            self.page_table.unmap(pte.vpn)
            self.stats.stale_reconciled += 1
            self.page_table.map(pte)

    def munmap(self, start_vpn: int, mmu=None) -> None:
        """Remove a VMA, unmapping every translation inside it.

        A TLB shootdown is issued per removed translation when an MMU
        is attached (section 5.2, "TLB Shootdowns").
        """
        vma = self.address_space.munmap(start_vpn)
        vpn = vma.start_vpn
        while vpn < vma.end_vpn:
            pte = self.page_table.find(vpn)
            if pte is not None and pte.vpn == vpn:
                if self.injector is not None and self.injector.drop_kernel_event():
                    # Lost unmap event: the translation goes stale until
                    # the reconciliation audit (or a colliding fresh map)
                    # removes it.
                    self.stats.dropped_munmap_events += 1
                    vpn += pte.page_size.pages_4k
                    continue
                self.page_table.unmap(vpn)
                self.stats.mapped_pages -= pte.page_size.pages_4k
                if mmu is not None:
                    mmu.invalidate(vpn, self.asid)
                self.stats.shootdowns += 1
                vpn += pte.page_size.pages_4k
            else:
                vpn += 1

    # -- faults -----------------------------------------------------------
    def handle_fault(self, va: int) -> PTE:
        """Demand-page a first touch; raises on a true segfault."""
        vpn = va // BASE_PAGE_SIZE
        vma = self.address_space.find(vpn)
        if vma is None:
            raise TranslationError(f"segfault: VA {va:#x} is not mapped")
        self.stats.faults += 1
        pte = PTE(vpn, self.next_ppn, PageSize.SIZE_4K, vma.perms)
        self.next_ppn += 1
        self._map_event(pte, droppable=False)
        return pte

    # -- invariants ----------------------------------------------------
    def check_invariants(self) -> None:
        """Raise a typed :class:`~repro.errors.InvariantViolation` if
        the address space or page table is inconsistent."""
        invariants.check_process_invariants(self)

    def reconcile(self) -> int:
        """Drop page-table translations no VMA covers (lost munmap
        events); returns the number removed."""
        removed = invariants.reconcile_stale_mappings(self)
        self.stats.stale_reconciled += removed
        return removed
