"""Kernel-side invariant checking.

The OS's view of a process must stay internally consistent no matter
what the fault injector does to the learned structures or to the
kernel→agent event stream.  These checks are the contract:

* VMAs never overlap (:class:`~repro.errors.OverlappingVMAError`);
* no physical frame is mapped by two translations
  (:class:`~repro.errors.DoubleMappedFrameError`);
* every translation the page table holds falls inside a live VMA
  (:class:`~repro.errors.IndexInconsistencyError`) — a violation is the
  signature of a lost munmap event.

``reconcile_stale_mappings`` is the recovery twin of the last check:
instead of raising, it removes the orphaned translations, which is how
the periodic kernel audit heals a desynchronized agent.
"""

from __future__ import annotations

from typing import List

from repro.errors import (
    DoubleMappedFrameError,
    IndexInconsistencyError,
    OverlappingVMAError,
)
from repro.types import PTE


def check_no_overlapping_vmas(address_space) -> None:
    """Every pair of adjacent VMAs (in start order) must be disjoint."""
    prev = None
    for vma in address_space:
        if prev is not None and vma.start_vpn < prev.end_vpn:
            raise OverlappingVMAError(
                f"VMA [{vma.start_vpn:#x}, {vma.end_vpn:#x}) overlaps "
                f"[{prev.start_vpn:#x}, {prev.end_vpn:#x})"
            )
        prev = vma


def check_no_double_mapped_frames(ptes: List[PTE]) -> None:
    """No physical frame may back two different translations."""
    ranges = sorted(
        (p.ppn, p.ppn + p.page_size.pages_4k, p.vpn) for p in ptes
    )
    prev_end = -1
    prev_vpn = 0
    for start, end, vpn in ranges:
        if start < prev_end:
            raise DoubleMappedFrameError(
                f"frame {start:#x} is mapped by both VPN {prev_vpn:#x} "
                f"and VPN {vpn:#x}"
            )
        prev_end, prev_vpn = end, vpn


def check_index_consistency(process) -> None:
    """Every translation the page table holds must be inside a VMA:
    this catches translations orphaned by lost munmap events."""
    for pte in process.page_table.mappings():
        if process.address_space.find(pte.vpn) is None:
            raise IndexInconsistencyError(
                f"page table holds VPN {pte.vpn:#x} but no VMA covers it"
            )


def check_process_invariants(process) -> None:
    """Run every invariant check; raises the first violation found."""
    check_no_overlapping_vmas(process.address_space)
    check_no_double_mapped_frames(process.page_table.mappings())
    check_index_consistency(process)


def reconcile_stale_mappings(process) -> int:
    """Remove page-table translations no VMA covers (lost munmap
    events).

    Returns the number of stale translations dropped.  This is the
    recovery path behind :func:`check_index_consistency`.
    """
    stale = [
        pte.vpn
        for pte in process.page_table.mappings()
        if process.address_space.find(pte.vpn) is None
    ]
    for vpn in stale:
        process.page_table.unmap(vpn)
    return len(stale)
