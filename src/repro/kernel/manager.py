"""The LVM OS manager — our analogue of the paper's Linux prototype
(section 5.3: kernel 5.15 streaming map/unmap operations to a userspace
agent that maintains the learned index).

The manager wraps a :class:`~repro.core.LearnedIndex` behind the
PageTable interface so a :class:`~repro.kernel.process.Process` can use
LVM exactly like any other scheme, and it accounts for every
management cost the paper reports in section 7.3: initialization,
insertions, rescales, local retrains, full rebuilds, and the resulting
LWC flushes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import LVMConfig
from repro.core.learned_index import LearnedIndex
from repro.errors import DuplicateMappingError
from repro.mem.allocator import PhysicalAllocator
from repro.types import PTE, TranslationError


@dataclass
class ManagementReport:
    """Section 7.3 "LVM Overheads in the OS" summary."""

    management_time_s: float
    full_rebuilds: int
    local_retrains: int
    rescales: int
    lwc_flushes: int
    max_retrain_time_s: float
    avg_retrain_time_s: float

    def overhead_fraction(self, runtime_s: float) -> float:
        if runtime_s <= 0:
            return 0.0
        return self.management_time_s / runtime_s


class LVMManager:
    """Per-process LVM state maintained by the OS."""

    def __init__(
        self,
        allocator: Optional[PhysicalAllocator] = None,
        config: Optional[LVMConfig] = None,
    ):
        self.index = LearnedIndex(allocator, config)
        self._batched: List[PTE] = []
        self._batched_vpns: set = set()
        self._batching = False

    # -- bulk initialization -------------------------------------------
    def begin_batch(self) -> None:
        """Defer index construction while the process's initial VMAs
        stream in (process startup maps thousands of pages; the OS
        builds the index once at the end, section 4.3.1)."""
        self._batching = True

    def end_batch(self) -> None:
        self._batching = False
        if self._batched:
            self.index.bulk_build(
                self.index.mappings() + self._batched, program_rebaser=True
            )
            self._batched = []
            self._batched_vpns = set()

    # -- PageTable interface ---------------------------------------------
    def map(self, pte: PTE) -> None:
        if self._batching:
            # The duplicate guard must hold even while deferring: a
            # replayed mmap event is rejected here instead of poisoning
            # the deferred bulk build.
            if pte.vpn in self._batched_vpns or self.index.contains(pte.vpn):
                raise DuplicateMappingError(
                    f"VPN {pte.vpn:#x} is already mapped"
                )
            self._batched.append(pte)
            self._batched_vpns.add(pte.vpn)
            return
        if self.index.contains(pte.vpn):
            raise DuplicateMappingError(f"VPN {pte.vpn:#x} is already mapped")
        if not self.index.rebaser.in_headroom(pte.vpn):
            # New segment outside every rebased region: reprogram the
            # rebase registers and rebuild (rare; program start-up or a
            # fresh far mmap arena).
            self.index.bulk_build(
                self.index.mappings() + [pte], program_rebaser=True
            )
            self.index.stats.full_rebuilds += 1
            self.index.stats.lwc_flushes += 1
            return
        self.index.insert(pte)

    def map_many(self, ptes: List[PTE]) -> None:
        """:meth:`map` each of ``ptes`` in order.  Inside a batch,
        duplicate-free entries extend the deferred list behind one
        set-based check; a duplicate (or no open batch) takes the
        per-entry path, which raises where :meth:`map` would."""
        if self._batching:
            vpns = {pte.vpn for pte in ptes}
            if (
                len(vpns) == len(ptes)
                and vpns.isdisjoint(self._batched_vpns)
                and not (
                    self.index.num_mappings
                    and any(map(self.index.contains, vpns))
                )
            ):
                self._batched.extend(ptes)
                self._batched_vpns |= vpns
                return
        for pte in ptes:
            self.map(pte)

    def unmap(self, vpn: int) -> PTE:
        if self._batching:
            for i, pte in enumerate(self._batched):
                if pte.vpn == vpn:
                    self._batched_vpns.discard(vpn)
                    return self._batched.pop(i)
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        return self.index.remove(vpn)

    def walk(self, vpn: int):
        return self.index.lookup(vpn)

    def find(self, vpn: int) -> Optional[PTE]:
        return self.index.find(vpn)

    def mappings(self) -> List[PTE]:
        """The authoritative mapping list, in VPN order."""
        if self._batching:
            return sorted(
                self.index.mappings() + self._batched, key=lambda p: p.vpn
            )
        return self.index.mappings()

    # -- software PTE updates (section 5.2, "Software lookup") ---------
    def set_accessed(self, vpn: int) -> None:
        pte = self.index.find(vpn)
        if pte is None:
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        pte.accessed = True

    def set_dirty(self, vpn: int) -> None:
        pte = self.index.find(vpn)
        if pte is None:
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        pte.dirty = True

    def change_protection(self, vpn: int, perms) -> None:
        """mprotect-style permission change: PTE modified in place, so
        a TLB shootdown (not an index change) is required."""
        pte = self.index.find(vpn)
        if pte is None:
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        pte.perms = perms

    def reclaim(self) -> int:
        """Rebuild the index to release gapped-table space after a
        peak-to-steady-state drop (section 7.3).  Flushes the LWC (a
        rebuild changes every model).  Returns bytes reclaimed."""
        return self.index.compact()

    # -- reporting ---------------------------------------------------------
    @property
    def table_bytes(self) -> int:
        return self.index.table_bytes

    def report(self) -> ManagementReport:
        stats = self.index.stats
        times = stats.retrain_times_s
        return ManagementReport(
            management_time_s=stats.management_time_s,
            full_rebuilds=stats.full_rebuilds,
            local_retrains=stats.local_retrains,
            rescales=stats.rescales,
            lwc_flushes=stats.lwc_flushes,
            max_retrain_time_s=max(times) if times else 0.0,
            avg_retrain_time_s=sum(times) / len(times) if times else 0.0,
        )
