"""Common interface for all translation schemes.

Every page table — radix, hashed, ECPT, FPT, ideal, and LVM — exposes
the same software interface (map / unmap / walk) and reports, per walk,
the exact sequence of physical memory accesses a hardware walker would
issue.  The MMU layer replays those accesses through walk caches and
the cache hierarchy to obtain latency and traffic.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

from repro.types import PTE, WalkResult


@runtime_checkable
class PageTable(Protocol):
    """The software view of a translation scheme."""

    def map(self, pte: PTE) -> None:
        """Install a translation.  ``pte.vpn`` is the first 4 KB VPN of
        the mapping; ``pte.page_size`` its size."""
        ...

    def unmap(self, vpn: int) -> PTE:
        """Remove the translation whose first VPN is ``vpn``."""
        ...

    def walk(self, vpn: int) -> WalkResult:
        """Translate a 4 KB VPN, reporting hardware walk accesses.

        A VPN inside a large page resolves to the large page's entry.
        A miss (unmapped VPN) returns ``pte=None`` with the accesses
        performed before the walker could conclude the page is absent.

        (LVM's :class:`~repro.core.learned_index.LearnedIndex` returns
        its richer :class:`~repro.core.learned_index.LVMWalk` trace —
        same ``pte`` semantics, plus the node path its hardware walker
        needs.)
        """
        ...

    def find(self, vpn: int) -> Optional[PTE]:
        """Software lookup with no statistics side effects."""
        ...

    def mappings(self) -> List[PTE]:
        """Every installed translation, once each, in VPN order: what
        the kernel's audit compares against its VMAs."""
        ...

    @property
    def table_bytes(self) -> int:
        """Total physical memory consumed by translation structures."""
        ...


def walk_traffic(result: WalkResult) -> int:
    """Number of memory requests a walk sends to the cache hierarchy."""
    return len(result.accesses)


def walk_serial_length(result: WalkResult) -> int:
    """Number of *dependent* (serialized) access steps in the walk.

    Accesses sharing a ``parallel_group`` are issued concurrently
    (ECPT's d-ary probes), so they count as a single step.
    """
    groups = {(a.parallel_group, a.level) for a in result.accesses}
    return len(groups)
