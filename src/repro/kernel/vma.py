"""Virtual memory areas and per-process address spaces.

The address space is the OS-side source of truth about what is mapped
where; every page-table scheme is populated from it.  It also computes
the paper's *virtual memory gap coverage* metric (section 3.1,
Figure 2): the fraction of consecutive mapped VPNs whose gap is exactly
one page.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import OverlappingVMAError
from repro.types import Permission, TranslationError


@dataclass(frozen=True)
class VMA:
    """One contiguous virtual mapping: [start_vpn, start_vpn + pages)."""

    start_vpn: int
    pages: int
    perms: Permission = Permission.RW
    name: str = ""
    file_backed: bool = False

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.pages

    def overlaps(self, other: "VMA") -> bool:
        return self.start_vpn < other.end_vpn and other.start_vpn < self.end_vpn

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn


class AddressSpace:
    """An ordered, non-overlapping collection of VMAs."""

    def __init__(self) -> None:
        self._starts: List[int] = []  # sorted VMA start VPNs
        self._vmas: dict[int, VMA] = {}

    def mmap(self, vma: VMA) -> VMA:
        if vma.pages <= 0:
            raise TranslationError("VMA must span at least one page")
        idx = bisect_right(self._starts, vma.start_vpn)
        for neighbour_idx in (idx - 1, idx):
            if 0 <= neighbour_idx < len(self._starts):
                neighbour = self._vmas[self._starts[neighbour_idx]]
                if neighbour.overlaps(vma):
                    raise OverlappingVMAError(
                        f"VMA [{vma.start_vpn:#x}, {vma.end_vpn:#x}) overlaps "
                        f"[{neighbour.start_vpn:#x}, {neighbour.end_vpn:#x})"
                    )
        insort(self._starts, vma.start_vpn)
        self._vmas[vma.start_vpn] = vma
        return vma

    def munmap(self, start_vpn: int) -> VMA:
        vma = self._vmas.pop(start_vpn, None)
        if vma is None:
            raise TranslationError(f"no VMA starts at VPN {start_vpn:#x}")
        self._starts.pop(bisect_left(self._starts, start_vpn))
        return vma

    def find(self, vpn: int) -> Optional[VMA]:
        idx = bisect_right(self._starts, vpn) - 1
        if idx < 0:
            return None
        vma = self._vmas[self._starts[idx]]
        return vma if vma.contains(vpn) else None

    def __iter__(self) -> Iterator[VMA]:
        for start in self._starts:
            yield self._vmas[start]

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def total_pages(self) -> int:
        return sum(v.pages for v in self)

    def gap_coverage(self, gap: int = 1) -> float:
        """Fraction of consecutive mapped-VPN pairs at exactly ``gap``
        (the Figure 2 metric; gap=1 measures sequentiality)."""
        total = 0
        matching = 0
        prev: Optional[int] = None
        for vma in self:
            # Within a VMA every consecutive pair has gap 1.
            if vma.pages > 1:
                total += vma.pages - 1
                if gap == 1:
                    matching += vma.pages - 1
            if prev is not None:
                total += 1
                if vma.start_vpn - prev == gap:
                    matching += 1
            prev = vma.end_vpn - 1
        return matching / total if total else 0.0
