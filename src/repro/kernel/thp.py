"""Transparent-huge-page policy (paper section 6.3's THP configuration).

Linux's khugepaged backs 2 MB-aligned, fully-mapped spans of anonymous
VMAs with huge pages when an order-9 physical block is available.  The
policy here does the same over our VMAs: given a VMA and the physical
allocator's state, emit the mix of 2 MB and 4 KB mappings for it.
``coverage`` caps how much of a VMA THP may back (real systems rarely
reach 100% because of partial spans, mprotect splits, and allocation
failures).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.kernel.vma import VMA
from repro.types import PageSize

HUGE_PAGES_4K = PageSize.SIZE_2M.pages_4k  # 512


def plan_vma_runs(
    vma: VMA, thp: bool, coverage: float = 0.9
) -> List[Tuple[int, int, PageSize]]:
    """Mapping plan for a VMA: huge pages where THP applies, 4 KB
    elsewhere, as runs ``(first VPN, count, page size)`` of equal-size
    mappings in mapping order.

    ``coverage`` is the fraction of huge-eligible VMAs actually backed
    by huge pages (the rest deliberately stays 4 KB, modelling VMAs
    khugepaged has not collapsed); the choice is deterministic, so
    runs are reproducible.
    """
    start, end = vma.start_vpn, vma.end_vpn
    collapsed = _vma_collapsed(vma, coverage)
    if not thp or vma.pages < HUGE_PAGES_4K or vma.file_backed or not collapsed:
        return [(start, vma.pages, PageSize.SIZE_4K)]
    first_aligned = -(-start // HUGE_PAGES_4K) * HUGE_PAGES_4K
    last_aligned = (end // HUGE_PAGES_4K) * HUGE_PAGES_4K
    runs = []
    # Head: unaligned prefix stays 4 KB.
    head_end = min(first_aligned, end)
    if head_end > start:
        runs.append((start, head_end - start, PageSize.SIZE_4K))
    if last_aligned > first_aligned:
        runs.append(
            (first_aligned, (last_aligned - first_aligned) // HUGE_PAGES_4K,
             PageSize.SIZE_2M)
        )
    # Tail: unaligned suffix stays 4 KB.
    tail_start = max(last_aligned, start)
    if end > tail_start:
        runs.append((tail_start, end - tail_start, PageSize.SIZE_4K))
    return runs


def _vma_collapsed(vma: VMA, coverage: float) -> bool:
    """Whether khugepaged has collapsed this whole VMA.

    Real THP coverage is region-granular: khugepaged either collapsed a
    VMA's huge-aligned interior or has not gotten to it yet — it does
    not leave periodic 4 KB islands inside huge regions.  A
    deterministic per-VMA hash keeps ``coverage`` of the eligible VMAs
    collapsed, reproducibly.
    """
    if coverage >= 1.0:
        return True
    if coverage <= 0.0:
        return False
    spread = ((vma.start_vpn * 2654435761) & 0xFFFF) / 65536.0
    return spread < coverage
