"""Per-workload virtual address space construction.

Each workload declares its segments (text, heap arrays, arenas, stack);
the builder places them at ASLR bases, runs the userspace-allocator
model to inject realistic small holes, and emits the VMA list the OS
layer maps.  The resulting spaces reproduce the gap-1 coverage range
the paper measures in Figure 2 (78%–99.9% across workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kernel.aslr import ASLRLayout
from repro.kernel.vma import VMA
from repro.types import Permission
from repro.workloads.allocator import JEMALLOC, AllocatorModel


@dataclass(frozen=True)
class SegmentSpec:
    """A logical segment of a workload's address space.

    ``hole_fraction`` = 0 means the segment is one dense allocation
    (large arrays mmap'd in one piece); > 0 means allocator churn
    fragments it.  Churned segments are additionally perturbed by the
    allocator model's own hole statistics, which is how the jemalloc
    vs. tcmalloc comparison of Figure 2 enters the layout.
    """

    name: str
    region: str  # ASLR region: text / data / heap / mmap / stack
    pages: int
    hole_fraction: float = 0.0
    hole_max: int = 8
    perms: Permission = Permission.RW
    file_backed: bool = False


@dataclass
class BuiltAddressSpace:
    """The VMAs of a workload plus bookkeeping for trace generators."""

    vmas: List[VMA]
    segment_base_vpn: Dict[str, int] = field(default_factory=dict)

    @property
    def total_pages(self) -> int:
        return sum(v.pages for v in self.vmas)

    def to_layout(self) -> Dict[str, list]:
        """This space as JSON-ready lists, in order: what the trace
        cache stores beside a trace so that a warm sweep can skip the
        build (:func:`repro.workloads.registry.workload_from_layout`)."""
        return {
            "vmas": [
                [v.start_vpn, v.pages, int(v.perms), v.name, v.file_backed]
                for v in self.vmas
            ],
            "segment_base_vpn": [[n, b] for n, b in self.segment_base_vpn.items()],
        }

    @classmethod
    def from_layout(cls, layout: Dict[str, list]) -> "BuiltAddressSpace":
        """Inverse of :meth:`to_layout`."""
        return cls(
            vmas=[
                VMA(start, pages, Permission(perms), name, file_backed)
                for start, pages, perms, name, file_backed in layout["vmas"]
            ],
            segment_base_vpn={n: b for n, b in layout["segment_base_vpn"]},
        )

    def gap_coverage(self, gap: int = 1) -> float:
        total = 0
        matching = 0
        prev: Optional[int] = None
        for vma in sorted(self.vmas, key=lambda v: v.start_vpn):
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


# Gap between consecutive segments placed in the same ASLR region, in
# pages — guard pages plus allocator alignment slack.
_SEGMENT_GUARD_PAGES = 4


def build_address_space(
    specs: List[SegmentSpec],
    aslr: Optional[ASLRLayout] = None,
    allocator: AllocatorModel = JEMALLOC,
    seed: int = 0,
) -> BuiltAddressSpace:
    """Place segments and inject allocator holes; returns the VMAs."""
    aslr = aslr or ASLRLayout(seed=seed)
    cursor: Dict[str, int] = {}
    vmas: List[VMA] = []
    bases: Dict[str, int] = {}
    huge_pages = 512  # pages per 2 MB huge-page frame
    for i, spec in enumerate(specs):
        base = cursor.get(spec.region, aslr.base_vpn(spec.region))
        pages = spec.pages
        if spec.hole_fraction <= 0.0 and pages >= huge_pages and not spec.file_backed:
            # Large anonymous mappings are 2 MB-aligned and sized, as
            # modern kernels/allocators do for THP eligibility — this
            # is what keeps huge regions free of 4 KB heads and tails.
            base = -(-base // huge_pages) * huge_pages
            pages = -(-pages // huge_pages) * huge_pages
        bases[spec.name] = base
        spec = SegmentSpec(
            spec.name, spec.region, pages, spec.hole_fraction,
            spec.hole_max, spec.perms, spec.file_backed,
        )
        if spec.hole_fraction > 0.0:
            # Churned segment: workload-declared churn, perturbed by
            # the allocator's own hole statistics relative to jemalloc.
            effective = max(
                0.0, spec.hole_fraction + (allocator.hole_fraction - JEMALLOC.hole_fraction)
            )
            model = AllocatorModel(
                allocator.name, effective, spec.hole_max, jitter=allocator.jitter
            )
        else:
            # Dense segment: one large allocation, no holes.
            model = AllocatorModel(allocator.name, 0.0, 1, jitter=0.0)
        runs = model.layout_runs(spec.pages, base, seed=seed * 1000 + i)
        for start, pages in runs:
            vmas.append(
                VMA(
                    start_vpn=start,
                    pages=pages,
                    perms=spec.perms,
                    name=spec.name,
                    file_backed=spec.file_backed,
                )
            )
        end = runs[-1][0] + runs[-1][1] if runs else base
        cursor[spec.region] = end + _SEGMENT_GUARD_PAGES
    return BuiltAddressSpace(vmas=vmas, segment_base_vpn=bases)
