"""Userspace allocator models (paper section 3.1).

The paper attributes virtual-address-space regularity largely to
userspace allocators: they pack allocations densely, reuse holes, and
buffer application free patterns so the OS-visible mapping stream stays
contiguous.  We model two allocator families the paper evaluates —
jemalloc (chunk/run based) and tcmalloc (span based) — as generators of
the *mapped-page layout* of a segment: long runs of contiguous pages
separated by small holes whose frequency and size depend on the
allocator and the workload's churn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class AllocatorModel:
    """Hole statistics an allocator leaves in a segment's page layout.

    ``hole_fraction`` is the probability that the next mapped run ends
    in a hole (equivalently ~the fraction of consecutive-page pairs
    with gap > 1); ``hole_max`` bounds hole size in pages.
    """

    name: str
    hole_fraction: float
    hole_max: int

    #: Fraction of holes that deviate from the allocator's regular
    #: size-class pattern (freed odd-size objects, mmap alignment).
    #: Kept small: the paper's Table 2 index sizes (~112 B) imply real
    #: address spaces resolve into a handful of linear pieces.
    jitter: float = 0.003

    def layout_runs(
        self, total_pages: int, base_vpn: int, seed: int = 0
    ) -> List[Tuple[int, int]]:
        """Produce (start_vpn, pages) runs totalling ``total_pages``
        mapped pages starting at ``base_vpn``.

        Holes follow the allocator's *regular* size-class pattern: a
        fixed-size hole (chunk headers, run metadata, alignment pad)
        after every fixed-length run, with occasional jittered holes.
        Regular spacing is why learned indexes work on these spaces —
        the CDF stays linear with a reduced slope — and it is what the
        paper observes: allocators "pack allocations closely together".
        """
        if total_pages <= 0:
            return []
        if self.hole_fraction <= 0.0:
            return [(base_vpn, total_pages)]
        rng = random.Random(seed)
        runs: List[Tuple[int, int]] = []
        vpn = base_vpn
        remaining = total_pages
        run_len = max(1, int(round(1.0 / self.hole_fraction)))
        hole_len = max(1, self.hole_max // 2)
        while remaining > 0:
            if rng.random() < self.jitter:
                run = min(remaining, max(1, int(run_len * (0.5 + rng.random()))))
                hole = rng.randint(1, self.hole_max)
            else:
                run = min(remaining, run_len)
                hole = hole_len
            runs.append((vpn, run))
            remaining -= run
            vpn += run + hole
        return runs


#: jemalloc: 2 MB-aligned chunks, dense runs; holes are rare and small.
JEMALLOC = AllocatorModel("jemalloc", hole_fraction=0.004, hole_max=8, jitter=0.003)

#: tcmalloc: span-based; marginally different hole statistics.  The
#: paper finds "regularity remains practically the same" across the two.
TCMALLOC = AllocatorModel("tcmalloc", hole_fraction=0.006, hole_max=12, jitter=0.006)

ALLOCATORS = {"jemalloc": JEMALLOC, "tcmalloc": TCMALLOC}
