"""ASLR rebasing for the learned index (paper section 5.2, "ASLR").

ASLR scatters segments across the 47-bit address space.  Two problems
follow for a learned index trained on raw VPNs: randomization changes
the key distribution run to run, and — decisive for LVM's Q44.20
fixed-point models — an even-division slope over a 2^35-page span
underflows the 20 fractional bits, degenerating the root node.

The paper's fix: "The OS exposes the ASLR base addresses to hardware
through registers, removing ASLR effects during LVM training."  The
:class:`AddressSpaceRebaser` is that register file: it maps each
segment region into a *compact* canonical space (regions packed next to
each other with growth headroom), and the hardware applies the same
subtraction before querying the index.  Rebasing is monotone, so the
index's order-based machinery is unaffected.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


class IdentityRebaser:
    """No-op rebaser for compact address spaces and unit tests."""

    def rebase(self, vpn: int) -> int:
        return vpn

    def rebase_array(self, vpns: np.ndarray) -> np.ndarray:
        return vpns

    def in_headroom(self, vpn: int) -> bool:
        return True


@dataclass(frozen=True)
class Region:
    """One ASLR region: real base, span, and its compact base."""

    start_vpn: int
    span: int  # mapped pages when the rebaser was built
    alloc: int  # compact pages reserved (span + headroom + guard)
    compact_base: int

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.alloc


class AddressSpaceRebaser:
    """Piecewise-linear monotone mapping of VPNs into a compact space.

    Every region gets an *equal-sized* compact slot (the smallest power
    of two covering the largest region plus growth headroom).  Equal
    pitch is the property that makes the learned index tiny: the root's
    even division can then land children exactly on region boundaries,
    so each segment of the address space trains its own leaf — the
    shape of Figure 4(c), and the reason Table 2's indexes are ~100
    bytes over address spaces with many far-apart segments.
    """

    #: Growth headroom per region, in pages (128 MB of VA): two
    #: minimum-insertion-distance expansions (64 MB each).
    DEFAULT_HEADROOM = 1 << 15
    #: Guard pages at the top of each compact slot.
    GUARD = 1 << 8

    def __init__(
        self,
        regions: Sequence[Tuple[int, int]],
        headroom: int = DEFAULT_HEADROOM,
    ):
        """``regions``: sorted (start_vpn, span_pages) pairs."""
        if not regions:
            raise ValueError("need at least one region")
        widest = max(span for _, span in regions)
        slot = 1
        while slot < widest + headroom + self.GUARD:
            slot <<= 1
        self.slot_pages = slot
        self.regions: List[Region] = []
        prev_end = -1
        for i, (start, span) in enumerate(regions):
            if start <= prev_end:
                raise ValueError("regions must be sorted and disjoint")
            self.regions.append(
                Region(start, span, slot - self.GUARD, i * slot)
            )
            prev_end = start + span - 1
        self._starts = [r.start_vpn for r in self.regions]
        # Column views of the regions for :meth:`rebase_array`.
        self._start_col = np.array(self._starts, dtype=np.int64)
        self._last_col = np.array([r.alloc - 1 for r in self.regions], dtype=np.int64)
        self._base_col = np.array(
            [r.compact_base for r in self.regions], dtype=np.int64
        )

    def _region_index(self, vpn: int) -> int:
        return bisect_right(self._starts, vpn) - 1

    def rebase(self, vpn: int) -> int:
        """Compact VPN for a real VPN; monotone over all inputs.

        VPNs below the first region map to (negative) offsets before
        compact zero; VPNs past a region's reserved compact span clamp
        to its end (such pages are unmapped by construction, so lookups
        correctly miss).
        """
        idx = self._region_index(vpn)
        if idx < 0:
            return vpn - self._starts[0]
        region = self.regions[idx]
        offset = vpn - region.start_vpn
        if offset >= region.alloc:
            offset = region.alloc - 1
        return region.compact_base + offset

    def rebase_array(self, vpns: np.ndarray) -> np.ndarray:
        """:meth:`rebase` over an int64 VPN column: one ``searchsorted``
        over the region starts, the same clamp.  VPNs stay below 2**35
        (47-bit VAs), so no intermediate can wrap int64."""
        idx = np.searchsorted(self._start_col, vpns, side="right") - 1
        region = np.maximum(idx, 0)
        offset = np.minimum(vpns - self._start_col[region], self._last_col[region])
        return np.where(
            idx < 0, vpns - self._start_col[0], self._base_col[region] + offset
        )

    def in_headroom(self, vpn: int) -> bool:
        """Whether a new mapping at ``vpn`` fits the reserved compact
        space.  False means the OS must rebuild the register file (and
        the index) — the rare "away from any region" case."""
        idx = self._region_index(vpn)
        if idx < 0:
            return False
        region = self.regions[idx]
        return vpn - region.start_vpn < region.alloc - 1

    @property
    def compact_span(self) -> int:
        return len(self.regions) * self.slot_pages

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def register_file(self) -> List[Tuple[int, int]]:
        """(real base, compact base) pairs — what the OS writes to the
        hardware rebase registers (section 4.6.2's d_limit registers
        carry the level bases; these carry the segment bases)."""
        return [(r.start_vpn, r.compact_base) for r in self.regions]


def cluster_regions(
    sorted_vpns: Sequence[int],
    spans: Sequence[int],
    max_regions: int = 8,
    gap_threshold: int = 256,
) -> List[Tuple[int, int]]:
    """Group mappings into ASLR-style regions.

    Consecutive mappings separated by more than ``gap_threshold`` pages
    (1 MB of VA — segment boundaries, not allocator holes) start a new
    region.  If more than ``max_regions`` result (the hardware has a
    fixed number of rebase registers), the smallest gaps are merged
    first.
    """
    starts = np.asarray(sorted_vpns, dtype=np.int64)
    if not len(starts):
        return []
    ends = starts + np.asarray(spans, dtype=np.int64)
    gap = starts[1:] - ends[:-1]
    at = np.flatnonzero(gap > gap_threshold)
    # (gap size, index where the new region starts), largest first;
    # keep only the largest max_regions-1 breaks.
    gaps = sorted(zip(gap[at].tolist(), (at + 1).tolist()), reverse=True)
    breaks = sorted(i for _, i in gaps[: max_regions - 1])
    regions: List[Tuple[int, int]] = []
    start_idx = 0
    for brk in breaks + [len(starts)]:
        first = int(starts[start_idx])
        regions.append((first, int(ends[brk - 1]) - first))
        start_idx = brk
    return regions
