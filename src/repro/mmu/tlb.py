"""TLB models (Table 1): split L1 TLBs per page size, unified-by-size
L2 TLB, all set-associative with LRU and ASID tags.

Hardware does not know a VA's page size before translation, so lookups
probe the structures for every supported size (each size indexes with
its own VPN granularity) — exactly what x86 L1/L2 TLBs do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.types import BASE_PAGE_SHIFT, PTE, PageSize


class TLBArray:
    """One set-associative TLB array for a single page size."""

    def __init__(self, name: str, entries: int, ways: int, page_size: PageSize):
        if entries < ways:
            raise ValueError(f"{name}: need at least one set")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.page_size = page_size
        # Table 1's 2048-entry 12-way geometry is not an exact multiple;
        # round the set count up as hardware's sectoring effectively does.
        self.num_sets = -(-entries // ways)
        # Hot-path constant: base pages per entry of this array's size.
        self._page_span = page_size.pages_4k
        self._sets: Dict[int, Dict[Tuple[int, int], PTE]] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, vpn: int, asid: int) -> Tuple[int, Tuple[int, int]]:
        page_vpn = vpn // self._page_span
        return page_vpn % self.num_sets, (asid, page_vpn)

    def lookup(self, vpn: int, asid: int) -> Optional[PTE]:
        # ``_key`` inlined: this is probed up to four times per
        # TLB-missing reference (two sizes, two levels).
        page_vpn = vpn // self._page_span
        tlb_set = self._sets.get(page_vpn % self.num_sets)
        if tlb_set is not None:
            key = (asid, page_vpn)
            pte = tlb_set.get(key)
            if pte is not None:
                del tlb_set[key]
                tlb_set[key] = pte  # move to MRU
                self.hits += 1
                return pte
        self.misses += 1
        return None

    def insert(self, pte: PTE, asid: int) -> None:
        page_vpn = pte.vpn // self._page_span
        key = (asid, page_vpn)
        tlb_set = self._sets.setdefault(page_vpn % self.num_sets, {})
        if key in tlb_set:
            del tlb_set[key]
        elif len(tlb_set) >= self.ways:
            del tlb_set[next(iter(tlb_set))]  # evict LRU
        tlb_set[key] = pte

    def invalidate(self, vpn: int, asid: int) -> None:
        set_idx, key = self._key(vpn, asid)
        tlb_set = self._sets.get(set_idx)
        if tlb_set is not None:
            tlb_set.pop(key, None)

    def flush_asid(self, asid: int) -> None:
        for tlb_set in self._sets.values():
            for key in [k for k in tlb_set if k[0] == asid]:
                del tlb_set[key]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class TLBConfig:
    """Table 1 TLB geometry."""

    l1_4k_entries: int = 64
    l1_4k_ways: int = 4
    l1_2m_entries: int = 32
    l1_2m_ways: int = 4
    l2_entries_per_size: int = 2048
    l2_ways: int = 12
    l2_latency: int = 7  # cycles to deliver a hit from the L2 TLB

    def validate(self) -> None:
        """Reject impossible TLB geometries with a clear message."""
        from repro.errors import ConfigError

        for entries_name, ways_name in (
            ("l1_4k_entries", "l1_4k_ways"),
            ("l1_2m_entries", "l1_2m_ways"),
            ("l2_entries_per_size", "l2_ways"),
        ):
            entries = getattr(self, entries_name)
            ways = getattr(self, ways_name)
            if entries <= 0:
                raise ConfigError(
                    f"{entries_name} must be positive, got {entries!r}"
                )
            if ways <= 0:
                raise ConfigError(f"{ways_name} must be positive, got {ways!r}")
            if entries < ways:
                raise ConfigError(
                    f"{entries_name}={entries} needs at least one set "
                    f"({ways_name}={ways})"
                )
        if self.l2_latency < 1:
            # ``MMU.translate`` tells an L1 hit by its latency of 0.
            raise ConfigError(
                f"l2_latency must be at least 1 cycle, got {self.l2_latency!r}"
            )

    @staticmethod
    def scaled(factor: int) -> "TLBConfig":
        """Entry counts divided by ``factor`` (latency unchanged).

        Companion of :meth:`HierarchyConfig.scaled`: with footprints
        scaled down, full-size TLBs would cover an unrealistically
        large fraction of the address space (under THP they would
        cover *all* of it, hiding every page walk the paper studies).
        Scaling reach preserves the paper's miss-rate regime.
        """
        base = TLBConfig()
        # ``replace`` keeps every field not named here (latency,
        # anything added later) at the base value.
        return replace(
            base,
            l1_4k_entries=max(8, base.l1_4k_entries // factor),
            l1_4k_ways=4,
            l1_2m_entries=max(4, base.l1_2m_entries // factor),
            l1_2m_ways=2,
            l2_entries_per_size=max(32, base.l2_entries_per_size // factor),
        )


class TLBHierarchy:
    """L1 (split by size) + L2 TLBs probed per supported page size."""

    def __init__(self, config: Optional[TLBConfig] = None):
        c = config or TLBConfig()
        c.validate()
        self.config = c
        self.l1 = {
            PageSize.SIZE_4K: TLBArray(
                "L1-4K", c.l1_4k_entries, c.l1_4k_ways, PageSize.SIZE_4K
            ),
            PageSize.SIZE_2M: TLBArray(
                "L1-2M", c.l1_2m_entries, c.l1_2m_ways, PageSize.SIZE_2M
            ),
        }
        self.l2 = {
            size: TLBArray(
                f"L2-{size.name}", c.l2_entries_per_size, c.l2_ways, size
            )
            for size in (PageSize.SIZE_4K, PageSize.SIZE_2M)
        }
        # 1 GB pages share the 2 MB arrays in this model (x86 parts
        # vary; Table 1 lists no separate 1 GB TLB).
        # Hot-path constants: each array's (array, sets, num_sets,
        # ways, base pages per entry); the probe order (L1 then L2, 4K
        # first), each with whether it is an L2 array; and per page
        # size, the (L1, L2) arrays an entry of that size fills and the
        # L1 array alone, which an L2 hit refills.
        def bound(arr: TLBArray):
            return (arr, arr._sets, arr.num_sets, arr.ways, arr._page_span)

        self._probes = tuple(
            (*bound(arr), in_l2)
            for in_l2, level in ((False, self.l1), (True, self.l2))
            for arr in level.values()
        )
        self._fills = {
            size: (bound(self.l1[held]), bound(self.l2[held]))
            for size, held in (
                (PageSize.SIZE_4K, PageSize.SIZE_4K),
                (PageSize.SIZE_2M, PageSize.SIZE_2M),
                (PageSize.SIZE_1G, PageSize.SIZE_2M),
            )
        }
        self._refills = {size: arrays[:1] for size, arrays in self._fills.items()}
        self._l2_latency = c.l2_latency

    def lookup(self, vpn: int, asid: int) -> Tuple[Optional[PTE], int]:
        """Probe L1 then L2 for all sizes; returns (pte, latency).

        Each probe counts a hit (moving the entry to MRU) or a miss on
        its array, as :meth:`TLBArray.lookup` does; a hit on an entry
        that does not cover ``vpn`` is passed over.  An L2 hit also
        fills the L1 array of the entry's size."""
        for arr, sets, num_sets, _, span, in_l2 in self._probes:
            page_vpn = vpn // span
            entries = sets.get(page_vpn % num_sets)
            if entries is not None:
                key = (asid, page_vpn)
                pte = entries.get(key)
                if pte is not None:
                    del entries[key]
                    entries[key] = pte
                    arr.hits += 1
                    base = pte.vpn
                    if base <= vpn < base + (pte.page_size >> BASE_PAGE_SHIFT):
                        if in_l2:
                            break
                        return pte, 0
                    continue
            arr.misses += 1
        else:
            return None, self._l2_latency
        self._fill(self._refills[pte.page_size], pte, asid)
        return pte, self._l2_latency

    def insert(self, pte: PTE, asid: int) -> None:
        """Fill ``pte`` into the L1 and L2 arrays of its size."""
        self._fill(self._fills[pte.page_size], pte, asid)

    @staticmethod
    def _fill(arrays, pte: PTE, asid: int) -> None:
        """:meth:`TLBArray.insert` on each of ``arrays``: the entry
        moves to MRU, or takes the place of its set's LRU entry when
        the set is full."""
        base = pte.vpn
        for _, sets, num_sets, ways, span in arrays:
            page_vpn = base // span
            key = (asid, page_vpn)
            entries = sets.get(page_vpn % num_sets)
            if entries is None:
                sets[page_vpn % num_sets] = {key: pte}
                continue
            if key in entries:
                del entries[key]
            elif len(entries) >= ways:
                del entries[next(iter(entries))]
            entries[key] = pte

    def invalidate(self, vpn: int, asid: int) -> None:
        for arr in (*self.l1.values(), *self.l2.values()):
            arr.invalidate(vpn, asid)

    def flush_asid(self, asid: int) -> None:
        for arr in (*self.l1.values(), *self.l2.values()):
            arr.flush_asid(asid)
