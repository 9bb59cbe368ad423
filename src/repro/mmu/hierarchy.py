"""The L1/L2/L3 + DRAM memory hierarchy (Table 1).

``access`` walks a physical address down the levels, filling on the way
back, and returns the load-to-use latency in cycles.  Page-table
walkers connect at the L2 by default (the paper's baseline); section
7.2's "Connecting PTW to L1/L2 cache" study flips ``walker_entry``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.mmu.cache import Cache


@dataclass
class HierarchyConfig:
    """Cache geometry and latencies; defaults mirror Table 1."""

    l1_size: int = 32 << 10
    l1_ways: int = 8
    l1_latency: int = 1
    l2_size: int = 1 << 20
    l2_ways: int = 8
    l2_latency: int = 20
    l3_size: int = 2 << 20
    l3_ways: int = 16
    l3_latency: int = 56
    dram_latency: int = 160  # DDR4-3200-class load latency at 2 GHz
    walker_entry: str = "l2"  # where page-walk accesses enter ("l1"/"l2")
    # Next-line prefetch degree for demand (data) accesses.  Modern
    # cores hide most streaming misses behind stride prefetchers;
    # without this, streaming workloads (DC, PageRank sweeps, MUMmer
    # scans) would look memory-bound in a way real hardware is not.
    prefetch_degree: int = 2

    def validate(self) -> None:
        """Reject impossible cache geometries with a clear message."""
        from repro.errors import ConfigError

        for level in ("l1", "l2", "l3"):
            size = getattr(self, f"{level}_size")
            ways = getattr(self, f"{level}_ways")
            latency = getattr(self, f"{level}_latency")
            if size <= 0:
                raise ConfigError(
                    f"{level.upper()} cache size must be positive, got {size!r}"
                )
            if ways <= 0:
                raise ConfigError(
                    f"{level.upper()} associativity must be positive, got {ways!r}"
                )
            if size < ways * 64:
                raise ConfigError(
                    f"{level.upper()} size {size} cannot hold one 64 B line "
                    f"per way ({ways} ways)"
                )
            if latency < 0:
                raise ConfigError(
                    f"{level.upper()} latency cannot be negative, got {latency!r}"
                )
        if self.dram_latency <= 0:
            raise ConfigError(
                f"DRAM latency must be positive, got {self.dram_latency!r}"
            )
        if self.walker_entry not in ("l1", "l2", "l3"):
            raise ConfigError(
                f"walker_entry must be 'l1', 'l2' or 'l3', got {self.walker_entry!r}"
            )
        if self.prefetch_degree < 0:
            raise ConfigError(
                f"prefetch_degree cannot be negative, got {self.prefetch_degree!r}"
            )

    @staticmethod
    def scaled(factor: int) -> "HierarchyConfig":
        """Capacities divided by ``factor`` (latencies unchanged).

        The simulations scale workload footprints down by
        ``FOOTPRINT_SCALE`` to fit one machine; shrinking cache
        capacities by a related factor preserves the paper's
        footprint-to-cache *pressure* ratio, which is what determines
        where page-table entries and upper-level nodes actually hit.
        """
        base = HierarchyConfig()

        def shrink(size: int, ways: int) -> int:
            return max(ways * 64 * 4, size // factor)

        # ``replace`` keeps every non-size field (latencies,
        # walker_entry, prefetch_degree, anything added later) at the
        # base value instead of silently re-defaulting it.
        return replace(
            base,
            l1_size=shrink(base.l1_size, base.l1_ways),
            l2_size=shrink(base.l2_size, base.l2_ways),
            l3_size=shrink(base.l3_size, base.l3_ways),
        )


class MemoryHierarchy:
    """Three cache levels backed by fixed-latency DRAM."""

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1 = Cache("L1D", c.l1_size, c.l1_ways, c.l1_latency)
        self.l2 = Cache("L2", c.l2_size, c.l2_ways, c.l2_latency)
        self.l3 = Cache("L3", c.l3_size, c.l3_ways, c.l3_latency)
        self.dram_accesses = 0
        # Hot-path constants: the lookup chains per entry point (built
        # once, not per access) and the flat DRAM miss latency.
        self._chains = {
            "l1": (self.l1, self.l2, self.l3),
            "l2": (self.l2, self.l3),
            "l3": (self.l3,),
        }
        self._dram_latency = c.l3_latency + c.dram_latency
        self._do_prefetch = c.prefetch_degree > 0
        self._walker_entry = c.walker_entry

    def access(self, paddr: int, entry: str = "l1", is_walk: bool = False) -> int:
        """Access a physical address; returns latency in cycles."""
        try:
            chain = self._chains[entry]
        except KeyError:
            raise ValueError(f"unknown entry level {entry!r}") from None
        for cache in chain:
            if cache.access(paddr, is_walk):
                return cache.latency
        self.dram_accesses += 1
        if not is_walk and self._do_prefetch and entry == "l1":
            self._prefetch(paddr)
        return self._dram_latency

    def access_info(
        self, paddr: int, entry: str = "l1", is_walk: bool = False
    ) -> "tuple[int, str]":
        """Access a physical address; returns (latency, level hit)."""
        try:
            chain = self._chains[entry]
        except KeyError:
            raise ValueError(f"unknown entry level {entry!r}") from None
        for cache in chain:
            if cache.access(paddr, is_walk):
                return cache.latency, cache.name
        self.dram_accesses += 1
        if not is_walk and self._do_prefetch and entry == "l1":
            self._prefetch(paddr)
        return self._dram_latency, "DRAM"

    def _prefetch(self, paddr: int) -> None:
        """Next-line prefetch on a demand miss: fill the following
        lines without charging latency (they arrive before use in a
        stream; useless fills for random traffic just add mild
        pollution, as on real hardware)."""
        line = paddr - (paddr % 64)
        l1, l2, l3 = self._chains["l1"]
        for step in range(1, self.config.prefetch_degree + 1):
            target = line + step * 64
            l1.fill(target)
            l2.fill(target)
            l3.fill(target)

    def walk_access(self, paddr: int) -> int:
        """A page-walk access, entering at the configured level."""
        return self.access(paddr, self._walker_entry, True)

    def llc_would_hit(self, paddr: int) -> bool:
        """Non-destructive LLC presence check (used by the Midgard
        model, which translates only when the LLC misses)."""
        return (
            self.l1.contains(paddr)
            or self.l2.contains(paddr)
            or self.l3.contains(paddr)
        )

    def reset_stats(self) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.reset_stats()
        self.dram_accesses = 0
