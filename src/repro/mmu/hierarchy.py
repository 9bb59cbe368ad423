"""The L1/L2/L3 + DRAM memory hierarchy (Table 1).

``access`` (demand loads) and ``walk_access`` (page-walk loads) walk a
physical address down the levels, filling on the way back, and return
the load-to-use latency in cycles.  Page-table walkers connect at the
L2 by default (the paper's baseline); section 7.2's "Connecting PTW to
L1/L2 cache" study flips ``walker_entry``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError
from repro.mmu.cache import Cache
from repro.types import CACHE_LINE_SIZE


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
    walker_entry: str = "l2"  # where page-walk accesses enter ("l1", "l2" or "l3")
    # Next-line prefetch degree for demand (data) accesses.  Modern
    # cores hide most streaming misses behind stride prefetchers;
    # without this, streaming workloads (DC, PageRank sweeps, MUMmer
    # scans) would look memory-bound in a way real hardware is not.
    prefetch_degree: int = 2

    def validate(self) -> None:
        """Reject impossible cache geometries with a clear message."""
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
            if size % (ways * CACHE_LINE_SIZE):
                raise ConfigError(
                    f"{level.upper()} size {size} is not a whole number of "
                    f"sets ({ways} ways x {CACHE_LINE_SIZE} B lines)"
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
    """Three cache levels backed by fixed-latency DRAM.  The cores of a
    multicore run each build one around a shared ``l3``.

    :meth:`access` and :meth:`walk_access` run the whole chain inline
    over each level's containers, bound here once: every level must
    index its sets modulo their count by 64-byte line (the stock
    :class:`Cache` mapping), so an ``l3`` of another geometry or a
    subclass that overrides ``Cache._locate`` is refused, and the
    levels cannot be swapped afterwards."""

    def __init__(self, config: Optional[HierarchyConfig] = None, l3: Optional[Cache] = None):
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1 = Cache("L1D", c.l1_size, c.l1_ways, c.l1_latency)
        self.l2 = Cache("L2", c.l2_size, c.l2_ways, c.l2_latency)
        if l3 is None:
            l3 = Cache("L3", c.l3_size, c.l3_ways, c.l3_latency)
        elif type(l3)._locate is not Cache._locate or l3.line_size != CACHE_LINE_SIZE:
            raise ConfigError(
                f"L3 {l3.name!r} must map {CACHE_LINE_SIZE} B lines to sets "
                f"modulo the set count"
            )
        self.l3 = l3
        self.dram_accesses = 0
        # Hot-path constants: (cache, sets, num_sets, ways, latency) per
        # level, for demand accesses (from the L1) and for page-walk
        # accesses (from ``walker_entry``).
        levels = tuple(
            (cache, cache._sets, cache.num_sets, cache.ways, cache.latency)
            for cache in (self.l1, self.l2, self.l3)
        )
        self._levels = levels
        self._walk_levels = levels[("l1", "l2", "l3").index(c.walker_entry):]
        self._dram_latency = c.l3_latency + c.dram_latency
        self._prefetch_lines = tuple(range(1, c.prefetch_degree + 1))

    def access(self, paddr: int) -> int:
        """A demand access entering at the L1; returns its latency in
        cycles.  Each level fills on a miss (evicting its LRU line).
        A DRAM miss also prefetches the next ``prefetch_degree`` lines
        into every level, free of charge: they arrive before use in a
        stream, and for random traffic they add mild pollution, as on
        real hardware."""
        line = paddr >> 6
        levels = self._levels
        for cache, sets, num_sets, ways, latency in levels:
            index = line % num_sets
            tag = line // num_sets
            lines = sets.get(index)
            if lines is None:
                lines = sets[index] = {}
            elif tag in lines:
                cache.hits += 1
                del lines[tag]
                lines[tag] = None
                return latency
            cache.misses += 1
            if len(lines) >= ways:
                del lines[next(iter(lines))]
            lines[tag] = None
        self.dram_accesses += 1
        for step in self._prefetch_lines:
            target = line + step
            for _, sets, num_sets, ways, _ in levels:
                index = target % num_sets
                tag = target // num_sets
                lines = sets.get(index)
                if lines is None:
                    sets[index] = {tag: None}
                    continue
                if tag in lines:
                    del lines[tag]
                elif len(lines) >= ways:
                    del lines[next(iter(lines))]
                lines[tag] = None
        return self._dram_latency

    def walk_access(self, paddr: int) -> int:
        """A page-walk access, entering at ``walker_entry``: as
        :meth:`access`, but its misses also count as walk misses and
        it prefetches nothing."""
        line = paddr >> 6
        for cache, sets, num_sets, ways, latency in self._walk_levels:
            index = line % num_sets
            tag = line // num_sets
            lines = sets.get(index)
            if lines is None:
                lines = sets[index] = {}
            elif tag in lines:
                cache.hits += 1
                del lines[tag]
                lines[tag] = None
                return latency
            cache.misses += 1
            cache.walk_misses += 1
            if len(lines) >= ways:
                del lines[next(iter(lines))]
            lines[tag] = None
        self.dram_accesses += 1
        return self._dram_latency
