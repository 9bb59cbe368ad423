"""Midgard: virtually-indexed cache hierarchy (section 7.5.2)."""

from __future__ import annotations

from repro.mmu.walker import RadixWalker
from repro.pagetables.radix import RadixPageTable
from repro.schemes.base import RadixWalkCacheStats, SchemeDescriptor
from repro.schemes.registry import register


class MidgardScheme(RadixWalkCacheStats, SchemeDescriptor):
    name = "midgard"
    description = (
        "virtually-indexed caches; only LLC misses walk the (radix) table"
    )

    def make_page_table(self, sim):
        return RadixPageTable(sim.allocator)

    def make_walker(self, sim):
        return RadixWalker(sim.page_table, sim.hierarchy)

    def run_trace(self, sim, trace):
        # Cache hits need no translation at all; the TLB fast path is
        # bypassed and only DRAM-bound references reach the walker.
        return sim.run_virtual_hierarchy(trace.vas)


DESCRIPTOR = register(MidgardScheme())
