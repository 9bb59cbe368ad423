"""ASAP: radix translation with leaf-entry prefetching (section 7.5.1)."""

from __future__ import annotations

from repro.mmu.walker import ASAPWalker
from repro.pagetables.radix import RadixPageTable
from repro.schemes.base import RadixWalkCacheStats, SchemeDescriptor
from repro.schemes.registry import register


class ASAPScheme(RadixWalkCacheStats, SchemeDescriptor):
    name = "asap"
    description = "radix walk plus direct leaf/PDE prefetching (extra traffic)"

    def make_page_table(self, sim):
        return RadixPageTable(sim.allocator)

    def make_walker(self, sim):
        return ASAPWalker(
            sim.page_table,
            sim.hierarchy,
            prefetch_success_rate=sim.config.asap_prefetch_success,
        )


DESCRIPTOR = register(ASAPScheme())
