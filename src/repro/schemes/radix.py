"""The x86-64 radix baseline (4-level page table + PWC)."""

from __future__ import annotations

from repro.mmu.walker import RadixWalker
from repro.pagetables.radix import RadixPageTable
from repro.schemes.base import RadixWalkCacheStats, SchemeDescriptor
from repro.schemes.registry import register


class RadixScheme(RadixWalkCacheStats, SchemeDescriptor):
    name = "radix"
    description = "x86-64 4-level radix walk with a 3-level page-walk cache"
    aliases = ("x86", "4level")
    core = True
    supports_virtualization = True

    def make_page_table(self, sim):
        return RadixPageTable(sim.allocator)

    def make_walker(self, sim):
        return RadixWalker(sim.page_table, sim.hierarchy)

    def make_host_table(self, allocator, ptes):
        table = RadixPageTable(allocator)
        for pte in ptes:
            table.map(pte)
        return table


DESCRIPTOR = register(RadixScheme())
