"""Flattened page tables (section 7.5.1 comparison point)."""

from __future__ import annotations

from repro.mmu.walker import FPTWalker
from repro.pagetables.fpt import FlattenedPageTable
from repro.schemes.base import RadixWalkCacheStats, SchemeDescriptor
from repro.schemes.registry import register


class FPTScheme(RadixWalkCacheStats, SchemeDescriptor):
    name = "fpt"
    description = "flattened page tables: folded levels, radix-style walk cache"
    aliases = ("flattened",)

    def make_page_table(self, sim):
        return FlattenedPageTable(sim.allocator)

    def make_walker(self, sim):
        return FPTWalker(sim.page_table, sim.hierarchy)


DESCRIPTOR = register(FPTScheme())
