"""The single-access oracle (upper bound of Figures 9-12)."""

from __future__ import annotations

from repro.mmu.walker import IdealWalker
from repro.pagetables.ideal import IdealPageTable
from repro.schemes.base import SchemeDescriptor
from repro.schemes.registry import register


class IdealScheme(SchemeDescriptor):
    name = "ideal"
    description = "oracle translation: exactly one memory access per walk"
    aliases = ("oracle",)
    core = True

    def make_page_table(self, sim):
        return IdealPageTable(sim.allocator)

    def make_walker(self, sim):
        return IdealWalker(sim.page_table, sim.hierarchy)


DESCRIPTOR = register(IdealScheme())
