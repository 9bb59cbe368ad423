"""Elastic cuckoo page tables (ECPT) with the cuckoo walk cache."""

from __future__ import annotations

from repro.mmu.walker import ECPTWalker
from repro.pagetables.ecpt import DEFAULT_INITIAL_SIZE, ECPT
from repro.schemes.base import SchemeDescriptor
from repro.schemes.registry import register


class ECPTScheme(SchemeDescriptor):
    name = "ecpt"
    description = "elastic cuckoo page tables, parallel probes + cuckoo walk cache"
    aliases = ("cuckoo",)
    core = True
    walk_cache_kind = "cwc"

    @staticmethod
    def initial_size_for_scale(footprint_scale: int) -> int:
        """Initial table size scaled with the workload footprint.

        Table 1's 16384 entries correspond to full-size workloads;
        scaled-down footprints shrink the initial tables by the same
        factor (floored so the cuckoo ways stay functional).  This is
        *the* single definition of ECPT footprint sizing — the
        simulator and any host-mapping construction both come here.
        """
        return max(256, DEFAULT_INITIAL_SIZE // footprint_scale)

    def make_page_table(self, sim):
        initial = self.initial_size_for_scale(sim.config.footprint_scale)
        return ECPT(sim.allocator, initial_size=initial)

    def make_walker(self, sim):
        return ECPTWalker(sim.page_table, sim.hierarchy)

    def fill_walk_cache_stats(self, sim, result):
        cwc = sim.walker.cwc
        result.walk_cache_hit_rate = cwc.hit_rate
        result.walk_cache_detail = {
            "pmd": cwc.pmd.hit_rate,
            "pud": cwc.pud.hit_rate,
        }


DESCRIPTOR = register(ECPTScheme())
