"""Learned virtual memory (LVM) — the paper's contribution."""

from __future__ import annotations

from repro.core.learned_index import LearnedIndex
from repro.mmu.walker import LVMWalker
from repro.schemes.base import SchemeDescriptor
from repro.schemes.registry import register


class LVMScheme(SchemeDescriptor):
    name = "lvm"
    description = "learned index over gapped page tables with the LVM walk cache"
    aliases = ("learned",)
    core = True
    supports_virtualization = True
    walk_cache_kind = "lwc"
    # Injected allocation failures target the LVM structures (gapped
    # tables, model arrays), which own the retry-with-backoff defense.
    wraps_allocator_under_faults = True

    def make_page_table(self, sim):
        return LearnedIndex(sim.allocator, sim.lvm_config)

    def make_walker(self, sim):
        return LVMWalker(sim.page_table, sim.hierarchy)

    def mgmt_cycles(self, sim):
        """Section 7.3's OS management charges, from the index's own
        operation counters and the configured per-operation costs."""
        stats = sim.page_table.stats
        costs = sim.config.lvm_costs
        keys = sim.page_table.num_mappings
        detail = {
            "inserts": costs.insert_cycles * stats.inserts,
            "rescales": costs.rescale_cycles * stats.rescales,
            "local_retrains": costs.local_retrain_cycles * stats.local_retrains,
            "rebuilds": costs.rebuild_cycles_per_key * keys * stats.full_rebuilds,
        }
        charged = sum(detail.values())
        # The initial build happens during process start-up, before the
        # region of interest (the paper's 1B-instruction window starts
        # after initialization); report it but do not charge it.
        detail["initial_build_uncharged"] = costs.build_cycles_per_key * keys
        return charged, detail

    def fill_walk_cache_stats(self, sim, result):
        result.walk_cache_hit_rate = sim.walker.lwc.hit_rate
        result.walk_cache_detail = {"lwc": sim.walker.lwc.hit_rate}

    def fill_scheme_stats(self, sim, result):
        index = sim.page_table
        result.index_size_bytes = index.index_size_bytes
        result.index_depth = index.depth
        result.collision_rate = index.stats.collision_rate
        result.avg_extra_accesses = index.stats.avg_extra_accesses_per_collision

    def make_host_table(self, allocator, ptes):
        index = LearnedIndex(allocator)
        index.bulk_build(ptes)
        return index


DESCRIPTOR = register(LVMScheme())
