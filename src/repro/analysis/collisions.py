"""Section 7.3 characterization: collision rates, collision resolution,
index sizes, and memory consumption.

The paper compares LVM's learned index against "a hash table that has a
load factor of 0.6 and uses the state-of-the-art hash function Blake2":
LVM averages 0.2% (4 KB) / 0.6% (THP) collisions versus 22% / 19% for
the hash table, resolves collisions in 2.36 extra accesses on average
(bounded by C_err = 3), and its gapped tables cost at most 1.3x the
minimal 8 B/translation (e.g. +12 MB for MUMmer vs. +27 MB for ECPT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.learned_index import LearnedIndex
from repro.kernel.process import Process
from repro.mem.allocator import BumpAllocator
from repro.pagetables.ecpt import ECPT
from repro.pagetables.hashed import HashedPageTable
from repro.pagetables.radix import RadixPageTable
from repro.sim.config import SimConfig
from repro.sim.simulator import TranslationStack
from repro.types import PTE_SIZE
from repro.workloads.registry import BuiltWorkload, build_workload


@dataclass
class CollisionRow:
    """One workload's collision comparison (section 7.3)."""

    workload: str
    thp: bool
    lvm_collision_rate: float
    hash_collision_rate: float
    lvm_avg_extra_accesses: float
    index_size_bytes: int
    index_peak_bytes: int


def build_lvm_for(workload: BuiltWorkload, thp: bool = False) -> LearnedIndex:
    """An LVM index populated with the workload's address space."""
    return TranslationStack("lvm", SimConfig(thp=thp), vmas=workload.vmas).page_table


def collision_study(
    workload_name: str,
    thp: bool = False,
    num_lookups: int = 50_000,
    scale: int = 64,
    seed: int = 0,
) -> CollisionRow:
    """Measure LVM vs. Blake2-hash-table collision rates for one
    workload, driving both with the workload's own access trace."""
    workload = build_workload(workload_name, scale=scale, seed=seed)
    index = build_lvm_for(workload, thp)
    peak = index.index_size_bytes
    hash_table = HashedPageTable(BumpAllocator(), max_load=0.6)
    Process(hash_table, thp=thp).mmap_all(workload.vmas)

    trace = workload.trace(num_lookups, seed + 1)
    vpns = (trace >> 12).astype(np.int64)
    for vpn in vpns.tolist():
        walk = index.walk(int(vpn))
        # The hash-table comparison measures the *hash function's* slot
        # collisions at load factor 0.6 (the paper's framing), so it is
        # queried with the entry's own key; the index handles the
        # huge-page round-down itself.
        key = walk.pte.vpn if walk.pte is not None else int(vpn)
        hash_table.walk(key)
    return CollisionRow(
        workload=workload_name,
        thp=thp,
        lvm_collision_rate=index.stats.collision_rate,
        hash_collision_rate=hash_table.collision_rate,
        lvm_avg_extra_accesses=index.stats.avg_extra_accesses_per_collision,
        index_size_bytes=index.index_size_bytes,
        index_peak_bytes=peak,
    )


@dataclass
class MemoryConsumptionRow:
    """Section 7.3 memory-consumption comparison for one workload."""

    workload: str
    mapped_pages: int
    minimum_bytes: int  # 8 B per translation entry
    lvm_overhead_bytes: int
    ecpt_overhead_bytes: int
    radix_overhead_bytes: int


def memory_consumption_study(
    workload_name: str, scale: int = 64, seed: int = 0
) -> MemoryConsumptionRow:
    """Page-table space overhead versus the 8 B/translation minimum."""
    workload = build_workload(workload_name, scale=scale, seed=seed)
    index = build_lvm_for(workload)
    minimum = index.num_mappings * PTE_SIZE
    lvm_bytes = index.table_bytes + index.index_size_bytes
    ecpt, radix = ECPT(BumpAllocator()), RadixPageTable(BumpAllocator())
    for table in (ecpt, radix):
        Process(table).mmap_all(workload.vmas)

    return MemoryConsumptionRow(
        workload=workload_name,
        mapped_pages=index.num_mappings,
        minimum_bytes=minimum,
        lvm_overhead_bytes=max(0, lvm_bytes - minimum),
        ecpt_overhead_bytes=max(0, ecpt.table_bytes - minimum),
        radix_overhead_bytes=max(0, radix.table_bytes - minimum),
    )


def index_size_table(
    workload_names: List[str],
    scale: int = 64,
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """Table 2: steady-state LVM index size in bytes, 4 KB and THP."""
    table: Dict[str, Dict[str, int]] = {}
    for name in workload_names:
        workload = build_workload(name, scale=scale, seed=seed)
        row = {}
        for label, thp in (("4KB", False), ("THP", True)):
            row[label] = build_lvm_for(workload, thp).index_size_bytes
        table[name] = row
    return table


def scaling_study(
    footprints_gb: Optional[List[int]] = None, scale: int = 64, seed: int = 0
) -> Dict[int, int]:
    """Section 7.3 scaling study: memcached from 32 GB to 240 GB; the
    steady-state index size should not grow with the footprint."""
    footprints = footprints_gb or [32, 64, 128, 240]
    sizes: Dict[int, int] = {}
    for gb in footprints:
        workload = build_workload(
            "mem$", scale=scale, seed=seed, footprint_override=gb << 30
        )
        sizes[gb] = build_lvm_for(workload, thp=False).index_size_bytes
    return sizes
