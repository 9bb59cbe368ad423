"""Simulation configuration (Table 1 plus the core timing model).

The architectural parameters mirror Table 1 of the paper.  The core
model is deliberately simple — a 4-issue out-of-order core at 2 GHz is
reduced to a base CPI plus partially-overlapped memory stalls — because
the quantities the paper reports (MMU overhead, walk traffic, MPKI,
relative speedups) come from the cache/TLB/walker models, not from a
pipeline model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.mmu.hierarchy import HierarchyConfig
from repro.mmu.tlb import TLBConfig
from repro.schemes import registry as scheme_registry

#: The paper's headline comparison set and the full built-in set, both
#: derived from the scheme registry (one place defines a scheme).
#: Captured at import time — after the built-ins have registered — so
#: they remain the stable tuples tests and sweeps rely on.
SCHEMES = scheme_registry.core_schemes()
EXTENDED_SCHEMES = scheme_registry.available()


@dataclass
class CoreModel:
    """Reduced core timing model."""

    frequency_ghz: float = 2.0
    base_cpi: float = 0.35  # 4-issue OoO on non-stalled work
    # Fraction of data-access stall cycles the OoO window fails to hide.
    data_stall_exposure: float = 0.35
    # Page walks serialize the load that triggered them; most of their
    # latency is exposed.
    walk_stall_exposure: float = 0.85

    def cycles(
        self, instructions: int, data_stall: int, mmu_cycles: int, mgmt_cycles: float = 0.0
    ) -> float:
        """One core's execution cycles: base CPI over its instructions,
        the exposed share of its data and translation stalls, and any
        OS management work charged to it."""
        return (
            instructions * self.base_cpi
            + data_stall * self.data_stall_exposure
            + mmu_cycles * self.walk_stall_exposure
            + mgmt_cycles
        )

    def validate(self) -> None:
        if self.frequency_ghz <= 0:
            raise ConfigError(
                f"core frequency must be positive, got {self.frequency_ghz!r}"
            )
        if self.base_cpi <= 0:
            raise ConfigError(f"base CPI must be positive, got {self.base_cpi!r}")
        for name in ("data_stall_exposure", "walk_stall_exposure"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(
                    f"{name}={value!r} must be a fraction within [0, 1]"
                )


@dataclass
class LVMCostModel:
    """Cycle charges for LVM's OS management work (section 7.3).

    Derived from the paper's measured retrain cost (< 1.7 ms for
    multi-million-page address spaces, i.e. ~a cycle per key) and the
    observed ~1% total management overhead.
    """

    build_cycles_per_key: float = 1.5
    insert_cycles: float = 60.0
    rescale_cycles: float = 1500.0
    local_retrain_cycles: float = 4000.0
    rebuild_cycles_per_key: float = 1.5

    def validate(self) -> None:
        for name in (
            "build_cycles_per_key",
            "insert_cycles",
            "rescale_cycles",
            "local_retrain_cycles",
            "rebuild_cycles_per_key",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(
                    f"LVM cost {name}={value!r} cannot be negative"
                )


#: Cache-capacity scaling used by default: workload footprints are
#: divided by FOOTPRINT_SCALE (64), so cache capacities shrink by the
#: same factor to preserve the paper's footprint-to-cache pressure —
#: without this, page-directory-level entries become unrealistically
#: cache-resident and the radix baseline looks better than it is at
#: datacenter scale.  Latencies and line sizes stay at Table 1 values.
CACHE_PRESSURE_SCALE = 64

#: TLB reach scaling: milder than the cache factor (TLB reach matters
#: linearly, and the 4 KB miss-rate regime is already saturated), but
#: necessary so the 2 MB TLB cannot cover an entire scaled footprint
#: under THP — which would hide every page walk the paper studies.
TLB_PRESSURE_SCALE = 16


@dataclass
class SimConfig:
    """Everything one simulation run needs."""

    hierarchy: HierarchyConfig = field(
        default_factory=lambda: HierarchyConfig.scaled(CACHE_PRESSURE_SCALE)
    )
    tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig.scaled(TLB_PRESSURE_SCALE)
    )
    core: CoreModel = field(default_factory=CoreModel)
    lvm_costs: LVMCostModel = field(default_factory=LVMCostModel)
    num_refs: int = 200_000
    trace_seed: int = 1
    thp: bool = False
    thp_coverage: float = 0.9
    footprint_scale: int = 64
    workload_seed: int = 0
    # Physical memory for buddy-backed runs; None = unfragmented bump
    # allocator (the common, lightly fragmented datacenter case).
    phys_mem_bytes: Optional[int] = None
    asap_prefetch_success: float = 1.0
    # Fault-injection plan; None (or an all-zero plan) leaves every
    # run bit-identical to a build without the injector.
    faults: Optional[FaultPlan] = None
    # Cross-check every translation against the OS's authoritative
    # records (chaos-harness mode; costs a software lookup per ref).
    verify_translations: bool = False
    # --- trace pipeline knobs (never change results, only speed; both
    # are excluded from the journal's config fingerprint) -------------
    # Content-addressed on-disk trace cache
    # (repro/workloads/trace_cache.py); workers memmap cached entries
    # instead of re-synthesizing traces.  ``--no-trace-cache`` or
    # REPRO_TRACE_CACHE=0 clears it.
    use_trace_cache: bool = True
    # Cache directory override; None = $REPRO_CACHE_DIR or
    # ~/.cache/repro/traces.
    trace_cache_dir: Optional[str] = None

    def validate(self) -> None:
        """Reject impossible configurations with a clear message.

        Raises :class:`~repro.errors.ConfigError` (a ``ValueError``
        subclass) so pre-existing callers that caught ValueError keep
        working.
        """
        if self.num_refs <= 0:
            raise ConfigError(f"num_refs must be positive, got {self.num_refs!r}")
        if self.footprint_scale < 1:
            raise ConfigError(
                f"footprint_scale must be >= 1, got {self.footprint_scale!r}"
            )
        if not (0.0 <= self.thp_coverage <= 1.0):
            raise ConfigError(
                f"thp_coverage={self.thp_coverage!r} must be within [0, 1]"
            )
        if not (0.0 <= self.asap_prefetch_success <= 1.0):
            raise ConfigError(
                "asap_prefetch_success="
                f"{self.asap_prefetch_success!r} must be within [0, 1]"
            )
        if self.phys_mem_bytes is not None and self.phys_mem_bytes <= 0:
            raise ConfigError(
                f"phys_mem_bytes must be positive, got {self.phys_mem_bytes!r}"
            )
        self.hierarchy.validate()
        self.tlb.validate()
        self.core.validate()
        self.lvm_costs.validate()
        if self.faults is not None:
            self.faults.validate()

    def clone(self, **overrides) -> "SimConfig":
        import copy

        cfg = copy.deepcopy(self)
        for key, value in overrides.items():
            if not hasattr(cfg, key):
                raise AttributeError(f"SimConfig has no field {key!r}")
            setattr(cfg, key, value)
        return cfg


def table1_rows() -> List[tuple]:
    """Render Table 1 (architectural parameters) as (name, value)."""
    h = HierarchyConfig()
    t = TLBConfig()
    return [
        ("Core", "4-issue out-of-order cores at 2GHz"),
        (
            "L1-I and L1-D cache",
            f"{h.l1_size >> 10}KB each, {h.l1_ways}-way, {h.l1_latency} cycle RT",
        ),
        ("L2 cache", f"{h.l2_size >> 20}MB, {h.l2_ways}-way, {h.l2_latency} cycles RT"),
        ("L3 cache", f"{h.l3_size >> 20}MB per core, {h.l3_ways}-way, {h.l3_latency} cycles RT"),
        ("L1 DTLB/ITLB (4KB pages)", f"{t.l1_4k_entries} entries, {t.l1_4k_ways}-way"),
        ("L1 DTLB/ITLB (2MB pages)", f"{t.l1_2m_entries} entries, {t.l1_2m_ways}-way"),
        ("L2 TLB (4KB pages)", f"{t.l2_entries_per_size} entries, {t.l2_ways}-way"),
        ("L2 TLB (2MB pages)", f"{t.l2_entries_per_size} entries, {t.l2_ways}-way"),
        ("Radix Page Walk Cache", "3 levels, 32 entries per level, 2 cycles"),
        ("LVM Page Walk Cache", "16 entries, 2 cycles"),
        ("Cuckoo Walk Cache", "PMD: 16 entries. PUD: 2 entries. 2 cycles"),
        ("Cuckoo Page Tables", "3 ways. 16384 entry initial size."),
        ("Main Memory", "DDR4 3200MT/s-class latency"),
        ("OS", "modelled Linux-like kernel layer"),
    ]
