"""Unit tests for the fault-injection subsystem and its defenses.

Each fault class has a detection + recovery path; these tests exercise
the pieces in isolation (the end-to-end chaos runs live in
``test_faults_chaos.py``).
"""

import random

import pytest

from repro.core import LearnedIndex
from repro.errors import (
    ConfigError,
    DoubleMappedFrameError,
    DuplicateMappingError,
    FaultInjectionError,
    IndexInconsistencyError,
    OutOfPhysicalMemory,
    OverlappingVMAError,
    ReproError,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultyAllocator
from repro.kernel.invariants import (
    check_no_double_mapped_frames,
    check_no_overlapping_vmas,
    check_process_invariants,
    reconcile_stale_mappings,
)
from repro.kernel.process import Process
from repro.kernel.vma import VMA, AddressSpace
from repro.mem import BumpAllocator
from repro.mmu.walk_cache import CWC, LWC, RadixPWC
from repro.schemes import registry as scheme_registry
from repro.sim.simulator import TranslationStack
from repro.types import PTE, PageSize


def dense_ptes(base, count, ppn0=0):
    return [PTE(vpn=base + i, ppn=ppn0 + i) for i in range(count)]


def build_index(ptes, allocator=None, config=None):
    idx = LearnedIndex(allocator or BumpAllocator(), config)
    idx.bulk_build(ptes)
    return idx


class TestFaultPlan:
    def test_default_disabled(self):
        assert not FaultPlan().enabled

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_single_enables_one_class(self, kind):
        plan = FaultPlan.single(kind, rate=0.5, seed=9)
        assert plan.enabled
        assert plan.seed == 9

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(pte_bitflip_rate=1.5).validate()
        with pytest.raises(FaultInjectionError):
            FaultPlan(alloc_fail_rate=-0.1).validate()

    def test_bad_seed_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(seed="zero").validate()

    def test_fault_error_is_config_error(self):
        # CLI maps ConfigError to exit code 2; plan mistakes qualify.
        assert issubclass(FaultInjectionError, ConfigError)
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)

    def test_to_dict_round_trip(self):
        plan = FaultPlan.single(FaultKind.MODEL_PERTURB, rate=0.25, seed=4)
        assert FaultPlan(**plan.to_dict()) == plan


class TestConfigValidation:
    """Satellite: bad configurations die early with clear messages."""

    def test_bad_num_refs(self):
        from repro.sim import SimConfig

        with pytest.raises(ConfigError, match="num_refs"):
            SimConfig(num_refs=0).validate()

    def test_bad_cache_geometry(self):
        from repro.mmu.hierarchy import HierarchyConfig

        with pytest.raises(ConfigError, match="L2"):
            HierarchyConfig(l2_size=-1).validate()
        with pytest.raises(ConfigError, match="walker_entry"):
            HierarchyConfig(walker_entry="l9").validate()

    def test_cache_size_must_be_whole_sets(self):
        """A size that is not a multiple of ways x 64 B is refused by
        ``validate``, before the stack's ``Cache`` would refuse it with
        a bare ``ValueError``."""
        from repro.mmu.hierarchy import HierarchyConfig, MemoryHierarchy
        from repro.sim import SimConfig

        for bad in (HierarchyConfig(l2_size=1_000_000),
                    HierarchyConfig(l1_size=32 * 1024 + 64),
                    HierarchyConfig(l3_size=2 << 20, l3_ways=12)):
            with pytest.raises(ConfigError, match="whole number of sets"):
                bad.validate()
            with pytest.raises(ConfigError):
                SimConfig(hierarchy=bad).validate()
        good = HierarchyConfig(l3_size=3 << 20, l3_ways=12)
        good.validate()
        assert MemoryHierarchy(good).l3.num_sets == 4096

    def test_bad_tlb_geometry(self):
        from repro.mmu.tlb import TLBConfig

        with pytest.raises(ConfigError, match="l1_4k_entries"):
            TLBConfig(l1_4k_entries=0).validate()
        with pytest.raises(ConfigError, match="at least one set"):
            TLBConfig(l2_entries_per_size=4, l2_ways=12).validate()

    def test_q44_20_error_bound_rejected(self):
        from repro.core import LVMConfig
        from repro.core.fixed_point import MAX_INT

        with pytest.raises(ConfigError, match="Q44.20"):
            LVMConfig(spline_max_error=MAX_INT + 1).validate()

    def test_bad_plan_rejected_at_sim_config(self):
        from repro.sim import SimConfig

        cfg = SimConfig(num_refs=100, faults=FaultPlan(pte_bitflip_rate=2.0))
        with pytest.raises(FaultInjectionError):
            cfg.validate()

    def test_simulator_rejects_bad_config_before_running(self):
        from repro.sim import SimConfig, Simulator
        from repro.workloads import build_workload

        with pytest.raises(ConfigError):
            Simulator("lvm", build_workload("gups"), SimConfig(num_refs=-1))


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=11, kernel_event_drop_rate=0.3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.drop_kernel_event() for _ in range(200)]
        seq_b = [b.drop_kernel_event() for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        assert a.counts["kernel_event_drop"] == sum(seq_a)
        assert a.total_injected == sum(seq_a)

    def test_sites_are_independent_streams(self):
        # Draining one site must not shift another site's stream.
        plan = FaultPlan(
            seed=1, kernel_event_drop_rate=0.5, kernel_event_dup_rate=0.5
        )
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for _ in range(100):
            a.drop_kernel_event()
        dups_a = [a.duplicate_kernel_event() for _ in range(100)]
        dups_b = [b.duplicate_kernel_event() for _ in range(100)]
        assert dups_a == dups_b

    def test_zero_rate_never_fires(self):
        inj = FaultInjector(FaultPlan(seed=5))
        assert not any(inj.drop_kernel_event() for _ in range(100))
        assert inj.total_injected == 0


class TestFaultyAllocator:
    def test_wrap_noop_when_disabled(self):
        inner = BumpAllocator()
        inj = FaultInjector(FaultPlan(seed=0))
        assert inj.wrap_allocator(inner) is inner

    def test_always_fail(self):
        inj = FaultInjector(FaultPlan(seed=0, alloc_fail_rate=1.0))
        wrapped = inj.wrap_allocator(BumpAllocator())
        assert isinstance(wrapped, FaultyAllocator)
        with pytest.raises(OutOfPhysicalMemory):
            wrapped.alloc(4096)
        assert inj.counts["alloc_fail"] == 1

    def test_passthrough_when_not_firing(self):
        inner = BumpAllocator()
        inj = FaultInjector(FaultPlan(seed=0, alloc_fail_rate=0.5))
        wrapped = inj.wrap_allocator(inner)
        got = 0
        for _ in range(50):
            try:
                paddr = wrapped.alloc(64)
            except OutOfPhysicalMemory:
                continue
            got += 1
            wrapped.free(paddr, 64)
        assert got > 0
        assert 0 < inj.counts["alloc_fail"] < 50


class TestPTEIntegrity:
    def test_fresh_pte_intact(self):
        pte = PTE(vpn=100, ppn=7)
        assert pte.is_intact()

    @pytest.mark.parametrize("fld", ["vpn", "ppn"])
    def test_bitflip_detected(self, fld):
        pte = PTE(vpn=100, ppn=7)
        bad = pte.with_bitflip(fld, bit=3)
        assert not bad.is_intact()
        assert getattr(bad, fld) == getattr(pte, fld) ^ (1 << 3)


class TestGappedTableCorruption:
    def test_lookup_flags_corruption_and_scan_recovers(self):
        idx = build_index(dense_ptes(0x1000, 2000))
        from repro.core.nodes import leaf_nodes

        leaf = next(l for l in leaf_nodes(idx.root) if l.table.occupied)
        slot, entry = leaf.table.entries()[0]
        leaf.table.corrupt_slot(slot, fld="vpn", bit=5)
        assert leaf.table.corrupt_entry_count() == 1
        # The index-level lookup must still return the right mapping
        # (degradation ladder: scan/retrain behind the scenes).
        walk = idx.walk(entry.vpn)
        assert walk.hit
        assert walk.pte.vpn == entry.vpn
        assert walk.pte.ppn == entry.ppn
        assert idx.stats.recoveries > 0
        assert idx.stats.corrupt_entries_detected >= 1

    def test_model_perturbation_recovered_by_retrain(self):
        from repro.core.fixed_point import FRACTION_BITS
        from repro.core.linear_model import LinearModel
        from repro.core.nodes import leaf_nodes

        idx = build_index(dense_ptes(0x2000, 3000))
        leaf = next(l for l in leaf_nodes(idx.root) if l.table.occupied)
        _slot, entry = leaf.table.entries()[0]
        shift = (leaf.search_window + leaf.table.max_displacement + 64)
        leaf.model = LinearModel(
            leaf.model.slope_raw,
            leaf.model.intercept_raw + (shift << FRACTION_BITS),
        )
        walk = idx.walk(entry.vpn)
        assert walk.hit and walk.pte.vpn == entry.vpn
        assert idx.stats.recoveries > 0
        # Once repaired, the next lookup is clean (no new recovery).
        before = idx.stats.recoveries
        again = idx.walk(entry.vpn)
        assert again.hit
        assert idx.stats.recoveries == before

    def test_plain_miss_is_not_a_recovery(self):
        idx = build_index(dense_ptes(0x1000, 500))
        assert not idx.walk(0x9999999).hit
        assert idx.stats.recoveries == 0


class TestWalkCachePoison:
    def test_lwc_poison_detected_on_lookup(self):
        lwc = LWC()
        lwc.fill_line(0, 1, 4)  # a 64 B fill brings models 4..7
        assert lwc.poison_random(random.Random(0))
        hits = [lwc.lookup(0, 1, off) for off in (4, 5, 6, 7)]
        assert hits.count(False) == 1  # exactly the poisoned model missed
        assert lwc.poison_detections == 1
        lwc.fill_line(0, 1, 4)
        assert all(lwc.lookup(0, 1, off) for off in (4, 5, 6, 7))

    def test_pwc_poison_detected(self):
        pwc = RadixPWC()
        pwc.fill(0x12345, asid=0, upto_level=2)
        assert pwc.poison_random(random.Random(1))
        # Probe every level directly: parity catches the one damaged
        # entry the moment it is used, and only that one.
        for level in (2, 3, 4):
            pwc.levels[level].lookup(pwc._key(0x12345, level, 0))
        assert pwc.poison_detections == 1

    def test_cwc_poison_detected(self):
        cwc = CWC()
        cwc.fill(0x12345, asid=0)
        assert cwc.poison_random(random.Random(2))
        pmd, pud = cwc.lookup(0x12345, asid=0)
        assert not (pmd and pud)
        assert cwc.poison_detections >= 1

    def test_empty_cache_cannot_be_poisoned(self):
        assert not LWC().poison_random(random.Random(0))
        assert not RadixPWC().poison_random(random.Random(0))
        assert not CWC().poison_random(random.Random(0))


class _Proc:
    """Minimal process stand-in for the invariant checkers."""

    def __init__(self, address_space, page_table):
        self.address_space = address_space
        self.page_table = page_table


class TestInvariants:
    def test_overlapping_vmas_detected(self):
        from bisect import insort

        space = AddressSpace()
        space.mmap(VMA(start_vpn=0, pages=10))
        # Corrupt behind the API (mmap itself rejects overlap).
        insort(space._starts, 5)
        space._vmas[5] = VMA(start_vpn=5, pages=10)
        with pytest.raises(OverlappingVMAError):
            check_no_overlapping_vmas(space)

    def test_double_mapped_frame_detected(self):
        ptes = [PTE(vpn=0, ppn=100), PTE(vpn=1, ppn=100)]
        with pytest.raises(DoubleMappedFrameError):
            check_no_double_mapped_frames(ptes)

    def test_huge_page_frame_overlap_detected(self):
        huge = PTE(vpn=0, ppn=0, page_size=PageSize.SIZE_2M)
        inside = PTE(vpn=1024, ppn=17)  # frame 17 is inside the 2M run
        with pytest.raises(DoubleMappedFrameError):
            check_no_double_mapped_frames([huge, inside])

    def test_clean_process_passes(self):
        proc = Process(LearnedIndex(BumpAllocator()), injector=None)
        proc.mmap(VMA(start_vpn=0x1000, pages=64))
        check_process_invariants(proc)

    def test_stale_mapping_detected_and_reconciled(self):
        index = LearnedIndex(BumpAllocator())
        space = AddressSpace()
        space.mmap(VMA(start_vpn=0x1000, pages=8))
        for i in range(8):
            index.map(PTE(vpn=0x1000 + i, ppn=i + 1))
        index.map(PTE(vpn=0x9000, ppn=99))  # no VMA covers this
        proc = _Proc(space, index)
        with pytest.raises(IndexInconsistencyError):
            check_process_invariants(proc)
        assert reconcile_stale_mappings(proc) == 1
        check_process_invariants(proc)
        assert index.find(0x9000) is None

    def test_duplicate_map_rejected(self):
        index = LearnedIndex(BumpAllocator())
        index.map(PTE(vpn=10, ppn=1))
        with pytest.raises(DuplicateMappingError):
            index.map(PTE(vpn=10, ppn=2))

    def test_duplicate_rejected_while_batching(self):
        index = LearnedIndex(BumpAllocator())
        index.begin_batch()
        index.map(PTE(vpn=10, ppn=1))
        with pytest.raises(DuplicateMappingError):
            index.map(PTE(vpn=10, ppn=2))
        index.end_batch()
        assert index.find(10).ppn == 1


class TestKernelEventFaults:
    def _process(self, plan):
        injector = FaultInjector(plan) if plan else None
        return Process(LearnedIndex(BumpAllocator()), injector=injector)

    def test_dropped_mmap_recovered_by_demand_fault(self):
        proc = self._process(FaultPlan(seed=0, kernel_event_drop_rate=1.0))
        vma = proc.mmap(VMA(start_vpn=0x100, pages=4))
        assert vma.start_vpn == 0x100
        assert proc.stats.dropped_mmap_events > 0
        # The mapping was dropped on the way to the agent...
        assert proc.page_table.find(0x100) is None
        # ...but a demand fault (never droppable) installs it.
        pte = proc.handle_fault(0x100 << 12)
        assert pte is not None and pte.covers(0x100)
        assert proc.page_table.find(0x100) is not None

    def test_duplicate_mmap_rejected_by_guard(self):
        proc = self._process(FaultPlan(seed=0, kernel_event_dup_rate=1.0))
        proc.mmap(VMA(start_vpn=0x200, pages=4))
        assert proc.stats.duplicate_events > 0
        assert proc.stats.duplicate_rejects == proc.stats.duplicate_events
        check_process_invariants(proc)

    @pytest.mark.parametrize("scheme", scheme_registry.available())
    def test_dropped_munmap_heals_via_reconcile(self, scheme):
        """Every scheme's table lists its mappings, so the audit sees
        (and the invariant check flags) a translation no VMA covers."""
        plan = FaultPlan(seed=0, kernel_event_drop_rate=1.0)
        proc = TranslationStack(scheme).process
        proc.mmap(VMA(start_vpn=0x300, pages=4))
        proc.injector = FaultInjector(plan)
        proc.munmap(0x300)
        proc.injector = None
        assert proc.stats.dropped_munmap_events > 0
        # VMA is gone but the index still holds the translations.
        assert proc.address_space.find(0x300) is None
        assert proc.page_table.find(0x300) is not None
        with pytest.raises(IndexInconsistencyError):
            proc.check_invariants()
        healed = proc.reconcile()
        assert healed == 4
        assert proc.page_table.find(0x300) is None
        proc.check_invariants()
