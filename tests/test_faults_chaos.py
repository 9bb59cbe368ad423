"""End-to-end chaos harness: whole simulations under fault injection.

The contract (ISSUE acceptance criteria): with any single fault class
enabled, every workload completes, zero incorrect translations are
served (verified against the authoritative mapping set each reference),
recovery work is visible in ``SimResult``, and with all faults disabled
the cycle counts are bit-identical to a run with no injector at all.
"""

import random

import pytest

from repro.core.nodes import leaf_nodes
from repro.faults import FaultKind, FaultPlan
from repro.serve.tenant import Tenant, TenantSpec
from repro.sim import EXTENDED_SCHEMES, SimConfig, Simulator, run_suite
from repro.workloads import build_workload

REFS = 4_000
WORKLOADS = ["gups", "bfs"]


def chaos_run(kind, rate, refs=REFS, workloads=WORKLOADS, seed=0):
    plan = FaultPlan.single(kind, rate=rate, seed=seed)
    config = SimConfig(num_refs=refs, faults=plan, verify_translations=True)
    return run_suite(
        workload_names=workloads, schemes=("lvm",), page_modes=(False,),
        config=config,
    )


@pytest.mark.timeout(600)
@pytest.mark.parametrize("kind", list(FaultKind))
class TestEveryFaultClassAt1em3:
    """The headline criterion: rate 1e-3, all workloads, no wrong PTEs."""

    def test_completes_with_zero_incorrect_translations(self, kind):
        results = chaos_run(kind, rate=1e-3)
        assert not results.failures
        assert len(results.results) == len(WORKLOADS)
        for r in results.results:
            assert r.refs == REFS
            assert r.cycles > 0
            assert r.incorrect_translations == 0


@pytest.mark.timeout(600)
class TestRecoveryCountersVisible:
    """Targeted rates high enough that each ladder rung provably ran."""

    def test_pte_bitflip_recovery(self):
        # bfs revisits its footprint densely, so corrupted entries are
        # re-probed and the scan → retrain ladder engages.
        results = chaos_run(
            FaultKind.PTE_BITFLIP, rate=0.02, refs=8_000, workloads=["bfs"]
        )
        r = results.results[0]
        assert r.faults_injected > 0
        assert r.recoveries > 0
        assert r.recovery_detail.get("corrupt_entries_detected", 0) > 0
        assert r.recovery_cycles > 0  # fallback walk penalty is visible
        assert r.incorrect_translations == 0

    def test_model_perturb_recovery(self):
        results = chaos_run(
            FaultKind.MODEL_PERTURB, rate=0.01, refs=8_000, workloads=["gups"]
        )
        r = results.results[0]
        assert r.faults_injected > 0
        assert r.recovery_detail.get("recovered_scans", 0) > 0
        assert r.recovery_detail.get("recovered_retrains", 0) > 0
        assert r.recovery_cycles > 0
        assert r.incorrect_translations == 0

    def test_alloc_fail_retry_with_backoff(self):
        results = chaos_run(
            FaultKind.ALLOC_FAIL, rate=0.5, refs=8_000, workloads=["gups"]
        )
        r = results.results[0]
        assert r.faults_injected > 0
        assert r.recovery_detail.get("alloc_retries", 0) > 0
        assert r.incorrect_translations == 0

    def test_walk_cache_poison_detected(self):
        results = chaos_run(
            FaultKind.WALK_CACHE_CORRUPT, rate=0.01, refs=8_000,
            workloads=["gups"],
        )
        r = results.results[0]
        assert r.faults_injected > 0
        assert r.poison_detections > 0
        assert r.incorrect_translations == 0

    def test_kernel_event_faults_absorbed(self):
        results = chaos_run(
            FaultKind.KERNEL_EVENTS, rate=1e-3, refs=8_000, workloads=["gups"]
        )
        r = results.results[0]
        detail = r.recovery_detail
        assert r.faults_injected > 0
        assert detail.get("dropped_mmap_events", 0) > 0
        assert detail.get("duplicate_events", 0) > 0
        # Every duplicate delivery bounced off the invariant guard.
        assert detail["duplicate_rejects"] == detail["duplicate_events"]
        assert r.incorrect_translations == 0


class TestTrustedTablesHoldNoDamage:
    """A gapped table skips the per-entry integrity check while it
    reads as trusted, so under PTE bit flips and model perturbations
    every trusted leaf table must hold no entry that fails its check:
    after every walk that recovered (a repair is where trust returns),
    after every tenant op, and at the end of each run."""

    PLAN = {"seed": 3, "pte_bitflip_rate": 0.01, "model_perturb_rate": 0.005}

    @staticmethod
    def check(index) -> int:
        """Assert the invariant over every leaf; count the trusted."""
        tables = [leaf.table for leaf in leaf_nodes(index.root)]
        for table in tables:
            assert not table.trusted or table.corrupt_entry_count() == 0
        return sum(table.trusted for table in tables)

    def test_sweep_cell(self):
        config = SimConfig(
            num_refs=REFS, faults=FaultPlan(**self.PLAN), verify_translations=True
        )
        sim = Simulator("lvm", build_workload("bfs", scale=1024), config)
        index = sim.page_table
        walk, checked = index.walk, []

        def walk_then_check(vpn):
            trace = walk(vpn)
            if trace.recovered:
                checked.append(self.check(index))
            return trace

        index.walk = walk_then_check
        result = sim.run()
        assert result.incorrect_translations == 0
        assert result.recoveries > 0 and index.stats.recovered_retrains > 0
        assert sum(checked) > 0
        self.check(index)

    def test_tenant_script(self):
        tenant = Tenant(TenantSpec(name="t", scheme="lvm", fault_plan=self.PLAN))
        index = tenant.page_table
        rng = random.Random(1)
        trusted = 0
        tenant.apply("mmap", {"start_vpn": 1 << 20, "pages": 512})
        tenant.apply("mmap", {"start_vpn": 1 << 24, "pages": 64})
        for batch in range(1, 31):
            vas = [((1 << 20) + rng.randrange(512)) << 12 for _ in range(32)]
            tenant.apply("translate", {"vas": vas})
            trusted += self.check(index)
            if batch % 10 == 0:
                tenant.apply("munmap", {"start_vpn": 1 << 24})
                trusted += self.check(index)
                tenant.apply("mmap", {"start_vpn": 1 << 24, "pages": 64})
                trusted += self.check(index)
        assert index.stats.recoveries > 0 and trusted > 0
        assert tenant.quarantined is None


@pytest.mark.parametrize("scheme", EXTENDED_SCHEMES)
class TestKernelEventsEveryScheme:
    """Every page table's duplicate guard raises DuplicateMappingError,
    so the kernel's event path absorbs replayed and stale maps for
    every scheme, not only LVM."""

    def test_replayed_maps_rejected(self, scheme):
        plan = FaultPlan(seed=3, kernel_event_dup_rate=0.01)
        config = SimConfig(num_refs=2_000, faults=plan, verify_translations=True)
        result = Simulator(scheme, build_workload("gups", scale=1024), config).run()
        detail = result.recovery_detail
        assert detail.get("duplicate_events", 0) > 0
        assert detail["duplicate_rejects"] == detail["duplicate_events"]
        assert result.incorrect_translations == 0

    def test_tenant_remaps_over_stale_translations(self, scheme):
        plan = {"seed": 0, "kernel_event_drop_rate": 0.2, "kernel_event_dup_rate": 0.2}
        tenant = Tenant(TenantSpec(name="t", scheme=scheme, fault_plan=plan))
        tenant.apply("mmap", {"start_vpn": 0x100, "pages": 64})
        for _ in range(5):
            tenant.apply("munmap", {"start_vpn": 0x100})
            tenant.apply("mmap", {"start_vpn": 0x100, "pages": 64})
        stats = tenant.process.stats
        assert stats.stale_reconciled > 0
        assert stats.duplicate_events > 0
        assert stats.duplicate_rejects == stats.duplicate_events
        assert tenant.quarantined is None


@pytest.mark.timeout(600)
class TestBitIdentity:
    """Faults disabled ⇒ the injector must not perturb anything."""

    @staticmethod
    def _fingerprint(result):
        return (
            result.cycles, result.mmu_cycles, result.walk_cycles,
            result.walk_traffic, result.index_size_bytes,
            result.l2_tlb_miss_rate,
        )

    def test_zero_rate_plan_is_bit_identical(self):
        workload = build_workload("gups")
        baseline = Simulator(
            "lvm", workload, SimConfig(num_refs=REFS)
        ).run()
        zeroed = Simulator(
            "lvm", workload,
            SimConfig(num_refs=REFS, faults=FaultPlan(seed=123)),
        ).run()
        assert self._fingerprint(zeroed) == self._fingerprint(baseline)
        assert zeroed.faults_injected == 0
        assert zeroed.recoveries == 0
        assert zeroed.recovery_cycles == 0

    def test_zero_rate_plan_builds_no_injector(self):
        sim = Simulator(
            "lvm", build_workload("gups"),
            SimConfig(num_refs=100, faults=FaultPlan(seed=1)),
        )
        assert sim.injector is None

    def test_seed_changes_injection_pattern_not_correctness(self):
        a = chaos_run(FaultKind.MODEL_PERTURB, rate=0.01, refs=4_000,
                      workloads=["gups"], seed=1).results[0]
        b = chaos_run(FaultKind.MODEL_PERTURB, rate=0.01, refs=4_000,
                      workloads=["gups"], seed=2).results[0]
        assert a.incorrect_translations == 0
        assert b.incorrect_translations == 0
        # Different seeds perturb different leaves at different times.
        assert (a.cycles, a.recoveries) != (b.cycles, b.recoveries)


@pytest.mark.timeout(600)
class TestChaosCLI:
    def test_chaos_command_runs(self, capsys):
        from repro.cli import main

        assert main([
            "chaos", "--workloads", "gups", "--refs", "2000",
            "--fault-rate", "0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "graceful degradation" in out
        for kind in FaultKind:
            assert kind.value in out
