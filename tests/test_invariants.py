"""Cross-cutting invariant tests over full simulations.

These run small end-to-end simulations and check the paper's hard
bounds hold *throughout*: walk lengths, traffic floors/ceilings, index
depth, and accounting consistency between layers.
"""

import pytest

from repro.core import LVMConfig
from repro.sim import SCHEMES, SimConfig, Simulator
from repro.workloads import build_workload

REFS = 3000


@pytest.fixture(scope="module", params=["gups", "MUMr"])
def workload(request):
    return build_workload(request.param)


class TestWalkBounds:
    def test_lvm_walk_traffic_bounded_by_dlimit(self, workload):
        cfg = SimConfig(num_refs=REFS)
        sim = Simulator("lvm", workload, cfg)
        result = sim.run()
        config = LVMConfig()
        # Worst case per walk: d_limit model fetches + 1 PTE fetch +
        # C_err collision accesses (section 5.1).
        assert result.walk_traffic <= result.walks * (
            config.d_limit + 1 + config.c_err
        )
        # And on a regular space, near the single-access ideal.
        assert result.walk_traffic <= result.walks * 1.6

    def test_ideal_exactly_one_access_per_walk(self, workload):
        result = Simulator("ideal", workload, SimConfig(num_refs=REFS)).run()
        assert result.walk_traffic == result.walks

    def test_radix_at_most_four_accesses_per_walk(self, workload):
        result = Simulator("radix", workload, SimConfig(num_refs=REFS)).run()
        assert result.walk_traffic <= result.walks * 4

    def test_ecpt_traffic_at_most_probes_plus_cwt(self, workload):
        result = Simulator("ecpt", workload, SimConfig(num_refs=REFS)).run()
        # 3 ways x (worst case both 4K+2M sizes) + 2 CWT fetches.
        assert result.walk_traffic <= result.walks * 8


class TestAccountingConsistency:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_mmu_cycles_decompose(self, workload, scheme):
        sim = Simulator(scheme, workload, SimConfig(num_refs=REFS))
        result = sim.run()
        stats = sim.mmu.stats
        assert stats.mmu_cycles == stats.tlb_cycles + stats.walk_cycles
        assert stats.translations == REFS + stats.faults
        assert result.walks == stats.walks

    def test_walker_and_mmu_agree(self, workload):
        sim = Simulator("lvm", workload, SimConfig(num_refs=REFS))
        sim.run()
        assert sim.walker.walks == sim.mmu.stats.walks
        assert sim.walker.total_accesses == sim.mmu.stats.walk_traffic

    def test_cycles_positive_and_scale_with_refs(self, workload):
        short = Simulator("radix", workload, SimConfig(num_refs=1000)).run()
        longer = Simulator("radix", workload, SimConfig(num_refs=4000)).run()
        assert longer.cycles > short.cycles


class TestIndexDepthInvariant:
    def test_depth_bound_after_full_simulation(self, workload):
        sim = Simulator("lvm", workload, SimConfig(num_refs=REFS))
        sim.run()
        assert sim.page_table.depth <= LVMConfig().d_limit

    def test_thp_depth_bound(self, workload):
        sim = Simulator("lvm", workload, SimConfig(num_refs=REFS, thp=True))
        sim.run()
        assert sim.page_table.depth <= LVMConfig().d_limit
