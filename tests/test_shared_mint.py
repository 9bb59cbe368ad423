"""The PTEs a workload mints are shared by its simulators.

``BuiltWorkload.mint`` memoizes :func:`~repro.kernel.process.mint` per
(THP, THP coverage, first frame), and every ``Simulator`` installs the
memoized entries, so the cells of one sweep over one workload and page
mode hold the same PTE objects.  That is safe only while nothing a run
does writes a PTE in place; these tests pin both halves.
"""

import random

import pytest

from repro.faults import FaultPlan
from repro.kernel.process import Process, mint
from repro.kernel.vma import VMA
from repro.pagetables.radix import RadixPageTable
from repro.schemes import registry as scheme_registry
from repro.sim import runner
from repro.sim.config import SimConfig
from repro.sim.multicore import TENANT_PHYS_SPAN
from repro.sim.simulator import Simulator
from repro.workloads.registry import build_workload

SCALE = 4096
REFS = 3000
SCHEMES = scheme_registry.available()
#: Bit flips in LVM's leaves, and lost and replayed map events (which
#: send every scheme through per-event delivery and demand faults).
FAULTS = FaultPlan(
    seed=5, pte_bitflip_rate=0.01, kernel_event_drop_rate=0.05,
    kernel_event_dup_rate=0.05,
)
#: The first data frame of a process at physical base 0.
FIRST_PPN = Process(None).next_ppn


def fields(pte):
    return (
        pte.vpn, pte.ppn, pte.page_size, pte.perms, pte.accessed, pte.dirty,
        pte.present, pte._tag,
    )


@pytest.fixture
def sims(monkeypatch):
    """Every simulator the sweep runner builds, kept alive."""
    built = []

    def recording_simulator(*args, **kwargs):
        built.append(Simulator(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "Simulator", recording_simulator)
    return built


def test_cells_of_one_workload_and_page_mode_hold_the_same_entries(sims):
    config = SimConfig(num_refs=REFS, footprint_scale=SCALE)
    results = runner.run_suite(["gups"], SCHEMES, (False, True), config)
    assert len(results.results) == len(sims) == 2 * len(SCHEMES)
    rng = random.Random(1)
    for thp in (False, True):
        cells = [sim for sim in sims if sim.config.thp is thp]
        assert sorted(sim.scheme for sim in cells) == sorted(SCHEMES)
        shared = cells[0].workload.mint(thp, config.thp_coverage, FIRST_PPN)
        if thp:
            assert shared.huge > 0
        for pte in rng.sample(shared.ptes, 64):
            vpn = pte.vpn + rng.randrange(pte.page_size.pages_4k)
            for sim in cells:
                assert sim.page_table.find(vpn) is pte, (sim.scheme, thp, vpn)


def test_a_sweep_holds_one_workloads_mints_at_a_time(sims):
    config = SimConfig(num_refs=REFS, footprint_scale=SCALE)
    runner.run_suite(["gups", "MUMr"], ["radix", "lvm"], (False,), config)
    gups, mummer = sims[0].workload, sims[-1].workload
    assert [sim.workload.info.name for sim in sims] == ["gups", "gups", "MUMr", "MUMr"]
    assert sims[1].workload is gups and sims[2].workload is mummer
    # MUMr's first cell dropped the memo of gups, whose cells were done.
    assert gups._mint_cache == {}
    assert len(mummer._mint_cache) == 1


def test_another_physical_base_or_page_mode_mints_its_own_entries():
    workload = build_workload("gups", scale=SCALE)
    config = SimConfig(num_refs=REFS)
    base = Simulator("radix", workload, config)
    again = Simulator("ecpt", workload, config)
    moved = Simulator("radix", workload, config, phys_base=TENANT_PHYS_SPAN)
    huge = Simulator("radix", workload, config.clone(thp=True))
    vpn = workload.vmas[0].start_vpn
    assert again.page_table.find(vpn) is base.page_table.find(vpn)
    assert moved.page_table.find(vpn) is not base.page_table.find(vpn)
    assert moved.page_table.find(vpn).ppn != base.page_table.find(vpn).ppn
    assert huge.page_table.find(vpn) is not base.page_table.find(vpn)
    assert len(workload._mint_cache) == 3


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["plain", "faults"])
@pytest.mark.parametrize("thp", [False, True], ids=["4k", "thp"])
def test_runs_leave_every_shared_entry_as_minted(thp, faults):
    workload = build_workload("gups", scale=SCALE)
    config = SimConfig(num_refs=REFS, thp=thp, faults=faults)
    shared = workload.mint(thp, config.thp_coverage, FIRST_PPN)
    fresh = [fields(p) for p in mint(workload.vmas, thp, config.thp_coverage, FIRST_PPN).ptes]
    injected = {}
    for scheme in SCHEMES:
        result = Simulator(scheme, workload, config).run()
        assert [fields(p) for p in shared.ptes] == fresh, scheme
        for kind, count in result.fault_counts.items():
            injected[kind] = injected.get(kind, 0) + count
    if faults is not None:
        assert {"pte_bitflip", "kernel_event_drop", "kernel_event_dup"} <= {
            kind for kind, count in injected.items() if count
        }, injected


def test_a_mint_for_another_frame_or_page_mode_cannot_be_installed():
    vmas = [VMA(0x1000, 1024)]
    process = Process(RadixPageTable())
    first = process.next_ppn
    for wrong in (
        mint(vmas, False, 0.9, first + 1),
        mint(vmas, True, 0.9, first),
        mint(vmas, False, 1.0, first),
    ):
        with pytest.raises(ValueError, match="cannot be installed"):
            process.install(wrong)
    assert list(process.address_space) == []
    assert process.page_table.mappings() == []
    process.install(mint(vmas, False, 0.9, first))
    assert process.next_ppn == first + 1024
    assert len(process.page_table.mappings()) == 1024
