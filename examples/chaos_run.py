#!/usr/bin/env python3
"""Chaos run: inject faults into the LVM stack and watch it degrade
gracefully instead of serving wrong translations.

Three demonstrations, all through the public API:

1. a corrupted gapped-table entry detected by its integrity tag and
   healed by the scan → retrain ladder (``docs/INTERNALS.md`` §8.2);
2. a full simulation per fault class, each verifying every translation
   against the authoritative mapping set;
3. the bit-identity guarantee: a zero-rate plan changes nothing.

Run:  python examples/chaos_run.py
"""

from repro import (
    FaultKind,
    FaultPlan,
    LearnedIndex,
    SimConfig,
    Simulator,
    build_workload,
)
from repro.mem import BumpAllocator
from repro.types import PTE


def demo_corruption_recovery() -> None:
    print("1. Single-entry corruption and recovery")
    print("   ------------------------------------")
    index = LearnedIndex(BumpAllocator())
    index.bulk_build([PTE(vpn=100 + i, ppn=0x500 + i) for i in range(2000)])

    # Flip one bit in a live gapped-table entry, behind the index's
    # back — the kind of damage the injector's pte_bitflip class does.
    from repro.core.nodes import leaf_nodes

    leaf = next(l for l in leaf_nodes(index.root) if l.table.occupied)
    slot, entry = leaf.table.entries()[0]
    leaf.table.corrupt_slot(slot, fld="ppn", bit=7)
    print(f"   corrupted slot {slot} (VPN {entry.vpn:#x}), tag now stale")

    walk = index.walk(entry.vpn)
    assert walk.pte.ppn == entry.ppn, "recovery must restore the real PPN"
    print(f"   lookup({entry.vpn:#x}) -> PPN {walk.pte.ppn:#x} "
          f"(correct), recovered={walk.recovered}")
    print(f"   ladder: scans={index.stats.recovered_scans} "
          f"retrains={index.stats.recovered_retrains} "
          f"corrupt entries detected={index.stats.corrupt_entries_detected}")
    print()


def demo_fault_classes(refs: int = 4000) -> None:
    print("2. Full simulations, one fault class at a time")
    print("   -------------------------------------------")
    workload = build_workload("gups")
    header = (f"   {'fault class':20s} {'injected':>8s} {'recoveries':>10s} "
              f"{'rec cycles':>12s} {'incorrect':>9s}")
    print(header)
    for kind in FaultKind:
        plan = FaultPlan.single(kind, rate=5e-3, seed=42)
        config = SimConfig(num_refs=refs, faults=plan,
                           verify_translations=True)
        result = Simulator("lvm", workload, config).run()
        assert result.incorrect_translations == 0
        print(f"   {kind.value:20s} {result.faults_injected:8d} "
              f"{result.recoveries:10d} {result.recovery_cycles:12d} "
              f"{result.incorrect_translations:9d}")
    print("   (zero incorrect translations is the whole point)")
    print()


def demo_bit_identity(refs: int = 4000) -> None:
    print("3. All rates zero == no injector at all")
    print("   ------------------------------------")
    workload = build_workload("gups")
    baseline = Simulator("lvm", workload, SimConfig(num_refs=refs)).run()
    zeroed = Simulator(
        "lvm", workload, SimConfig(num_refs=refs, faults=FaultPlan(seed=7))
    ).run()
    same = (baseline.cycles, baseline.mmu_cycles, baseline.walk_traffic) == \
           (zeroed.cycles, zeroed.mmu_cycles, zeroed.walk_traffic)
    print(f"   cycles {baseline.cycles:.0f} vs {zeroed.cycles:.0f}; "
          f"bit-identical: {same}")
    assert same


def main() -> None:
    demo_corruption_recovery()
    demo_fault_classes()
    demo_bit_identity()


if __name__ == "__main__":
    main()
