"""Tests for nested (virtualized) translation."""

from repro.core import LearnedIndex
from repro.mem.allocator import BumpAllocator
from repro.mmu.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.pagetables.radix import RadixPageTable
from repro.types import PTE
from repro.virt import NestedLVMWalker, NestedRadixWalker, build_host_mapping

GUEST_PAGES = 3000
GPA_BASE = 1 << 20


def hierarchy():
    return MemoryHierarchy(HierarchyConfig(prefetch_degree=0))


def guest_ptes():
    """Guest mappings: GVA vpn -> GPA ppn inside the guest's memory."""
    return [PTE(vpn=0x100 + i, ppn=GPA_BASE + i) for i in range(GUEST_PAGES)]


def make_nested_radix():
    guest = RadixPageTable(BumpAllocator(base=GPA_BASE << 12))
    for pte in guest_ptes():
        guest.map(pte)
    host = build_host_mapping(
        1 << 14, BumpAllocator(base=1 << 40), scheme="radix"
    )
    return NestedRadixWalker(guest, host, hierarchy())


def make_nested_lvm():
    guest = LearnedIndex(BumpAllocator(base=GPA_BASE << 12))
    guest.bulk_build(guest_ptes())
    host = build_host_mapping(1 << 14, BumpAllocator(base=1 << 40), scheme="lvm")
    return NestedLVMWalker(guest, host, hierarchy())


class TestNestedRadix:
    def test_translates_end_to_end(self):
        walker = make_nested_radix()
        outcome = walker.walk(0x100 + 7)
        assert outcome.hit
        assert outcome.pte.ppn == GPA_BASE + 7
        assert outcome.host_pte.covers(outcome.pte.ppn)

    def test_cold_2d_walk_is_expensive(self):
        walker = make_nested_radix()
        outcome = walker.walk(0x100)
        # Cold: every guest level host-translated (up to 24 accesses).
        assert outcome.memory_accesses >= 8
        assert outcome.host_walks == 5  # 4 guest levels + final GPA

    def test_ntlb_and_pwcs_trim_repeat_walks(self):
        walker = make_nested_radix()
        walker.walk(0x100)
        outcome = walker.walk(0x101)
        assert outcome.memory_accesses < 8

    def test_guest_miss(self):
        walker = make_nested_radix()
        outcome = walker.walk(0xDEAD00)
        assert not outcome.hit


class TestNestedLVM:
    def test_translates_end_to_end(self):
        walker = make_nested_lvm()
        outcome = walker.walk(0x100 + 7)
        assert outcome.hit
        assert outcome.pte.ppn == GPA_BASE + 7

    def test_warm_walk_near_two_accesses(self):
        walker = make_nested_lvm()
        walker.walk(0x100)
        outcome = walker.walk(0x105)
        # LWCs hold both tiny indexes; nTLB may still miss the data GPA:
        # one guest PTE line + at most one host PTE line.
        assert outcome.memory_accesses <= 2

    def test_guest_miss(self):
        walker = make_nested_lvm()
        assert not walker.walk(0xDEAD00).hit


class TestNestedComparison:
    def test_lvm_nests_cheaper_than_radix(self):
        """At datacenter-like guest sizes (beyond PWC reach) the 2D
        blow-up hits radix in both dimensions; LVM's guest dimension
        stays in the LWC (paper: virtualization amplifies the gap)."""
        import random

        pages = 120_000
        big_guest = [PTE(vpn=0x100 + i, ppn=GPA_BASE + i) for i in range(pages)]
        rng = random.Random(5)

        guest_radix = RadixPageTable(BumpAllocator(base=GPA_BASE << 12))
        for pte in big_guest:
            guest_radix.map(pte)
        radix = NestedRadixWalker(
            guest_radix,
            build_host_mapping(1 << 14, BumpAllocator(base=1 << 40), "radix"),
            hierarchy(),
        )

        guest_lvm = LearnedIndex(BumpAllocator(base=GPA_BASE << 12))
        guest_lvm.bulk_build(
            [PTE(vpn=p.vpn, ppn=p.ppn) for p in big_guest]
        )
        lvm = NestedLVMWalker(
            guest_lvm,
            build_host_mapping(1 << 14, BumpAllocator(base=1 << 40), "lvm"),
            hierarchy(),
        )

        vpns = [0x100 + rng.randrange(pages) for _ in range(4000)]
        for vpn in vpns:
            radix.walk(vpn)
            lvm.walk(vpn)
        assert lvm.total_accesses < radix.total_accesses
        assert lvm.total_cycles < radix.total_cycles
        # The 2D blow-up must favour LVM clearly.
        assert radix.total_accesses / lvm.total_accesses > 1.25
