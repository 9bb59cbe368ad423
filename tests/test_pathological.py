"""Pathological-case tests: the section 4.2.3 guardrails.

"Even in a pathological case, LVM's learned index would not grow too
deep for hardware page walks nor too large to have good cacheability."
These tests throw adversarial key distributions at the index and check
the guardrails hold while lookups remain correct.
"""

import random

import pytest

from repro.core import LearnedIndex, LVMConfig
from repro.core.nodes import iter_nodes
from repro.kernel.kernel_space import KERNEL_BASE_VPN, SharedKernelIndex
from repro.mem import BumpAllocator
from repro.types import PTE, PageSize


def build(vpns):
    index = LearnedIndex(BumpAllocator())
    index.bulk_build([PTE(vpn=v, ppn=i) for i, v in enumerate(sorted(vpns))])
    return index


class TestPathologicalSpaces:
    def test_uniform_random_keys(self):
        rng = random.Random(1)
        vpns = sorted(rng.sample(range(1 << 22), 30_000))
        index = build(vpns)
        assert index.depth <= LVMConfig().d_limit
        for v in vpns[::111]:
            assert index.walk(v).hit
        for _ in range(200):
            v = rng.randrange(1 << 22)
            assert index.walk(v).hit == (v in set(vpns))

    def test_exponentially_spaced_keys(self):
        vpns = [2 ** i for i in range(1, 34)]
        index = build(vpns)
        assert index.depth <= LVMConfig().d_limit
        assert all(index.walk(v).hit for v in vpns)
        assert not index.walk(3).hit

    def test_adversarial_cluster_sizes(self):
        # Clusters whose sizes and gaps grow geometrically: no single
        # branching factor fits.
        vpns = []
        base = 0
        for i in range(12):
            size = 2 ** i
            vpns.extend(range(base, base + size))
            base += size * 3 + 7
        index = build(vpns)
        assert index.depth <= LVMConfig().d_limit
        assert all(index.walk(v).hit for v in vpns[:: max(1, len(vpns) // 200)])

    def test_index_size_bounded_on_random_keys(self):
        rng = random.Random(7)
        vpns = sorted(rng.sample(range(1 << 24), 50_000))
        index = build(vpns)
        # Cacheability guardrail: even for white-noise keys the index
        # must stay far below the PTE space itself (8 B per key).
        assert index.index_size_bytes < 8 * len(vpns)

    def test_interleaved_page_sizes_alternating(self):
        ptes = []
        vpn = 0
        for i in range(200):
            if i % 2 == 0:
                ptes.append(PTE(vpn=vpn, ppn=i))
                vpn += 1
            else:
                vpn = (vpn + 511) // 512 * 512
                ptes.append(PTE(vpn=vpn, ppn=i, page_size=PageSize.SIZE_2M))
                vpn += 512
        index = LearnedIndex(BumpAllocator())
        index.bulk_build(ptes)
        for pte in ptes:
            walk = index.walk(pte.vpn)
            assert walk.pte is pte
            inner = index.walk(pte.vpn + pte.page_size.pages_4k - 1)
            assert inner.pte is pte

    def test_adversarial_insert_order(self):
        # Bit-reversed insertion order: maximally non-sequential.
        n = 4096
        bits = 12
        index = LearnedIndex(BumpAllocator())
        index.bulk_build([PTE(vpn=0, ppn=0)])
        for i in range(1, n):
            rev = int(f"{i:0{bits}b}"[::-1], 2)
            if rev == 0:
                continue
            index.insert(PTE(vpn=rev, ppn=i))
        hits = sum(index.walk(v).hit for v in range(n))
        assert hits == n - bits + 1 or hits >= n - bits  # all inserted found

    def test_every_node_within_depth_limit(self):
        rng = random.Random(3)
        vpns = sorted(rng.sample(range(1 << 20), 20_000))
        index = build(vpns)
        for node in iter_nodes(index.root):
            assert node.depth < LVMConfig().d_limit


class TestSharedKernelIndex:
    def test_direct_map_is_one_leaf(self):
        kernel = SharedKernelIndex(BumpAllocator())
        kernel.map_direct(KERNEL_BASE_VPN, 100_000, ppn0=0)
        assert kernel.index.index_size_bytes <= 64  # a handful of models
        walk = kernel.index.walk(KERNEL_BASE_VPN + 54_321)
        assert walk.hit and walk.pte.ppn == 54_321

    def test_user_vpn_rejected(self):
        kernel = SharedKernelIndex(BumpAllocator())
        with pytest.raises(Exception):
            kernel.map(PTE(vpn=100, ppn=1))

    def test_sharing_accounts_savings(self):
        kernel = SharedKernelIndex(BumpAllocator())
        kernel.map_direct(KERNEL_BASE_VPN, 10_000, ppn0=0)
        for _ in range(8):
            kernel.attach()
        assert kernel.attached_processes == 8
        assert kernel.memory_saved_vs_per_process() > 7 * 10_000 * 8 * 0.9

    def test_vmalloc_style_inserts(self):
        kernel = SharedKernelIndex(BumpAllocator())
        kernel.map_direct(KERNEL_BASE_VPN, 10_000, ppn0=0)
        for i in range(200):
            kernel.map(PTE(vpn=KERNEL_BASE_VPN + 20_000 + 3 * i, ppn=99_000 + i))
        assert kernel.index.walk(KERNEL_BASE_VPN + 20_000 + 3 * 57).hit
