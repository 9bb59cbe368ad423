"""Stateful property testing: the learned index against a dict oracle.

Hypothesis drives random interleavings of insert / remove / lookup /
compact against a plain dictionary model; after every step the index
must agree with the oracle for hits, misses, and translated PPNs —
including queries inside huge pages.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import LearnedIndex, LVMConfig
from repro.mem import BumpAllocator
from repro.types import PTE, PageSize

VPN_SPACE = 1 << 16


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = LearnedIndex(BumpAllocator())
        self.oracle = {}  # first vpn -> PTE
        self.covered = {}  # covered vpn -> first vpn
        self.ppn = 1000

    @initialize(seed_keys=st.lists(
        st.integers(min_value=0, max_value=VPN_SPACE - 1),
        min_size=1, max_size=50, unique=True,
    ))
    def build(self, seed_keys):
        ptes = []
        for vpn in sorted(seed_keys):
            if vpn in self.covered:
                continue
            pte = PTE(vpn=vpn, ppn=self.ppn)
            self.ppn += 1
            ptes.append(pte)
            self.oracle[vpn] = pte
            self.covered[vpn] = vpn
        self.index.bulk_build(ptes)

    def _free_huge_slot(self, aligned):
        return all(
            aligned + i not in self.covered for i in range(512)
        )

    @rule(vpn=st.integers(min_value=0, max_value=VPN_SPACE - 1))
    def insert_4k(self, vpn):
        if vpn in self.covered:
            return
        pte = PTE(vpn=vpn, ppn=self.ppn)
        self.ppn += 1
        self.index.insert(pte)
        self.oracle[vpn] = pte
        self.covered[vpn] = vpn

    @rule(slot=st.integers(min_value=0, max_value=(VPN_SPACE // 512) - 1))
    def insert_2m(self, slot):
        aligned = slot * 512
        if not self._free_huge_slot(aligned):
            return
        pte = PTE(vpn=aligned, ppn=self.ppn, page_size=PageSize.SIZE_2M)
        self.ppn += 512
        self.index.insert(pte)
        self.oracle[aligned] = pte
        for i in range(512):
            self.covered[aligned + i] = aligned

    @rule(data=st.data())
    def remove_one(self, data):
        if not self.oracle:
            return
        vpn = data.draw(st.sampled_from(sorted(self.oracle)))
        pte = self.oracle.pop(vpn)
        for i in range(pte.page_size.pages_4k):
            del self.covered[vpn + i]
        self.index.unmap(vpn)

    @rule()
    def compact(self):
        self.index.compact()

    @rule(vpn=st.integers(min_value=0, max_value=VPN_SPACE - 1))
    def lookup_matches_oracle(self, vpn):
        walk = self.index.walk(vpn)
        first = self.covered.get(vpn)
        if first is None:
            assert not walk.hit, vpn
        else:
            assert walk.hit, vpn
            assert walk.pte is self.oracle[first]

    @invariant()
    def depth_bounded(self):
        assert self.index.depth <= LVMConfig().d_limit

    @invariant()
    def mapping_count_agrees(self):
        assert self.index.num_mappings == len(self.oracle)


TestIndexStateful = IndexMachine.TestCase
TestIndexStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
