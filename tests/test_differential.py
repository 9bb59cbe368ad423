"""Differential tests: every translation scheme must agree.

Radix, hashed, ECPT, FPT, ideal, and LVM's learned index all implement the
same PageTable contract; for any mapping set and any query, they must
return the same translation (or all miss).  Hypothesis drives random
mapping/unmapping sequences through all of them at once.
"""

from hypothesis import given, settings, strategies as st

from repro.core import LearnedIndex
from repro.mem.allocator import BumpAllocator
from repro.pagetables import (
    ECPT,
    FlattenedPageTable,
    HashedPageTable,
    IdealPageTable,
    RadixPageTable,
)
from repro.types import PTE, PageSize


def all_schemes():
    return {
        "radix": RadixPageTable(BumpAllocator()),
        "hashed": HashedPageTable(BumpAllocator()),
        "ecpt": ECPT(BumpAllocator(), initial_size=64),
        "fpt": FlattenedPageTable(BumpAllocator()),
        "ideal": IdealPageTable(BumpAllocator()),
        "lvm": LearnedIndex(BumpAllocator()),
    }


mapping_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 22),
        st.sampled_from([PageSize.SIZE_4K, PageSize.SIZE_2M]),
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda t: t[0],
)


def _legalize(raw):
    """Align huge pages and drop overlaps so every scheme accepts."""
    ptes = []
    covered = set()
    for ppn, (vpn, size) in enumerate(sorted(raw)):
        if size is PageSize.SIZE_2M:
            vpn -= vpn % 512
        span = range(vpn, vpn + size.pages_4k)
        if any(v in covered for v in span):
            continue
        covered.update(span)
        ptes.append(PTE(vpn=vpn, ppn=100 + ppn, page_size=size))
    return ptes


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(mapping_sets, st.data())
    def test_all_schemes_agree(self, raw, data):
        ptes = _legalize(raw)
        schemes = all_schemes()
        schemes["lvm"].begin_batch()
        for pte in ptes:
            for table in schemes.values():
                table.map(PTE(
                    vpn=pte.vpn, ppn=pte.ppn, page_size=pte.page_size
                ))
        schemes["lvm"].end_batch()

        queries = [p.vpn for p in ptes]
        queries += [p.vpn + p.page_size.pages_4k - 1 for p in ptes]
        queries += data.draw(
            st.lists(st.integers(min_value=0, max_value=1 << 22), max_size=20)
        )
        for vpn in queries:
            answers = {}
            for name, table in schemes.items():
                found = table.find(vpn)
                answers[name] = None if found is None else found.ppn
            distinct = set(answers.values())
            assert len(distinct) == 1, (vpn, answers)

    @settings(max_examples=15, deadline=None)
    @given(mapping_sets, st.data())
    def test_unmap_agreement(self, raw, data):
        ptes = _legalize(raw)
        schemes = all_schemes()
        schemes["lvm"].begin_batch()
        for pte in ptes:
            for table in schemes.values():
                table.map(PTE(
                    vpn=pte.vpn, ppn=pte.ppn, page_size=pte.page_size
                ))
        schemes["lvm"].end_batch()

        removed = data.draw(
            st.lists(
                st.sampled_from([p.vpn for p in ptes]),
                max_size=len(ptes),
                unique=True,
            )
        )
        for vpn in removed:
            for table in schemes.values():
                table.unmap(vpn)
        removed_set = set(removed)
        for pte in ptes:
            for name, table in schemes.items():
                found = table.find(pte.vpn)
                if pte.vpn in removed_set:
                    assert found is None, (name, pte.vpn)
                else:
                    assert found is not None and found.ppn == pte.ppn, (
                        name, pte.vpn,
                    )


class TestWalkAgreement:
    def test_mixed_size_walks_agree(self):
        ptes = [PTE(vpn=v, ppn=v + 1, page_size=PageSize.SIZE_4K)
                for v in range(100)]
        ptes += [
            PTE(vpn=1024 + 512 * i, ppn=5000 + i, page_size=PageSize.SIZE_2M)
            for i in range(8)
        ]
        schemes = all_schemes()
        schemes["lvm"].begin_batch()
        for pte in ptes:
            for table in schemes.values():
                table.map(PTE(vpn=pte.vpn, ppn=pte.ppn, page_size=pte.page_size))
        schemes["lvm"].end_batch()
        # Interior huge-page queries: hashed page tables key per-size
        # VPNs internally, everything else rounds down.
        for query in (1024 + 5, 1024 + 511, 1536 + 300, 50):
            expected = None
            for pte in ptes:
                if pte.covers(query):
                    expected = pte.ppn
            for name, table in schemes.items():
                if name == "hashed" and query not in {p.vpn for p in ptes}:
                    continue  # classic HPT cannot resolve interior VPNs
                found = table.find(query)
                got = None if found is None else found.ppn
                assert got == expected, (name, query)
