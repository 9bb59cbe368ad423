"""Tests for the shared address/page-size/PTE types."""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.types import (
    PTE,
    AccessKind,
    PageSize,
    Permission,
    WalkAccess,
    WalkResult,
    align_down,
    align_up,
    va_of,
    vpn_of,
)


class TestPageSize:
    def test_values_are_bytes(self):
        assert PageSize.SIZE_4K == 4096
        assert PageSize.SIZE_2M == 2 * 1024 * 1024
        assert PageSize.SIZE_1G == 1 << 30

    def test_shift(self):
        assert PageSize.SIZE_4K.shift == 12
        assert PageSize.SIZE_2M.shift == 21
        assert PageSize.SIZE_1G.shift == 30

    def test_pages_4k(self):
        assert PageSize.SIZE_4K.pages_4k == 1
        assert PageSize.SIZE_2M.pages_4k == 512
        assert PageSize.SIZE_1G.pages_4k == 512 * 512

    def test_encode_decode_roundtrip(self):
        for size in PageSize:
            assert PageSize.decode(size.encode()) is size

    def test_encoding_fits_two_bits(self):
        for size in PageSize:
            assert 0 <= size.encode() < 4


class TestVPNHelpers:
    def test_vpn_of(self):
        assert vpn_of(0) == 0
        assert vpn_of(4095) == 0
        assert vpn_of(4096) == 1
        assert vpn_of(0xDEAD_BEEF_000) == 0xDEAD_BEEF_000 >> 12

    def test_va_of_inverts_vpn_of(self):
        for vpn in (0, 1, 12345, 1 << 35):
            assert vpn_of(va_of(vpn)) == vpn

    def test_align(self):
        assert align_down(4097, 4096) == 4096
        assert align_up(4097, 4096) == 8192
        assert align_up(4096, 4096) == 4096


class TestPTE:
    def test_covers_4k(self):
        pte = PTE(vpn=100, ppn=5)
        assert pte.covers(100)
        assert not pte.covers(101)
        assert not pte.covers(99)

    def test_covers_2m(self):
        pte = PTE(vpn=1024, ppn=5, page_size=PageSize.SIZE_2M)
        assert pte.covers(1024)
        assert pte.covers(1024 + 511)
        assert not pte.covers(1024 + 512)
        assert not pte.covers(1023)

    def test_translate_4k(self):
        pte = PTE(vpn=100, ppn=7)
        va = (100 << 12) + 0x123
        assert pte.translate(va) == (7 << 12) + 0x123

    def test_translate_2m_interior(self):
        pte = PTE(vpn=1024, ppn=4096, page_size=PageSize.SIZE_2M)
        va = (1024 + 37) << 12
        expected = 4096 * 4096 + 37 * 4096
        assert pte.translate(va) == expected

    def test_default_flags(self):
        pte = PTE(vpn=0, ppn=0)
        assert pte.present and not pte.accessed and not pte.dirty
        assert pte.perms == Permission.RW


class TestIntegrityTag:
    @settings(max_examples=300, deadline=None)
    @given(vpn=st.integers(min_value=0, max_value=(1 << 35) - 1),
           ppn=st.integers(min_value=0, max_value=(1 << 40) - 1),
           size=st.sampled_from(list(PageSize)),
           fld=st.sampled_from(["vpn", "ppn"]),
           bit=st.integers(min_value=0, max_value=63))
    @example(vpn=0, ppn=0, size=PageSize.SIZE_4K, fld="vpn", bit=32)
    @example(vpn=0, ppn=0, size=PageSize.SIZE_4K, fld="ppn", bit=39)
    def test_every_single_bit_flip_is_detected(self, vpn, ppn, size, fld, bit):
        """A flip of any one of bits 0-63 of ``vpn`` or ``ppn`` fails
        the integrity check (the fault injector flips bits 0-39)."""
        pte = PTE(vpn, ppn, size)
        assert pte.is_intact()
        assert not pte.with_bitflip(fld, bit).is_intact()


class TestWalkResult:
    def test_hit_and_miss(self):
        assert WalkResult(PTE(vpn=0, ppn=0), []).hit
        assert not WalkResult(None, []).hit

    def test_num_accesses(self):
        accesses = [WalkAccess(0x1000, AccessKind.PT_NODE, level=4)]
        assert WalkResult(None, accesses).num_accesses == 1


def _dataclass_pte():
    """The dataclass ``PTE`` that the slotted class replaced, as it
    was but for the integrity tag's mask (32 bits then, 64 now): the
    reference for equality, repr, the integrity tag and bit flips."""

    @dataclass
    class PTE:
        vpn: int
        ppn: int
        page_size: PageSize = PageSize.SIZE_4K
        perms: Permission = Permission.RW
        accessed: bool = False
        dirty: bool = False
        present: bool = True

        def __post_init__(self) -> None:
            self._tag = self._integrity_tag()

        def _integrity_tag(self) -> int:
            return (
                self.vpn * 0x9E3779B97F4A7C15
                + self.ppn * 0xC2B2AE3D27D4EB4F
                + self.page_size
            ) & 0xFFFFFFFFFFFFFFFF

        def is_intact(self) -> bool:
            return getattr(self, "_tag", None) == self._integrity_tag()

        def with_bitflip(self, fld: str = "ppn", bit: int = 0) -> "PTE":
            twin = PTE(
                vpn=self.vpn,
                ppn=self.ppn,
                page_size=self.page_size,
                perms=self.perms,
                accessed=self.accessed,
                dirty=self.dirty,
                present=self.present,
            )
            setattr(twin, fld, getattr(twin, fld) ^ (1 << bit))
            return twin

    PTE.__qualname__ = "PTE"
    return PTE


ReferencePTE = _dataclass_pte()

_pte_fields = st.tuples(
    st.integers(min_value=0, max_value=(1 << 35) - 1),
    st.integers(min_value=0, max_value=(1 << 40) - 1),
    st.sampled_from(list(PageSize)),
    st.sampled_from([Permission.RW, Permission.RX, Permission.READ, Permission.NONE]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


def _as_fields(pte):
    return (pte.vpn, pte.ppn, pte.page_size, pte.perms,
            pte.accessed, pte.dirty, pte.present)


class TestPTEMatchesDataclass:
    """The slotted ``PTE`` behaves as the dataclass it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(a=_pte_fields, b=_pte_fields, fld=st.sampled_from(["vpn", "ppn"]),
           bit=st.integers(min_value=0, max_value=39))
    def test_eq_repr_tag_and_bitflip(self, a, b, fld, bit):
        new_a, new_b = PTE(*a), PTE(*b)
        ref_a, ref_b = ReferencePTE(*a), ReferencePTE(*b)
        assert repr(new_a) == repr(ref_a)
        assert new_a._tag == ref_a._tag
        assert (new_a == new_b) == (ref_a == ref_b)
        assert new_a == PTE(*a) and ref_a == ReferencePTE(*a)
        assert new_a.is_intact() and ref_a.is_intact()
        new_twin, ref_twin = new_a.with_bitflip(fld, bit), ref_a.with_bitflip(fld, bit)
        assert _as_fields(new_twin) == _as_fields(ref_twin)
        assert new_twin._tag == ref_twin._tag
        assert new_twin.is_intact() == ref_twin.is_intact()
        # Flags mutate legitimately; translation fields trip the tag.
        for pte in (new_a, ref_a):
            pte.accessed, pte.dirty, pte.perms = True, True, Permission.RWX
        assert new_a.is_intact() and ref_a.is_intact()
        new_a.ppn = ref_a.ppn = a[1] ^ 1
        assert new_a.is_intact() == ref_a.is_intact() is False

    def test_keyword_construction_and_defaults(self):
        new = PTE(vpn=5, ppn=9, dirty=True)
        assert repr(new) == repr(ReferencePTE(vpn=5, ppn=9, dirty=True))

    def test_comparison_with_other_types(self):
        assert (PTE(1, 2) == (1, 2)) is False
        assert PTE(1, 2).__eq__(ReferencePTE(1, 2)) is NotImplemented
        assert PTE(1, 2) != ReferencePTE(1, 2)

    def test_unhashable_like_the_dataclass(self):
        assert PTE.__hash__ is None and ReferencePTE.__hash__ is None
        with pytest.raises(TypeError):
            hash(PTE(1, 2))

    def test_no_instance_dict(self):
        pte = PTE(1, 2)
        assert not hasattr(pte, "__dict__")
        with pytest.raises(AttributeError):
            pte.color = "red"
