"""Shared virtual-memory types used across the whole library.

Addresses are plain Python integers interpreted as 64-bit values.  The
canonical translation granule is the 4 KB *base page*: a virtual page
number (VPN) is ``va >> 12`` regardless of the size of the mapping that
covers it.  Larger pages (2 MB, 1 GB) are identified by the VPN of their
first 4 KB sub-page, exactly as LVM trains its index (paper section 4.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import TranslationError

__all__ = [
    "AccessKind",
    "BASE_PAGE_SHIFT",
    "BASE_PAGE_SIZE",
    "CACHE_LINE_SIZE",
    "PTE",
    "PTE_SIZE",
    "PageSize",
    "Permission",
    "TranslationError",
    "WalkAccess",
    "WalkResult",
    "align_down",
    "align_up",
    "va_of",
    "vpn_of",
]

BASE_PAGE_SHIFT = 12
BASE_PAGE_SIZE = 1 << BASE_PAGE_SHIFT
CACHE_LINE_SIZE = 64
PTE_SIZE = 8

# A PTE's integrity tag is ``(vpn * PTE_TAG_VPN_MULT + ppn *
# PTE_TAG_PPN_MULT + page_size) & PTE_TAG_MASK``; :class:`PTE` computes
# and checks it.  Both multipliers are odd and the tag keeps 64 bits, so
# a flip of any one of bits 0-63 of ``vpn`` or ``ppn`` changes the tag.
PTE_TAG_VPN_MULT = 0x9E3779B97F4A7C15
PTE_TAG_PPN_MULT = 0xC2B2AE3D27D4EB4F
PTE_TAG_MASK = 0xFFFFFFFFFFFFFFFF


class PageSize(enum.IntEnum):
    """Page sizes supported by the translation schemes.

    The integer value is the page size in bytes; ``encode()`` gives the
    2-bit size field stored in LVM translation entries (section 4.4).
    """

    SIZE_4K = 1 << 12
    SIZE_2M = 1 << 21
    SIZE_1G = 1 << 30

    @property
    def shift(self) -> int:
        return self.bit_length() - 1

    @property
    def pages_4k(self) -> int:
        """Number of 4 KB base pages spanned by one page of this size."""
        # Shifting the member itself skips the enum's ``.value``
        # descriptor; population and LVM inserts call this per page.
        return self >> BASE_PAGE_SHIFT

    def encode(self) -> int:
        """The 2-bit size encoding used inside translation entries."""
        return {PageSize.SIZE_4K: 0, PageSize.SIZE_2M: 1, PageSize.SIZE_1G: 2}[self]

    @staticmethod
    def decode(bits: int) -> "PageSize":
        return (PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G)[bits]


def vpn_of(va: int) -> int:
    """Base-page (4 KB) virtual page number of a virtual address."""
    return va >> BASE_PAGE_SHIFT


def va_of(vpn: int) -> int:
    """First virtual address covered by a base-page VPN."""
    return vpn << BASE_PAGE_SHIFT


def align_down(value: int, alignment: int) -> int:
    return value - (value % alignment)


def align_up(value: int, alignment: int) -> int:
    return align_down(value + alignment - 1, alignment)


class Permission(enum.IntFlag):
    """POSIX-style mapping permissions carried by PTEs and VMAs."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4
    RW = READ | WRITE
    RX = READ | EXEC
    RWX = READ | WRITE | EXEC


class PTE:
    """A page-table entry: one virtual-to-physical translation.

    ``vpn`` is always the 4 KB VPN of the *first* sub-page of the
    mapping; ``page_size`` records the actual translation size.

    A ``__slots__`` class rather than a dataclass: population mints one
    entry per mapped page, and a slotted instance with its tag computed
    in ``__init__`` costs about half the time and no per-instance dict.
    ``__eq__``, ``__repr__`` and ``__hash__`` are those the former
    dataclass generated (``dataclass(slots=True)`` needs Python 3.10).
    """

    __slots__ = ("vpn", "ppn", "page_size", "perms", "accessed", "dirty", "present", "_tag")

    def __init__(
        self,
        vpn: int,
        ppn: int,
        page_size: PageSize = PageSize.SIZE_4K,
        perms: Permission = Permission.RW,
        accessed: bool = False,
        dirty: bool = False,
        present: bool = True,
    ) -> None:
        self.vpn = vpn
        self.ppn = ppn
        self.page_size = page_size
        self.perms = perms
        self.accessed = accessed
        self.dirty = dirty
        self.present = present
        # Integrity tag over the translation-defining fields, the
        # software stand-in for the parity/ECC bits hardware keeps on
        # page-table entries.  ``accessed``/``dirty``/``perms`` mutate
        # legitimately and are excluded.  Inlined :meth:`_integrity_tag`.
        self._tag = (
            vpn * PTE_TAG_VPN_MULT + ppn * PTE_TAG_PPN_MULT + page_size
        ) & PTE_TAG_MASK

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.vpn, self.ppn, self.page_size, self.perms,
                self.accessed, self.dirty, self.present,
            ) == (
                other.vpn, other.ppn, other.page_size, other.perms,
                other.accessed, other.dirty, other.present,
            )
        return NotImplemented

    # Mutable and compared by value: unhashable, as the dataclass was.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(vpn={self.vpn!r}, ppn={self.ppn!r}, "
            f"page_size={self.page_size!r}, perms={self.perms!r}, "
            f"accessed={self.accessed!r}, dirty={self.dirty!r}, "
            f"present={self.present!r})"
        )

    def _integrity_tag(self) -> int:
        # ``page_size`` is an IntEnum: adding the member itself equals
        # adding its ``.value``, without the enum descriptor call that
        # bulk population would pay once per page.
        return (
            self.vpn * PTE_TAG_VPN_MULT + self.ppn * PTE_TAG_PPN_MULT + self.page_size
        ) & PTE_TAG_MASK

    def is_intact(self) -> bool:
        """Whether the entry passes its integrity check (no bit flips in
        vpn/ppn/page_size since construction)."""
        return getattr(self, "_tag", None) == self._integrity_tag()

    def with_bitflip(self, fld: str = "ppn", bit: int = 0) -> "PTE":
        """A *corrupted copy* of this entry: one bit flipped in ``fld``
        (``"vpn"`` or ``"ppn"``) while the integrity tag keeps its
        pre-flip value, so :meth:`is_intact` fails.

        Used by the fault injector; the original object (the OS's
        authoritative record) is never mutated.
        """
        twin = PTE(
            vpn=self.vpn,
            ppn=self.ppn,
            page_size=self.page_size,
            perms=self.perms,
            accessed=self.accessed,
            dirty=self.dirty,
            present=self.present,
        )
        # Mutate *after* __init__ so the tag is stale by one flip.
        setattr(twin, fld, getattr(twin, fld) ^ (1 << bit))
        return twin

    def covers(self, vpn: int) -> bool:
        """Whether this entry translates the given 4 KB VPN."""
        # ``page_size >> BASE_PAGE_SHIFT`` == ``page_size.pages_4k``;
        # the raw shift skips the enum property on a hot path.
        base = self.vpn
        return base <= vpn < base + (self.page_size >> BASE_PAGE_SHIFT)

    def translate(self, va: int) -> int:
        """Physical address for a virtual address inside this mapping."""
        # ``align_down`` inlined: this runs once per simulated reference.
        size = self.page_size
        base_va = self.vpn << BASE_PAGE_SHIFT
        return self.ppn * BASE_PAGE_SIZE + (va - (base_va - base_va % size))


class AccessKind(enum.Enum):
    """What a memory access issued during a page walk is fetching."""

    PT_NODE = "pt_node"  # internal page-table node / learned-index model
    PT_LEAF = "pt_leaf"  # leaf page-table entry (the PTE itself)
    CWT = "cwt"  # cuckoo walk table access (ECPT)
    PREFETCH = "prefetch"  # prefetcher-induced access (ASAP)
    DATA = "data"  # regular program data


class WalkAccess(NamedTuple):
    """One physical memory access performed by a hardware page walker.

    ``level`` tags the page-table level (radix) or learned-index depth
    (LVM) so walk caches can decide which accesses they short-circuit.
    Accesses in the same ``parallel_group`` are issued concurrently
    (ECPT's d-ary probes): latency is their max, traffic is their sum.

    A ``NamedTuple`` rather than a frozen dataclass: page walks build
    several of these per translation, and tuple construction is a
    fraction of the cost of ``object.__setattr__``-based init on the
    simulator's hottest path.
    """

    paddr: int
    kind: AccessKind
    level: int = 0
    parallel_group: int = 0


@dataclass
class WalkResult:
    """Outcome of a software page walk: the PTE plus the accesses a
    hardware walker would have performed to find it."""

    pte: "PTE | None"
    accesses: list = field(default_factory=list)

    @property
    def hit(self) -> bool:
        return self.pte is not None

    @property
    def num_accesses(self) -> int:
        return len(self.accesses)


# ``TranslationError`` historically lived here; it is now defined in
# :mod:`repro.errors` (re-exported above) so the whole exception
# hierarchy shares one root.
