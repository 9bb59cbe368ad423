"""Open-addressing hashed page table with a Blake2 hash.

The paper's section 7.3 collision study compares LVM against "a hash
table that has a load factor of 0.6 and uses the state-of-the-art hash
function Blake2".  This module is that baseline: open addressing with
linear probing, `hashlib.blake2b`-derived slot indexes, resizing to
stay at the configured load factor.

It doubles as a classic single-hash hashed page table (section 2.2)
when used as a translation scheme: one probe in the collision-free
case, extra sequential probes to resolve collisions.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.errors import DuplicateMappingError
from repro.mem.allocator import BumpAllocator, PhysicalAllocator
from repro.types import (
    PTE,
    PTE_SIZE,
    AccessKind,
    CACHE_LINE_SIZE,
    TranslationError,
    WalkAccess,
    WalkResult,
)


def blake2_slot(vpn: int, capacity: int, salt: int = 0) -> int:
    """Blake2b-based slot index for a VPN."""
    digest = hashlib.blake2b(
        vpn.to_bytes(8, "little"), digest_size=8, salt=salt.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little") % capacity


class HashedPageTable:
    """Blake2 open-addressing hashed page table (load factor 0.6)."""

    def __init__(
        self,
        allocator: Optional[PhysicalAllocator] = None,
        initial_capacity: int = 1024,
        max_load: float = 0.6,
    ):
        if not 0.0 < max_load < 1.0:
            raise ValueError("max_load must be in (0, 1)")
        self.allocator = allocator or BumpAllocator()
        self.max_load = max_load
        self._capacity = initial_capacity
        self._slots: List[Optional[PTE]] = [None] * initial_capacity
        self._occupied = 0
        self.base_paddr = self.allocator.alloc(initial_capacity * PTE_SIZE)
        self._allocated = initial_capacity * PTE_SIZE
        # Collision statistics for the section 7.3 study.
        self.lookups = 0
        self.collided_lookups = 0
        self.total_extra_probes = 0

    # -- geometry ------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def occupied(self) -> int:
        return self._occupied

    @property
    def load_factor(self) -> float:
        return self._occupied / self._capacity

    def _slot_paddr(self, slot: int) -> int:
        return self.base_paddr + slot * PTE_SIZE

    # -- resize --------------------------------------------------------
    def _maybe_resize(self) -> None:
        if (self._occupied + 1) / self._capacity <= self.max_load:
            return
        old = [e for e in self._slots if e is not None]
        self.allocator.free(self.base_paddr, self._allocated)
        self._capacity *= 2
        self._slots = [None] * self._capacity
        self._occupied = 0
        self._allocated = self._capacity * PTE_SIZE
        self.base_paddr = self.allocator.alloc(self._allocated)
        for pte in old:
            self._insert_no_resize(pte)

    def _insert_no_resize(self, pte: PTE) -> None:
        slot = blake2_slot(pte.vpn, self._capacity)
        for probe in range(self._capacity):
            candidate = (slot + probe) % self._capacity
            entry = self._slots[candidate]
            if entry is None:
                self._slots[candidate] = pte
                self._occupied += 1
                return
            if entry.vpn == pte.vpn:
                raise DuplicateMappingError(f"VPN {pte.vpn:#x} already mapped")
        raise TranslationError("hash table unexpectedly full")

    # -- PageTable interface --------------------------------------------
    def map(self, pte: PTE) -> None:
        self._maybe_resize()
        self._insert_no_resize(pte)

    def unmap(self, vpn: int) -> PTE:
        slot = blake2_slot(vpn, self._capacity)
        for probe in range(self._capacity):
            candidate = (slot + probe) % self._capacity
            entry = self._slots[candidate]
            if entry is None:
                break
            if entry.vpn == vpn:
                # Tombstone-free removal: re-insert the displaced run.
                self._slots[candidate] = None
                self._occupied -= 1
                run = []
                nxt = (candidate + 1) % self._capacity
                while self._slots[nxt] is not None:
                    run.append(self._slots[nxt])
                    self._slots[nxt] = None
                    self._occupied -= 1
                    nxt = (nxt + 1) % self._capacity
                for displaced in run:
                    self._insert_no_resize(displaced)
                return entry
        raise TranslationError(f"VPN {vpn:#x} is not mapped")

    def _probe(self, vpn: int) -> Tuple[Optional[PTE], int, List[int]]:
        """Returns (entry, slot probes, cache-line paddrs touched).

        Slot probes drive the paper's collision metric (a collision is
        another entry sitting in the predicted slot); distinct cache
        lines drive the memory-access accounting.
        """
        slot = blake2_slot(vpn, self._capacity)
        paddrs: List[int] = []
        seen_lines = set()
        probes = 0
        for probe in range(self._capacity):
            candidate = (slot + probe) % self._capacity
            probes += 1
            line = self._slot_paddr(candidate) // CACHE_LINE_SIZE
            if line not in seen_lines:
                seen_lines.add(line)
                paddrs.append(line * CACHE_LINE_SIZE)
            entry = self._slots[candidate]
            if entry is None:
                return None, probes, paddrs
            if entry.covers(vpn):
                return entry, probes, paddrs
        return None, probes, paddrs

    def _probe_multi(self, vpn: int) -> Tuple[Optional[PTE], int, List[int]]:
        """Probe each supported page size in turn (the classic HPT
        answer to multiple page sizes: one probe round per size, keyed
        by the size-aligned first VPN — one reason the paper calls
        per-size structures inefficient)."""
        from repro.types import PageSize

        total_probes = 0
        all_paddrs: List[int] = []
        for size in (PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G):
            aligned = vpn - (vpn % size.pages_4k)
            pte, probes, paddrs = self._probe(aligned)
            total_probes += probes
            all_paddrs.extend(paddrs)
            if pte is not None and pte.covers(vpn):
                return pte, total_probes, all_paddrs
        return None, total_probes, all_paddrs

    def walk(self, vpn: int) -> WalkResult:
        self.lookups += 1
        pte, probes, paddrs = self._probe_multi(vpn)
        if probes > 1:
            self.collided_lookups += 1
            self.total_extra_probes += probes - 1
        accesses = [
            WalkAccess(p, AccessKind.PT_LEAF, level=1) for p in paddrs
        ]
        return WalkResult(pte, accesses)

    def find(self, vpn: int) -> Optional[PTE]:
        pte, _, _ = self._probe_multi(vpn)
        return pte

    def mappings(self) -> List[PTE]:
        """Every installed translation, in VPN order."""
        return sorted(
            (e for e in self._slots if e is not None), key=attrgetter("vpn")
        )

    @property
    def collision_rate(self) -> float:
        return self.collided_lookups / self.lookups if self.lookups else 0.0

    @property
    def table_bytes(self) -> int:
        return self._allocated
