"""Gapped page tables (paper section 4.2.2).

Each LVM leaf node owns a *gapped page table* (GPT): a small array of
8-byte translation-entry slots, sized ``ga_scale`` times the number of
keys it was trained over so that future insertions usually find an
empty slot exactly where the model predicts.  GPTs are allocated from
the physical allocator at whatever contiguity is available, so they are
the only physically-contiguous structures LVM needs — and they can be
as small as a single base page.

Slot accounting: a slot is 8 bytes, so a 64-byte cache line holds 8
slots.  Every operation reports the set of cache lines it touched; the
hardware walker turns those into memory accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.types import (
    BASE_PAGE_SHIFT,
    CACHE_LINE_SIZE,
    PTE,
    PTE_SIZE,
    PTE_TAG_MASK,
    PTE_TAG_PPN_MULT,
    PTE_TAG_VPN_MULT,
)

SLOTS_PER_LINE = CACHE_LINE_SIZE // PTE_SIZE


def _around(center: int, count: int, reach: int):
    """The slots a bounded search probes after ``center``, in order:
    ``center + 1``, ``center - 1``, ``center + 2``, ``center - 2``, ...
    up to ``reach`` steps each way, skipping those outside a table of
    ``count`` slots.  Searches probe ``center`` itself first, and build
    this only when they must go on: in a well-trained leaf most stop
    there, and building the chain costs about as much as that probe."""
    rights = range(center + 1, min(count, center + reach + 1))
    lefts = range(center - 1, max(-1, center - reach - 1), -1)
    both = min(len(rights), len(lefts))
    return chain(chain.from_iterable(zip(rights, lefts)), rights[both:], lefts[both:])


class GPTFullError(ReproError):
    """No free slot exists within the allowed displacement bound."""


@dataclass
class GPTLookup:
    """Result of a bounded lookup in a gapped page table.

    ``line_paddrs`` lists the physical addresses of the cache lines the
    search touched, in probe order: the first is the predicted line (the
    single access of a collision-free translation), the rest are the
    additional accesses of collision resolution.

    ``corrupt_seen`` is True when any probed entry failed its integrity
    check — the walker's cue to engage the degradation ladder even if a
    (seemingly) matching entry was found.
    """

    pte: Optional[PTE]
    slot: int
    line_paddrs: List[int]
    corrupt_seen: bool = False

    @property
    def hit(self) -> bool:
        return self.pte is not None

    @property
    def lines_touched(self) -> int:
        return len(self.line_paddrs)


class GappedPageTable:
    """A gapped array of translation entries owned by one leaf node."""

    def __init__(self, num_slots: int, base_paddr: int):
        if num_slots < 1:
            raise ValueError("a gapped page table needs at least one slot")
        self.base_paddr = base_paddr
        self._slots: List[Optional[PTE]] = [None] * num_slots
        self.occupied = 0
        # Largest |actual - predicted| displacement of any live entry;
        # bounds every lookup's search window.
        self.max_displacement = 0

    # -- geometry ------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self._slots)

    @property
    def size_bytes(self) -> int:
        return self.num_slots * PTE_SIZE

    def slot_paddr(self, slot: int) -> int:
        return self.base_paddr + slot * PTE_SIZE

    def line_of(self, slot: int) -> int:
        return self.slot_paddr(slot) // CACHE_LINE_SIZE

    def _clamp(self, slot: int) -> int:
        if slot < 0:
            return 0
        if slot >= self.num_slots:
            return self.num_slots - 1
        return slot

    # -- mutation ------------------------------------------------------
    def insert(self, predicted: int, pte: PTE, max_displacement: int) -> int:
        """Place ``pte`` at or near ``predicted``.

        Uses the paper's exponential search outward from the predicted
        slot to find the nearest free slot, but refuses placements
        farther than ``max_displacement`` (the caller then retrains the
        leaf instead, keeping the lookup search window sound).

        Returns the slot used.
        """
        slots = self._slots
        slot = center = self._clamp(predicted)
        if slots[center] is not None:
            for slot in _around(center, len(slots), max_displacement):
                if slots[slot] is None:
                    break
            else:
                raise GPTFullError(
                    f"no free slot within {max_displacement} of predicted {predicted}"
                )
        slots[slot] = pte
        self.occupied += 1
        disp = abs(slot - predicted)
        if disp > self.max_displacement:
            self.max_displacement = disp
        return slot

    def place(self, predictions: np.ndarray, ptes, max_displacement: int) -> None:
        """:meth:`insert` ``ptes[i]`` at ``predictions[i]`` for each i in
        order, leaving the same slots, ``occupied`` and
        ``max_displacement`` (and, on :class:`GPTFullError`, the same
        partial placement).

        A leaf's one placement routine, for builds and retrains.  Into
        an empty table, predictions that rise strictly inside the table
        put every entry straight at its predicted slot, which is where
        each insert would have put it; anything else runs the insert's
        bounded search, entry by entry.
        """
        slots = self._slots
        count = len(predictions)
        if (
            not self.occupied
            and count
            and 0 <= predictions[0]
            and predictions[-1] < len(slots)
            and bool((predictions[1:] > predictions[:-1]).all())
        ):
            for slot, pte in zip(predictions.tolist(), ptes):
                slots[slot] = pte
            self.occupied = count
            return
        insert = self.insert
        for predicted, pte in zip(predictions.tolist(), ptes):
            insert(predicted, pte, max_displacement)

    def bulk_place(self, predictions, ptes) -> None:
        """Place sorted entries by rightward packing: entry i goes to
        ``max(prediction_i, previous_slot + 1)``.

        Used when a leaf is built *past* the error bound (degraded
        leaves at the guardrails): per-entry exponential search would
        cost O(n * displacement) there, while packing is O(n) and keeps
        entries in key order with the same worst-case displacement the
        search window already accounts for.
        """
        cursor = -1
        for predicted, pte in zip(predictions, ptes):
            slot = predicted if predicted > cursor else cursor + 1
            slot = self._clamp(slot)
            while slot < self.num_slots and self._slots[slot] is not None:
                slot += 1
            if slot >= self.num_slots:
                raise GPTFullError("bulk placement ran off the table")
            self._slots[slot] = pte
            self.occupied += 1
            cursor = slot
            disp = abs(slot - predicted)
            if disp > self.max_displacement:
                self.max_displacement = disp

    def remove(self, slot: int) -> PTE:
        pte = self._slots[slot]
        if pte is None:
            raise KeyError(f"slot {slot} is empty")
        # Section 5.2 "Free": the slot is cleared but the gap is kept so
        # later allocations can reuse it; the model is untouched.
        self._slots[slot] = None
        self.occupied -= 1
        return pte

    def expand(self, extra_slots: int, new_base_paddr: Optional[int] = None) -> None:
        """Grow the table for an out-of-bounds rescale (section 4.3.4).

        Existing entries keep their slots, so no retraining and no LWC
        or TLB flush is needed.  ``new_base_paddr`` lets the caller
        model a reallocation; slot *indexes* are what the model
        predicts, so moving the base is transparent to the model.
        """
        if extra_slots < 0:
            raise ValueError("cannot shrink a gapped page table")
        self._slots.extend([None] * extra_slots)
        if new_base_paddr is not None:
            self.base_paddr = new_base_paddr

    # -- lookup ----------------------------------------------------------
    def lookup(self, predicted: int, query_vpn: int, window: int) -> GPTLookup:
        """Find the entry translating ``query_vpn`` near ``predicted``.

        Implements the bounded collision-resolution search of section
        4.3.3, extended with the predecessor semantics of section 4.4:
        an entry matches if its mapping *covers* the query VPN, which
        rounds queries inside a huge page down to the huge page's entry.

        ``window`` bounds the scan (slots on each side).  The number of
        distinct cache lines touched is reported so the walker can
        account for every additional memory access.  An entry that
        fails its integrity check is never trusted: it flags the walk
        (``corrupt_seen``) and the search goes on.

        The first probe is the predicted slot (clamped into the table);
        the rest follow :func:`_around`'s order.  The probed slots
        always form one run, so a probe touches a new cache line
        exactly when its line lies outside the run's lines so far.
        """
        slots = self._slots
        center = self._clamp(predicted)
        base = self.base_paddr
        low_line = high_line = (base + center * PTE_SIZE) // CACHE_LINE_SIZE
        line_paddrs = [low_line * CACHE_LINE_SIZE]
        corrupt = False
        entry = slots[center]
        if entry is not None:
            if not entry.is_intact():
                corrupt = True
            elif entry.covers(query_vpn):
                return GPTLookup(entry, center, line_paddrs, False)
        for slot in _around(center, len(slots), window):
            line = (base + slot * PTE_SIZE) // CACHE_LINE_SIZE
            if line > high_line:
                high_line = line
                line_paddrs.append(line * CACHE_LINE_SIZE)
            elif line < low_line:
                low_line = line
                line_paddrs.append(line * CACHE_LINE_SIZE)
            entry = slots[slot]
            if entry is None:
                continue
            first = entry.vpn
            if entry._tag != (
                first * PTE_TAG_VPN_MULT + entry.ppn * PTE_TAG_PPN_MULT + entry.page_size
            ) & PTE_TAG_MASK:
                # Parity failure: never trust the entry, flag the walk.
                corrupt = True
            elif first <= query_vpn < first + (entry.page_size >> BASE_PAGE_SHIFT):
                return GPTLookup(entry, slot, line_paddrs, corrupt)
        return GPTLookup(None, -1, line_paddrs, corrupt)

    def lookup_sorted(self, predicted: int, query_vpn: int, window: int) -> GPTLookup:
        """Bounded *binary* search for the entry covering ``query_vpn``.

        Usable when entries are in key order (bulk-packed degraded
        leaves): this is the paper's "binary search ... within the
        model's min and max error range" (section 2.3 / 4.3.3), costing
        O(log window) line touches instead of a linear scan.

        Each step reads the nearest trustworthy entry at or left of the
        midpoint (down to the window's left edge).  Corrupt entries
        cannot steer the search (a flipped vpn breaks the key order it
        relies on); they are flagged and skipped.
        """
        slots = self._slots
        lo = max(0, predicted - window)
        hi = min(len(slots) - 1, predicted + window)
        base = self.base_paddr
        seen = set()
        line_paddrs: List[int] = []
        corrupt = False
        # Binary search for the rightmost entry with vpn <= query.
        best = None
        low, high = lo, hi
        while low <= high:
            mid = (low + high) // 2
            slot = mid
            while slot >= lo:
                line = (base + slot * PTE_SIZE) // CACHE_LINE_SIZE
                if line not in seen:
                    seen.add(line)
                    line_paddrs.append(line * CACHE_LINE_SIZE)
                entry = slots[slot]
                if entry is not None:
                    if entry._tag == (
                        entry.vpn * PTE_TAG_VPN_MULT
                        + entry.ppn * PTE_TAG_PPN_MULT
                        + entry.page_size
                    ) & PTE_TAG_MASK:
                        break
                    corrupt = True
                slot -= 1
            else:
                # No trustworthy entry at or left of ``mid``.
                low = mid + 1
                continue
            if entry.vpn <= query_vpn:
                best = slot
                low = mid + 1
            else:
                high = slot - 1
        if best is not None:
            entry = slots[best]
            first = entry.vpn
            if first <= query_vpn < first + (entry.page_size >> BASE_PAGE_SHIFT):
                return GPTLookup(entry, best, line_paddrs, corrupt)
        return GPTLookup(None, -1, line_paddrs, corrupt)

    def find_slot(self, predicted: int, vpn: int, window: int) -> int:
        """Slot index holding the intact entry whose first VPN is
        ``vpn``: the predicted slot first, then :func:`_around`'s
        order.

        Used by unmap and permission updates, which must locate the
        exact entry rather than any covering mapping.
        """
        slots = self._slots
        center = self._clamp(predicted)
        entry = slots[center]
        if entry is not None and entry.vpn == vpn and entry.is_intact():
            return center
        for slot in _around(center, len(slots), window):
            entry = slots[slot]
            if entry is not None and entry.vpn == vpn and entry.is_intact():
                return slot
        raise KeyError(f"vpn {vpn:#x} not present near slot {predicted}")

    def scan(self, query_vpn: int) -> GPTLookup:
        """Exhaustive scan of the whole table for an *intact* entry
        covering ``query_vpn`` — the second rung of the degradation
        ladder, used when the bounded search came up empty or tripped
        over corruption.

        Touches every cache line of the table (all are reported, so the
        walker charges the scan's full memory cost).
        """
        line_paddrs: List[int] = []
        seen = set()
        corrupt = False
        found: Optional[PTE] = None
        found_slot = -1
        for slot, entry in enumerate(self._slots):
            line = self.line_of(slot)
            if line not in seen:
                seen.add(line)
                line_paddrs.append(line * CACHE_LINE_SIZE)
            if entry is None:
                continue
            if not entry.is_intact():
                corrupt = True
                continue
            if found is None and entry.covers(query_vpn):
                found = entry
                found_slot = slot
        return GPTLookup(found, found_slot, line_paddrs, corrupt)

    def corrupt_slot(self, slot: int, fld: str = "ppn", bit: int = 0) -> None:
        """Fault-injection hook: replace the entry at ``slot`` with a
        bit-flipped *copy* whose integrity tag is stale.

        The original PTE object (shared with the OS's authoritative
        mapping records) is never mutated, so recovery by retraining
        from the authoritative set restores correctness.
        """
        entry = self._slots[slot]
        if entry is None:
            raise KeyError(f"slot {slot} is empty; cannot corrupt it")
        self._slots[slot] = entry.with_bitflip(fld=fld, bit=bit)

    def corrupt_entry_count(self) -> int:
        """Live entries currently failing their integrity check."""
        return sum(
            1 for e in self._slots if e is not None and not e.is_intact()
        )

    def entries(self) -> List[Tuple[int, PTE]]:
        """All (slot, entry) pairs, in slot order."""
        return [(i, e) for i, e in enumerate(self._slots) if e is not None]

    def clear(self) -> None:
        self._slots = [None] * self.num_slots
        self.occupied = 0
        self.max_displacement = 0
