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
from itertools import chain, compress, count, islice
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.types import BASE_PAGE_SHIFT, CACHE_LINE_SIZE, PTE, PTE_SIZE

SLOTS_PER_LINE = CACHE_LINE_SIZE // PTE_SIZE


def _nearest(slots: list, center: int, reach: int, first, key) -> int:
    """The slot a bounded search reaches first among those ``first``
    accepts, when it probes ``center + 1``, ``center - 1``,
    ``center + 2``, ``center - 2``, ... up to ``reach`` steps each way,
    inside the table; -1 if it accepts none.

    ``first(slots, probes, key)`` returns the first slot of the
    ``range`` ``probes`` that it accepts, or -1.  The search scans the
    right side to its first accepted slot, then the left side only
    while a left slot would still come first: nearer, since at equal
    distance the right one is probed first.  Each side is one loop
    over a ``range`` clipped to the table.
    """
    right = first(slots, range(center + 1, min(len(slots), center + reach + 1)), key)
    last = center - reach if right < 0 else 2 * center - right + 1
    left = first(slots, range(center - 1, max(0, last) - 1, -1), key)
    return left if left >= 0 else right


def _first_free(slots: list, probes: range, _key) -> int:
    for slot in probes:
        if slots[slot] is None:
            return slot
    return -1


def _first_covering(slots: list, probes: range, vpn: int) -> int:
    """First slot whose entry covers ``vpn`` and passes its check."""
    for slot in probes:
        entry = slots[slot]
        if entry is not None:
            first = entry.vpn
            if (
                first <= vpn < first + (entry.page_size >> BASE_PAGE_SHIFT)
                and entry.is_intact()
            ):
                return slot
    return -1


def _first_starting_at(slots: list, probes: range, vpn: int) -> int:
    """First slot whose entry's first VPN is ``vpn`` and passes its
    check."""
    for slot in probes:
        entry = slots[slot]
        if entry is not None and entry.vpn == vpn and entry.is_intact():
            return slot
    return -1


def _run_lines(base: int, center: int, lo: int, hi: int) -> List[int]:
    """The cache lines of slots ``lo..hi`` in the order a search probing
    outward from ``center`` (right before left at each distance) first
    touches them.

    A line holds :data:`SLOTS_PER_LINE` slots, so the run's lines right
    of the centre's line are reached at distances ``k, k + 8, ...`` and
    those left of it at ``9 - k, 17 - k, ...``, where ``k`` (1 to 8) is
    the distance from ``center`` to the first slot of the next line:
    the two sides alternate, starting with the nearer one, until one of
    them runs out.
    """
    line = (base + center * PTE_SIZE) // CACHE_LINE_SIZE * CACHE_LINE_SIZE
    rights = range(
        line + CACHE_LINE_SIZE,
        (base + hi * PTE_SIZE) // CACHE_LINE_SIZE * CACHE_LINE_SIZE + 1,
        CACHE_LINE_SIZE,
    )
    lefts = range(
        line - CACHE_LINE_SIZE,
        (base + lo * PTE_SIZE) // CACHE_LINE_SIZE * CACHE_LINE_SIZE - 1,
        -CACHE_LINE_SIZE,
    )
    if (base + center * PTE_SIZE) % CACHE_LINE_SIZE >= CACHE_LINE_SIZE // 2:
        first, second = rights, lefts
    else:
        first, second = lefts, rights
    lines = [line]
    lines += chain.from_iterable(zip(first, second))
    both = min(len(first), len(second))
    lines += first[both:]
    lines += second[both:]
    return lines


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
    """A gapped array of translation entries owned by one leaf node.

    ``trusted`` is True while the table provably holds no entry that
    fails its integrity check, and the in-leaf searches then skip that
    check on the entries they pass over.  Trust starts where the table
    is empty and its own placement fills it from the OS's records,
    which are never damaged: :meth:`place` or :meth:`bulk_place` into
    an empty table, and :meth:`clear`.  It ends at the first
    :meth:`corrupt_slot` or at an :meth:`insert` of an entry that fails
    its check.  A table filled any other way (a test writing
    ``_slots``) is never trusted, and every search of it checks every
    entry it probes.
    """

    def __init__(self, num_slots: int, base_paddr: int):
        if num_slots < 1:
            raise ValueError("a gapped page table needs at least one slot")
        self.base_paddr = base_paddr
        self._slots: List[Optional[PTE]] = [None] * num_slots
        self.occupied = 0
        # Largest |actual - predicted| displacement of any live entry;
        # bounds every lookup's search window.
        self.max_displacement = 0
        self.trusted = False

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
        leaf instead, keeping the lookup search window sound).  An
        entry that fails its integrity check withdraws the table's
        trust.

        Returns the slot used.
        """
        if not pte.is_intact():
            self.trusted = False
        return self._put(predicted, pte, max_displacement)

    def _put(self, predicted: int, pte: PTE, max_displacement: int) -> int:
        slots = self._slots
        slot = self._clamp(predicted)
        if slots[slot] is not None:
            slot = _nearest(slots, slot, max_displacement, _first_free, None)
            if slot < 0:
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

        A leaf's one placement routine, for builds and retrains, from
        the OS's records: into an empty table it starts trust.  Into
        an empty table, predictions that rise strictly inside the table
        put every entry straight at its predicted slot, which is where
        each insert would have put it; anything else runs the insert's
        bounded search, entry by entry.
        """
        slots = self._slots
        count = len(predictions)
        if not self.occupied:
            self.trusted = True
            if (
                count
                and 0 <= predictions[0]
                and predictions[-1] < len(slots)
                and bool((predictions[1:] > predictions[:-1]).all())
            ):
                for slot, pte in zip(predictions.tolist(), ptes):
                    slots[slot] = pte
                self.occupied = count
                return
        put = self._put
        for predicted, pte in zip(predictions.tolist(), ptes):
            put(predicted, pte, max_displacement)

    def bulk_place(self, predictions, ptes) -> None:
        """Place sorted entries by rightward packing: entry i goes to
        ``max(prediction_i, previous_slot + 1)``.

        Used when a leaf is built *past* the error bound (degraded
        leaves at the guardrails): per-entry exponential search would
        cost O(n * displacement) there, while packing is O(n) and keeps
        entries in key order with the same worst-case displacement the
        search window already accounts for.  Like :meth:`place`, it
        places the OS's records, and into an empty table starts trust.
        """
        if not self.occupied:
            self.trusted = True
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

        ``window`` bounds the scan (slots on each side).  The search
        probes the predicted slot (clamped into the table), then
        ``predicted + 1``, ``predicted - 1``, ``predicted + 2``, ... and
        returns the first entry that covers the query and passes its
        integrity check.  It runs as :func:`_nearest`'s two-sided scan:
        the probed slots always form one run, so ``line_paddrs`` (every
        line the search touched, in first-touch order, for the walker
        to charge) follows from the run's extent.  An entry that fails
        its check is never returned; if the run holds one, the walk is
        flagged (``corrupt_seen``).  On a trusted table no probed entry
        can fail it, and only the returned entry is checked.
        """
        slots = self._slots
        center = self._clamp(predicted)
        base = self.base_paddr
        entry = slots[center]
        if (
            entry is not None
            and entry.covers(query_vpn)
            and (self.trusted or entry.is_intact())
        ):
            line = (base + center * PTE_SIZE) // CACHE_LINE_SIZE * CACHE_LINE_SIZE
            return GPTLookup(entry, center, [line], False)
        slot = _nearest(slots, center, window, _first_covering, query_vpn)
        # The probed run: the whole window on a miss, else up to the hit
        # and, on the other side, up to one slot short of its distance
        # (a right hit) or as far (a left hit).
        if slot < 0:
            lo, hi = center - window, center + window
        elif slot > center:
            lo, hi = 2 * center - slot + 1, slot
        else:
            lo, hi = slot, 2 * center - slot
        lo, hi = max(0, lo), min(len(slots) - 1, hi)
        corrupt = not self.trusted and any(
            e is not None and not e.is_intact() for e in slots[lo:hi + 1]
        )
        return GPTLookup(
            slots[slot] if slot >= 0 else None,
            slot,
            _run_lines(base, center, lo, hi),
            corrupt,
        )

    def lookup_sorted(self, predicted: int, query_vpn: int, window: int) -> GPTLookup:
        """Bounded *binary* search for the entry covering ``query_vpn``.

        Usable when entries are in key order (bulk-packed degraded
        leaves): this is the paper's "binary search ... within the
        model's min and max error range" (section 2.3 / 4.3.3), costing
        O(log window) line touches instead of a linear scan.

        Each step walks left by index from the midpoint (down to the
        window's left edge) to the nearest entry it may trust, and
        touches the lines of that walk, in descending order, that no
        earlier step touched.  On a trusted table that is the nearest
        entry.  Otherwise every entry on the way is checked: corrupt
        ones cannot steer the search (a flipped vpn breaks the key
        order it relies on), so they are flagged and skipped.
        """
        slots = self._slots
        lo = max(0, predicted - window)
        hi = min(len(slots) - 1, predicted + window)
        base = self.base_paddr
        trusted = self.trusted
        seen = set()
        line_paddrs: List[int] = []
        corrupt = False
        # Binary search for the rightmost entry with vpn <= query.
        best = None
        low, high = lo, hi
        while low <= high:
            mid = (low + high) // 2
            for slot in range(mid, lo - 1, -1):
                entry = slots[slot]
                if entry is not None:
                    if trusted or entry.is_intact():
                        break
                    corrupt = True
            else:
                slot = lo - 1
            for line in range(
                (base + mid * PTE_SIZE) // CACHE_LINE_SIZE,
                (base + max(slot, lo) * PTE_SIZE) // CACHE_LINE_SIZE - 1,
                -1,
            ):
                if line not in seen:
                    seen.add(line)
                    line_paddrs.append(line * CACHE_LINE_SIZE)
            if slot < lo:
                # No trustworthy entry at or left of ``mid``.
                low = mid + 1
            elif entry.vpn <= query_vpn:
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
        ``vpn``: the predicted slot first, then :func:`_nearest`'s
        order.

        Used by unmap and permission updates, which must locate the
        exact entry rather than any covering mapping.
        """
        slots = self._slots
        center = self._clamp(predicted)
        entry = slots[center]
        if entry is not None and entry.vpn == vpn and entry.is_intact():
            return center
        slot = _nearest(slots, center, window, _first_starting_at, vpn)
        if slot < 0:
            raise KeyError(f"vpn {vpn:#x} not present near slot {predicted}")
        return slot

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
        self.trusted = False

    def corrupt_entry_count(self) -> int:
        """Live entries currently failing their integrity check."""
        return sum(
            1 for e in self._slots if e is not None and not e.is_intact()
        )

    def entries(self) -> List[Tuple[int, PTE]]:
        """All (slot, entry) pairs, in slot order."""
        return [(i, e) for i, e in enumerate(self._slots) if e is not None]

    def live_slot(self, k: int) -> int:
        """The slot of the ``k``-th live entry in slot order, which is
        ``entries()[k][0]``, without building that list (every
        :class:`PTE` is truthy)."""
        return next(islice(compress(count(), self._slots), k, None))

    def clear(self) -> None:
        self._slots = [None] * self.num_slots
        self.occupied = 0
        self.max_displacement = 0
        self.trusted = True
