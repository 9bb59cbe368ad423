"""Walk caches: radix PWC, LVM's LWC, and ECPT's CWC (section 4.6.2).

All three are small MMU-resident structures that short-circuit memory
accesses during page walks:

* the radix **PWC** caches PML4/PDPT/PD entries, letting the walker
  skip the upper levels;
* LVM's **LWC** is fully associative and caches individual 16-byte
  learned models, tagged (ASID, level, offset); a miss fetches a 64 B
  line containing four neighbouring models;
* ECPT's **CWC** caches cuckoo-walk-table entries (PMD and PUD
  granularity) that tell the walker which page sizes to probe.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.fixed_point import MODEL_BYTES


class _LRUSet:
    """A fully-associative LRU structure with hit/miss counters.

    Entries can be *poisoned* (fault injection standing in for a
    corrupted SRAM cell).  Hardware walk caches protect entries with
    parity, so a poisoned entry is detected the moment it is used: the
    lookup reports a miss, the entry is invalidated, and the detection
    is counted so the walker can charge the dead probe.
    """

    def __init__(self, name: str, capacity: int, latency: int = 2):
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self._entries: Dict[Tuple, None] = {}
        self._poisoned: set = set()
        self.hits = 0
        self.misses = 0
        self.poison_detections = 0

    def lookup(self, key: Tuple) -> bool:
        if key in self._entries:
            if key in self._poisoned:
                # Parity mismatch: drop the entry and miss.
                self._poisoned.discard(key)
                del self._entries[key]
                self.poison_detections += 1
                self.misses += 1
                return False
            del self._entries[key]
            self._entries[key] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: Tuple) -> None:
        # A fresh fill overwrites whatever damage the slot held.
        self._poisoned.discard(key)
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            del self._entries[victim]
            self._poisoned.discard(victim)
        self._entries[key] = None

    def invalidate(self, key: Tuple) -> None:
        self._entries.pop(key, None)
        self._poisoned.discard(key)

    def flush_where(self, predicate) -> int:
        victims = [k for k in self._entries if predicate(k)]
        for key in victims:
            del self._entries[key]
            self._poisoned.discard(key)
        return len(victims)

    def flush(self) -> None:
        self._entries.clear()
        self._poisoned.clear()

    def poison_random(self, rng) -> bool:
        """Poison one resident entry; returns False when empty."""
        if not self._entries:
            return False
        keys = list(self._entries)
        self._poisoned.add(keys[rng.randrange(len(keys))])
        return True

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def occupancy(self) -> int:
        return len(self._entries)


class RadixPWC:
    """Three-level page walk cache: 32 entries per level (Table 1)."""

    LEVELS = (4, 3, 2)  # PML4E / PDPTE / PDE

    _SHIFTS = {4: 27, 3: 18, 2: 9}

    def __init__(self, entries_per_level: int = 32, latency: int = 2):
        self.latency = latency
        self.levels: Dict[int, _LRUSet] = {
            lvl: _LRUSet(f"PWC-L{lvl}", entries_per_level, latency)
            for lvl in self.LEVELS
        }
        # Hot-path constant: (level, shift, LRU set) deepest-first, so
        # the per-walk probe avoids two dict lookups per level.
        self._probe_order = tuple(
            (lvl, self._SHIFTS[lvl], self.levels[lvl]) for lvl in (2, 3, 4)
        )

    @classmethod
    def _key(cls, vpn: int, level: int, asid: int) -> Tuple[int, int]:
        return (asid, vpn >> cls._SHIFTS[level])

    def lowest_cached_level(self, vpn: int, asid: int) -> Optional[int]:
        """Deepest radix level whose entry the PWC holds: the walk can
        start below it.  Probes run deepest-first, as real PWCs do."""
        for level, shift, lru in self._probe_order:
            if lru.lookup((asid, vpn >> shift)):
                return level
        return None

    def fill(self, vpn: int, asid: int, upto_level: int) -> None:
        """Install entries for levels walked (4 down to `upto_level`)."""
        for level, shift, lru in self._probe_order:
            if level >= upto_level:
                lru.insert((asid, vpn >> shift))

    def flush_asid(self, asid: int) -> None:
        for lru in self.levels.values():
            lru.flush_where(lambda k: k[0] == asid)

    def poison_random(self, rng) -> bool:
        """Poison one resident entry in a random level (fault injection)."""
        levels = list(self.levels.values())
        start = rng.randrange(len(levels))
        for i in range(len(levels)):
            if levels[(start + i) % len(levels)].poison_random(rng):
                return True
        return False

    @property
    def poison_detections(self) -> int:
        return sum(lru.poison_detections for lru in self.levels.values())

    @property
    def hit_rate_by_level(self) -> Dict[int, float]:
        return {lvl: lru.hit_rate for lvl, lru in self.levels.items()}

    @property
    def size_bytes(self) -> int:
        # Each PWC entry holds an 8-byte PTE plus tag; count payload
        # bytes as the paper's "size in bytes" comparison does.
        return sum(lru.capacity * 8 for lru in self.levels.values())


class LWC:
    """The LVM Walk Cache: 16 fully-associative model entries."""

    def __init__(self, entries: int = 16, latency: int = 2):
        self.latency = latency
        self._lru = _LRUSet("LWC", entries, latency)
        self.flushes = 0

    @staticmethod
    def _key(asid: int, level: int, offset: int) -> Tuple[int, int, int]:
        return (asid, level, offset)

    def lookup(self, asid: int, level: int, offset: int) -> bool:
        return self._lru.lookup(self._key(asid, level, offset))

    def fill_line(self, asid: int, level: int, offset: int) -> None:
        """A 64 B fetch brings four adjacent 16 B models (section 4.6.2)."""
        base = offset - (offset % (64 // MODEL_BYTES))
        for neighbour in range(base, base + 64 // MODEL_BYTES):
            self._lru.insert(self._key(asid, level, neighbour))

    def flush_entry(self, asid: int, level: int, offset: int) -> None:
        """OS-initiated flush after a node retrain (section 5.2)."""
        self._lru.invalidate(self._key(asid, level, offset))
        self.flushes += 1

    def flush_asid(self, asid: int) -> None:
        self._lru.flush_where(lambda k: k[0] == asid)
        self.flushes += 1

    def poison_random(self, rng) -> bool:
        return self._lru.poison_random(rng)

    @property
    def poison_detections(self) -> int:
        return self._lru.poison_detections

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    @property
    def accesses(self) -> int:
        return self._lru.accesses

    @property
    def size_bytes(self) -> int:
        return self._lru.capacity * MODEL_BYTES


class CWC:
    """ECPT's cuckoo walk cache: PMD (16 entries) + PUD (2) (Table 1)."""

    def __init__(self, pmd_entries: int = 16, pud_entries: int = 2, latency: int = 2):
        self.latency = latency
        self.pmd = _LRUSet("CWC-PMD", pmd_entries, latency)
        self.pud = _LRUSet("CWC-PUD", pud_entries, latency)

    def lookup(self, vpn: int, asid: int) -> Tuple[bool, bool]:
        pmd_hit = self.pmd.lookup((asid, vpn >> 9))
        pud_hit = self.pud.lookup((asid, vpn >> 18))
        return pmd_hit, pud_hit

    def fill(self, vpn: int, asid: int) -> None:
        self.pmd.insert((asid, vpn >> 9))
        self.pud.insert((asid, vpn >> 18))

    def poison_random(self, rng) -> bool:
        if rng.random() < 0.5:
            return self.pmd.poison_random(rng) or self.pud.poison_random(rng)
        return self.pud.poison_random(rng) or self.pmd.poison_random(rng)

    @property
    def poison_detections(self) -> int:
        return self.pmd.poison_detections + self.pud.poison_detections

    @property
    def hit_rate(self) -> float:
        total = self.pmd.accesses + self.pud.accesses
        if total == 0:
            return 0.0
        return (self.pmd.hits + self.pud.hits) / total
