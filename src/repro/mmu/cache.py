"""Set-associative LRU cache model (Table 1's L1/L2/L3).

A deliberately small, fast model: tags only (no data), true-LRU via
insertion-ordered dicts, hit/miss/eviction counters.  The simulator
feeds it both program data accesses and page-walk accesses, which is
exactly how the paper measures ECPT's cache pollution (Figure 12).
"""

from __future__ import annotations

from typing import Dict

from repro.types import CACHE_LINE_SIZE


class Cache:
    """One level of set-associative cache with LRU replacement."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        latency: int,
        line_size: int = CACHE_LINE_SIZE,
    ):
        if size_bytes % (ways * line_size) != 0:
            raise ValueError(f"{name}: size must be a multiple of ways*line")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.latency = latency
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        # Hot-path constants: line addressing is a shift when the line
        # size is a power of two (it always is in practice).
        self._line_shift = (
            line_size.bit_length() - 1 if line_size & (line_size - 1) == 0 else None
        )
        # Subclasses (e.g. the learned-set-index cache in
        # repro.extensions) customise placement by overriding
        # ``_locate``; the inlined fast path below is only valid for
        # the stock modulo mapping.
        self._stock_locate = type(self)._locate is Cache._locate
        # set index -> {tag: None} insertion-ordered (LRU at front)
        self._sets: Dict[int, Dict[int, None]] = {}
        self.hits = 0
        self.misses = 0
        # Misses attributed to page-walk accesses, for pollution studies.
        self.walk_misses = 0

    def _locate(self, paddr: int):
        if self._line_shift is not None:
            line = paddr >> self._line_shift
        else:
            line = paddr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def access(self, paddr: int, is_walk: bool = False) -> bool:
        """Touch a line; returns True on hit.  Fills on miss."""
        # ``_locate`` inlined: this runs several times per simulated
        # reference (demand access + walk accesses, three levels each).
        if self._stock_locate:
            shift = self._line_shift
            line = paddr >> shift if shift is not None else paddr // self.line_size
            num_sets = self.num_sets
            set_idx = line % num_sets
            tag = line // num_sets
        else:
            set_idx, tag = self._locate(paddr)
        cache_set = self._sets.get(set_idx)
        if cache_set is None:
            cache_set = {}
            self._sets[set_idx] = cache_set
        if tag in cache_set:
            self.hits += 1
            # Move to MRU position.
            del cache_set[tag]
            cache_set[tag] = None
            return True
        self.misses += 1
        if is_walk:
            self.walk_misses += 1
        if len(cache_set) >= self.ways:
            # Evict LRU (first inserted).
            cache_set.pop(next(iter(cache_set)))
        cache_set[tag] = None
        return False

    def fill(self, paddr: int) -> None:
        """Install a line without charging latency or touching the
        hit/miss counters (prefetcher-style fill).  Replacement follows
        the same LRU policy as a demand fill: a line already present
        moves to MRU, otherwise the LRU way is evicted."""
        if self._stock_locate:
            shift = self._line_shift
            line = paddr >> shift if shift is not None else paddr // self.line_size
            num_sets = self.num_sets
            set_idx = line % num_sets
            tag = line // num_sets
        else:
            set_idx, tag = self._locate(paddr)
        cache_set = self._sets.setdefault(set_idx, {})
        if tag in cache_set:
            del cache_set[tag]
        elif len(cache_set) >= self.ways:
            cache_set.pop(next(iter(cache_set)))
        cache_set[tag] = None

    def contains(self, paddr: int) -> bool:
        set_idx, tag = self._locate(paddr)
        cache_set = self._sets.get(set_idx)
        return cache_set is not None and tag in cache_set

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        return 1000.0 * self.misses / instructions if instructions else 0.0
