"""Future-work prototype (paper section 9): the LVM framework applied
to other hardware structures.

"Such structures often suffer from hash-table-like collisions that
cause conflict misses and reduce hit rates.  By leveraging lightweight
machine learning, the LVM framework offers a promising direction to
mitigate these collisions."

This module is that direction made concrete for a last-level cache: a
*learned set-index* replaces the modulo set mapping.  It reuses the LVM
toolbox verbatim — spline-seeded even division, Q44.20 linear models, a
depth limit — to learn the CDF of the cache's *resident address
distribution* so hot lines spread evenly over the sets.  On skewed
address streams (strided accesses that alias under modulo indexing, or
hot regions hammering a few sets), the learned index removes the
conflict-miss pathology while behaving like modulo on uniform traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import LVMConfig
from repro.core.learned_index import LearnedIndex
from repro.mem.allocator import BumpAllocator
from repro.mmu.cache import Cache
from repro.types import PTE, CACHE_LINE_SIZE


class LearnedSetIndex:
    """A learned mapping from line address to cache set.

    Trained over a sample of the observed line addresses: internal
    machinery is a :class:`LearnedIndex` over "line number" keys whose
    leaf outputs are *positions in the sorted sample*, rescaled to the
    set count — i.e. the same range·CDF(x) construction LVM's nodes
    use (paper section 4.2.1), serving sets instead of PTE slots.
    """

    def __init__(self, num_sets: int, sample: Sequence[int]):
        if not sample:
            raise ValueError("need a non-empty address sample")
        self.num_sets = num_sets
        lines = np.unique(np.asarray(sample, dtype=np.int64) // CACHE_LINE_SIZE)
        # Reuse the index machinery: map each sampled line to a fake
        # "PTE" so leaf models learn the sample's CDF.
        config = LVMConfig()
        self._index = LearnedIndex(BumpAllocator(), config)
        self._index.bulk_build(
            [PTE(vpn=int(line), ppn=i) for i, line in enumerate(lines)]
        )
        self._num_keys = len(lines)
        # Leaf tables are base-normalized (the GPT base absorbs the
        # absolute part); recover global CDF positions by prefix-summing
        # key counts over the leaves in key order.
        from repro.core.nodes import leaf_nodes

        self._leaf_base: Dict[int, int] = {}
        cumulative = 0
        for leaf in sorted(leaf_nodes(self._index.root), key=lambda l: l.lo):
            self._leaf_base[id(leaf)] = cumulative
            cumulative += leaf.num_keys

    def set_of(self, paddr: int) -> int:
        """Set index for an address: range * CDF(line), via the index."""
        line = paddr // CACHE_LINE_SIZE
        position = self._approx_position(line)
        return int(position * self.num_sets // max(1, self._num_keys)) % self.num_sets

    def _approx_position(self, line: int) -> int:
        node = self._index.root
        if node is None:
            return 0
        from repro.core.nodes import InternalNode

        key = self._index.rebaser.rebase(line)
        while isinstance(node, InternalNode):
            node = node.children[node.route(key)]
        eff = key if key >= node.lo else node.lo
        # Leaf slots approximate positions *within* the leaf (ga-
        # scaled); undo the scaling and add the leaf's global base.
        slot = max(0, node.predict_slot(eff))
        position = self._leaf_base.get(id(node), 0) + int(slot / 1.3)
        return min(self._num_keys - 1, position)

    @property
    def model_bytes(self) -> int:
        return self._index.index_size_bytes


class LearnedCache(Cache):
    """A set-associative cache whose set mapping is learned."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        latency: int,
        sample: Sequence[int],
    ):
        super().__init__(name, size_bytes, ways, latency)
        self.set_index = LearnedSetIndex(self.num_sets, sample)

    def _locate(self, paddr: int):
        line = paddr // self.line_size
        return self.set_index.set_of(paddr), line


@dataclass
class ConflictStudy:
    """Miss comparison: modulo vs. learned set indexing."""

    modulo_misses: int
    learned_misses: int
    accesses: int
    model_bytes: int

    @property
    def miss_reduction(self) -> float:
        if self.modulo_misses == 0:
            return 0.0
        return 1.0 - self.learned_misses / self.modulo_misses


def conflict_study(
    trace: Sequence[int],
    size_bytes: int = 64 << 10,
    ways: int = 4,
    sample_fraction: float = 0.2,
) -> ConflictStudy:
    """Run one address trace through both indexings.

    The learned index trains on a prefix sample of the trace (the warm
    phase), as the OS would retrain it periodically from occupancy
    statistics.
    """
    trace = list(trace)
    sample = trace[: max(1, int(len(trace) * sample_fraction))]
    modulo = Cache("modulo", size_bytes, ways, latency=1)
    learned = LearnedCache("learned", size_bytes, ways, latency=1, sample=sample)
    for paddr in trace:
        modulo.access(paddr)
        learned.access(paddr)
    return ConflictStudy(
        modulo_misses=modulo.misses,
        learned_misses=learned.misses,
        accesses=len(trace),
        model_bytes=learned.set_index.model_bytes,
    )


def strided_trace(
    stride_bytes: int, lines: int, repeats: int, base: int = 1 << 20
) -> List[int]:
    """The classic conflict pathology: a power-of-two stride walks a
    working set that fits the cache but aliases onto a few sets."""
    addrs = [base + i * stride_bytes for i in range(lines)]
    return addrs * repeats


def hot_region_trace(
    num_regions: int,
    region_bytes: int,
    accesses: int,
    seed: int = 0,
    region_stride: int = 1 << 20,
) -> List[int]:
    """Hot regions at large power-of-two pitches: every region's lines
    land on the same modulo sets."""
    rng = np.random.default_rng(seed)
    region = rng.integers(0, num_regions, size=accesses)
    offset = rng.integers(0, region_bytes // 64, size=accesses) * 64
    return ((1 << 22) + region * region_stride + offset).tolist()
