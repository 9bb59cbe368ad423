"""Tunable parameters of LVM (paper section 5.1).

Defaults mirror the paper exactly: cost-model weights x1=10, x2=5,
x3=200; depth limit 3; gapped-array scale 1.3; minimum insertion
distance 64 MB; collision-resolution bound C_err = 3 additional memory
accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.gapped_page_table import SLOTS_PER_LINE
from repro.types import BASE_PAGE_SIZE

# Coverage-per-byte floors (section 4.2.3): nodes must cover at least
# as much address space per byte of index as "a radix page table at the
# same level".  Children created at the root compare against PD entries
# (an 8 B PD entry covers 2 MB: 256 KB/B, so a 16 B child must span at
# least 1024 base pages); children created deeper compare against radix
# leaf page tables (a 4 KB PT covers 2 MB: 512 B/B), which allows fine
# splits where the key distribution demands them while the cost model's
# size weight (x2) keeps the index from ballooning.
_RADIX_PD_COVERAGE_PER_BYTE = 256 << 10
_RADIX_PT_COVERAGE_PER_BYTE = 512


@dataclass
class LVMConfig:
    """Configuration for building and maintaining an LVM learned index."""

    # Cost-model weights (equation 1).
    x1: float = 10.0  # weight on index depth
    x2: float = 5.0  # weight on index size in bytes
    x3: float = 200.0  # weight on collision rate x accesses per collision

    # Hard limit on index depth: at most d_limit model indirections
    # before the PTE fetch (max 4 memory accesses total, like radix).
    d_limit: int = 3

    # Gapped-array scale factor: tables are sized ga_scale x #keys.
    ga_scale: float = 1.3

    # Minimum insertion distance for out-of-bounds inserts near the
    # edge, in bytes of virtual address space (64 MB in the paper).
    min_insert_distance_bytes: int = 64 << 20

    # Upper bound on additional memory accesses during collision
    # resolution (section 4.3.3, C_err).
    c_err: int = 3

    # Error bound handed to the spline-point estimator.
    spline_max_error: int = 32

    # Safety cap on the branching factor of a single node.
    max_children: int = 4096

    # Coverage-per-byte floor per depth (section 4.2.3 guardrail):
    # entry i applies to children created at depth i; the last entry
    # applies to all deeper levels.
    coverage_per_byte: List[int] = field(
        default_factory=lambda: [
            _RADIX_PD_COVERAGE_PER_BYTE,
            _RADIX_PT_COVERAGE_PER_BYTE,
        ]
    )

    @property
    def min_insert_distance_pages(self) -> int:
        return self.min_insert_distance_bytes // BASE_PAGE_SIZE

    @property
    def max_leaf_error_slots(self) -> int:
        """Largest tolerable training error, in table slots.

        A bounded search over ±E slots around the prediction touches at
        most ``ceil(2E / SLOTS_PER_LINE)`` cache lines beyond the first
        (a gapped table's 64 B lines hold eight slots); bounding E by
        ``c_err * SLOTS_PER_LINE / 2`` keeps the worst case within
        C_err additional memory accesses.
        """
        return max(1, (self.c_err * SLOTS_PER_LINE) // 2)

    def min_coverage_per_byte(self, depth: int) -> int:
        """Coverage floor applied when creating children at ``depth``."""
        if depth < len(self.coverage_per_byte):
            return self.coverage_per_byte[depth]
        return self.coverage_per_byte[-1]

    def validate(self) -> None:
        # ConfigError subclasses ValueError, so callers that handled
        # ValueError keep working.
        from repro.core.fixed_point import MAX_INT
        from repro.errors import ConfigError
        from repro.types import BASE_PAGE_SIZE

        if self.d_limit < 1:
            raise ConfigError("d_limit must be at least 1")
        if self.ga_scale < 1.0:
            raise ConfigError("ga_scale must be >= 1.0 to leave gaps")
        if self.c_err < 1:
            raise ConfigError("c_err must be at least 1")
        if self.max_children < 2:
            raise ConfigError("max_children must allow branching")
        for name in ("x1", "x2", "x3"):
            if getattr(self, name) < 0:
                raise ConfigError(f"cost-model weight {name} cannot be negative")
        if self.min_insert_distance_bytes < BASE_PAGE_SIZE:
            raise ConfigError(
                "min_insert_distance_bytes="
                f"{self.min_insert_distance_bytes!r} must cover at least "
                f"one base page ({BASE_PAGE_SIZE} bytes)"
            )
        # Q44.20 contract: model outputs are slot indexes in Q44.20,
        # so every error/search bound must stay far inside the 44-bit
        # integer range or slope arithmetic saturates mid-leaf.
        if not (0 < self.spline_max_error <= MAX_INT):
            raise ConfigError(
                f"spline_max_error={self.spline_max_error!r} violates the "
                f"Q44.20 contract (must be in [1, {MAX_INT}])"
            )
        if self.max_leaf_error_slots > MAX_INT:
            raise ConfigError(
                "c_err x SLOTS_PER_LINE produces an error bound beyond the "
                "Q44.20 integer range"
            )
        if not self.coverage_per_byte:
            raise ConfigError("coverage_per_byte needs at least one floor")
        if any(floor <= 0 for floor in self.coverage_per_byte):
            raise ConfigError("coverage_per_byte floors must be positive")
