"""ASLR segment layout (paper section 5.2, "ASLR").

ASLR scatters the classic segments (text, heap, mmap arena, stack)
across the 47-bit userspace.  LVM's OS support exposes the per-segment
base addresses to hardware through registers so the learned index
trains on *rebased* (base-relative) VPNs — randomization then has no
effect on the learned structure while keeping its security value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.types import BASE_PAGE_SHIFT

USER_VA_BITS = 47

# Canonical (pre-randomization) segment bases, Linux-x86-64-flavoured.
_CANONICAL_BASES = {
    "text": 0x0000_0000_0040_0000,
    "data": 0x0000_0000_0100_0000,
    "heap": 0x0000_0000_0400_0000,
    "mmap": 0x0000_7F00_0000_0000,
    "stack": 0x0000_7FFF_FF00_0000,
}

# Randomization entropy per segment, in bits of page offset (Linux uses
# 28 bits for mmap, 22 for the stack, etc.).
_ENTROPY_BITS = {"text": 8, "data": 8, "heap": 13, "mmap": 16, "stack": 11}


@dataclass
class ASLRLayout:
    """Randomized segment bases plus the register file exposing them."""

    seed: int = 0
    enabled: bool = True
    bases: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        for name, base in _CANONICAL_BASES.items():
            if self.enabled:
                slide = rng.getrandbits(_ENTROPY_BITS[name]) << BASE_PAGE_SHIFT
            else:
                slide = 0
            if name == "stack":
                self.bases[name] = base - slide
            else:
                self.bases[name] = base + slide

    def base_vpn(self, segment: str) -> int:
        return self.bases[segment] >> BASE_PAGE_SHIFT
