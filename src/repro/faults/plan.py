"""Declarative fault plans: which fault classes fire, and how often.

A :class:`FaultPlan` is plain data — it can be cloned, serialized, and
compared — and is deterministic by construction: the injector derives
one independent RNG stream per fault site from ``seed``, so two runs
with the same plan (and the same workload seed) inject the exact same
faults at the exact same points.

Rates are *per opportunity*: per trace reference for the translation-
path faults (PTE bit flips, model perturbation, walk-cache
corruption), per allocation request for allocator failures, and per
mmap/munmap event for the kernel stream faults.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

from repro.errors import FaultInjectionError


class FaultKind(str, enum.Enum):
    """The injectable fault classes."""

    #: Flip a bit in a live gapped-page-table entry (vpn or ppn).
    PTE_BITFLIP = "pte_bitflip"
    #: Perturb a leaf model's intercept so predictions land outside the
    #: error bound (stale/corrupted model state).
    MODEL_PERTURB = "model_perturb"
    #: Fail a physical allocation request (buddy under pressure),
    #: forcing retry-with-backoff at smaller contiguity.
    ALLOC_FAIL = "alloc_fail"
    #: Poison a resident LWC/PWC/CWC entry (walk-cache corruption).
    WALK_CACHE_CORRUPT = "walk_cache_corrupt"
    #: Drop or duplicate mmap/munmap events in the kernel stream to the
    #: page table (the agent, for LVM).
    KERNEL_EVENTS = "kernel_events"


@dataclass
class FaultPlan:
    """Seeded fault-injection configuration, carried by ``SimConfig``."""

    seed: int = 0
    pte_bitflip_rate: float = 0.0  # per trace reference
    model_perturb_rate: float = 0.0  # per trace reference
    alloc_fail_rate: float = 0.0  # per allocation request
    walk_cache_corrupt_rate: float = 0.0  # per trace reference
    kernel_event_drop_rate: float = 0.0  # per mmap/munmap event
    kernel_event_dup_rate: float = 0.0  # per mmap event

    _RATE_FIELDS = (
        "pte_bitflip_rate",
        "model_perturb_rate",
        "alloc_fail_rate",
        "walk_cache_corrupt_rate",
        "kernel_event_drop_rate",
        "kernel_event_dup_rate",
    )

    @staticmethod
    def single(
        kind: "FaultKind | str", rate: float = 1e-3, seed: int = 0
    ) -> "FaultPlan":
        """A plan enabling exactly one fault class at ``rate``."""
        kind = FaultKind(kind)
        plan = FaultPlan(seed=seed)
        if kind is FaultKind.PTE_BITFLIP:
            plan.pte_bitflip_rate = rate
        elif kind is FaultKind.MODEL_PERTURB:
            plan.model_perturb_rate = rate
        elif kind is FaultKind.ALLOC_FAIL:
            plan.alloc_fail_rate = rate
        elif kind is FaultKind.WALK_CACHE_CORRUPT:
            plan.walk_cache_corrupt_rate = rate
        else:  # KERNEL_EVENTS: drops and duplicates share the rate
            plan.kernel_event_drop_rate = rate
            plan.kernel_event_dup_rate = rate
        plan.validate()
        return plan

    @property
    def enabled(self) -> bool:
        """Whether any fault class has a non-zero rate."""
        return any(getattr(self, f) > 0.0 for f in self._RATE_FIELDS)

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise FaultInjectionError(
                f"fault plan seed must be an int, got {type(self.seed).__name__}"
            )
        for name in self._RATE_FIELDS:
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise FaultInjectionError(
                    f"fault rate {name}={rate!r} must be within [0, 1]"
                )

    def to_dict(self) -> dict:
        return asdict(self)
