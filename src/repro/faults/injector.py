"""The fault-injection runtime.

One :class:`FaultInjector` is built per :class:`~repro.sim.simulator.
Simulator` run from the plan in its config.  Each fault site draws from
its own ``random.Random`` stream (derived from the plan seed and the
site name) so enabling one fault class never shifts the injection
points of another — runs stay bit-reproducible per class.

The injector only *damages* state; every structure it touches carries
its own detection + recovery path (see ``docs/INTERNALS.md``):

=====================  ==============================================
fault site             defense
=====================  ==============================================
PTE bit flip           integrity tag check on every probed entry →
                       leaf scan → leaf retrain from the
                       authoritative mapping set → full rebuild
model perturbation     bounded probe misses → leaf scan finds the
                       intact entry → leaf retrain repairs the model
allocator failure      retry-with-backoff at halved contiguity
                       (gapped tables); rescale falls back to rebuild
walk-cache poison      tag mismatch on use → invalidate + refetch,
                       charged as extra walk cycles
kernel event drop      dropped mmaps recovered by demand faults;
                       dropped munmaps by the reconciliation audit
kernel event dup       duplicate maps rejected by the kernel's
                       invariant guard / DuplicateMappingError
=====================  ==============================================
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.fixed_point import FRACTION_BITS, saturate_raw
from repro.core.gapped_page_table import SLOTS_PER_LINE
from repro.core.learned_index import LearnedIndex
from repro.core.linear_model import LinearModel
from repro.core.nodes import leaf_nodes
from repro.errors import OutOfPhysicalMemory
from repro.faults.plan import FaultPlan


class FaultyAllocator:
    """Allocator proxy that probabilistically fails ``alloc`` requests.

    Models a buddy allocator under fragmentation pressure: a request
    that would normally succeed transiently fails, forcing the caller
    into its retry/backoff path.  ``free`` and introspection pass
    through untouched.
    """

    def __init__(self, inner, rng: random.Random, rate: float, counts: Dict[str, int]):
        self._inner = inner
        self._rng = rng
        self._rate = rate
        self._counts = counts

    def alloc(self, nbytes: int) -> int:
        if self._rate > 0.0 and self._rng.random() < self._rate:
            self._counts["alloc_fail"] = self._counts.get("alloc_fail", 0) + 1
            raise OutOfPhysicalMemory(
                f"injected allocation failure for {nbytes} bytes"
            )
        return self._inner.alloc(nbytes)

    def free(self, paddr: int, nbytes: int) -> None:
        self._inner.free(paddr, nbytes)

    def max_contiguous_bytes(self) -> int:
        return self._inner.max_contiguous_bytes()

    def __getattr__(self, name):
        # Buddy-specific introspection (fragmentation studies) and any
        # other inner API pass straight through.
        return getattr(self._inner, name)


class FaultInjector:
    """Applies a :class:`FaultPlan` to live simulator state."""

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self.counts: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}

    # -- plumbing ------------------------------------------------------
    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = random.Random(f"{self.plan.seed}:{site}")
            self._rngs[site] = rng
        return rng

    def _fire(self, site: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if self._rng(site).random() >= rate:
            return False
        self.counts[site] = self.counts.get(site, 0) + 1
        return True

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())

    # -- allocator faults ----------------------------------------------
    def wrap_allocator(self, allocator):
        """Wrap ``allocator`` if allocation faults are enabled."""
        if self.plan.alloc_fail_rate <= 0.0:
            return allocator
        return FaultyAllocator(
            allocator, self._rng("alloc_fail"), self.plan.alloc_fail_rate, self.counts
        )

    # -- kernel event-stream faults ------------------------------------
    def drop_kernel_event(self) -> bool:
        return self._fire("kernel_event_drop", self.plan.kernel_event_drop_rate)

    def duplicate_kernel_event(self) -> bool:
        return self._fire("kernel_event_dup", self.plan.kernel_event_dup_rate)

    # -- per-reference translation-path faults -------------------------
    def on_reference(self, sim) -> None:
        """Called once per trace reference by the simulator run loop."""
        if self._fire("pte_bitflip", self.plan.pte_bitflip_rate):
            self._flip_pte(sim)
        if self._fire("model_perturb", self.plan.model_perturb_rate):
            self._perturb_model(sim)
        if self._fire("walk_cache_corrupt", self.plan.walk_cache_corrupt_rate):
            self._poison_walk_cache(sim)

    def _random_leaf(self, sim, rng: random.Random, occupied_only: bool = True):
        index = sim.page_table
        if not isinstance(index, LearnedIndex) or index.root is None:
            return None
        leaves = leaf_nodes(index.root)
        if occupied_only:
            leaves = [leaf for leaf in leaves if leaf.table.occupied]
        if not leaves:
            return None
        return rng.choice(leaves)

    def _flip_pte(self, sim) -> None:
        """Corrupt one live gapped-page-table entry (single bit flip)."""
        rng = self._rng("pte_bitflip_target")
        leaf = self._random_leaf(sim, rng)
        if leaf is None:
            return
        slot = leaf.table.live_slot(rng.randrange(leaf.table.occupied))
        fld = "vpn" if rng.random() < 0.5 else "ppn"
        bit = rng.randrange(40)
        leaf.table.corrupt_slot(slot, fld=fld, bit=bit)

    def _perturb_model(self, sim) -> None:
        """Shift a leaf model's intercept beyond its search window, so
        the bounded probe can no longer find the leaf's entries."""
        rng = self._rng("model_perturb_target")
        leaf = self._random_leaf(sim, rng)
        if leaf is None:
            return
        window = leaf.search_window + leaf.table.max_displacement
        shift_slots = (
            window + sim.page_table.config.max_leaf_error_slots + 2 * SLOTS_PER_LINE + 4
        )
        if rng.random() < 0.5:
            shift_slots = -shift_slots
        leaf.model = LinearModel(
            leaf.model.slope_raw,
            saturate_raw(leaf.model.intercept_raw + (shift_slots << FRACTION_BITS)),
        )

    def _poison_walk_cache(self, sim) -> None:
        """Corrupt a resident walk-cache entry of the active walker."""
        rng = self._rng("walk_cache_target")
        walker = sim.walker
        for attr in ("lwc", "pwc", "cwc"):
            cache = getattr(walker, attr, None)
            if cache is not None and cache.poison_random(rng):
                return
