"""The LVM learned index: build, train, lookup, insert (paper section 4).

The index is a shallow hierarchy of linear models.  Internal nodes
route a VPN to one of their children (which evenly divide the parent's
key range); leaf nodes predict the slot of the translation entry inside
their private gapped page table.  Training is driven by the cost model
(section 4.2.3); insertions use the minimum-insertion-distance and
rescaling techniques of section 4.3.4 to avoid retraining; multiple
page sizes share one structure via slope encoding (section 4.4).

The authoritative set of live mappings is kept alongside the learned
structure (the OS keeps the equivalent in its VMA/rmap metadata).
Rebuilds and the OS's software lookups (:meth:`find`) read it; a
hardware lookup reads it only after a failed or damaged probe.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import LVMConfig
from repro.core.cost_model import LeafPlan, choose_branching, plan_leaf
from repro.core.fixed_point import MODEL_BYTES
from repro.core.gapped_page_table import GappedPageTable, GPTFullError
from repro.core.linear_model import fit_even_division
from repro.core.rebase import AddressSpaceRebaser, IdentityRebaser, cluster_regions
from repro.core.nodes import (
    InternalNode,
    LeafNode,
    Node,
    assign_offsets,
    iter_nodes,
    leaf_nodes,
    tree_depth,
)
from repro.errors import DuplicateMappingError, RecoveryExhaustedError
from repro.mem.allocator import BumpAllocator, OutOfPhysicalMemory, PhysicalAllocator
from repro.types import BASE_PAGE_SHIFT, PTE, PTE_SIZE, TranslationError

_VPN = attrgetter("vpn")
_PAGE_SIZE = attrgetter("page_size")


def _page_counts(ptes: List[PTE]) -> np.ndarray:
    """Each mapping's span in 4 KB pages, as an int64 column."""
    sizes = np.fromiter(map(_PAGE_SIZE, ptes), dtype=np.int64, count=len(ptes))
    return sizes >> BASE_PAGE_SHIFT


@dataclass
class LVMWalk:
    """Trace of one learned-index lookup, for the hardware walker.

    ``node_accesses`` lists (level, offset, paddr) for every model
    visited (candidates for LWC hits); ``pte_line_paddrs`` lists the
    gapped-table cache lines fetched — the first is the translation
    access itself, the rest are collision-resolution accesses.
    """

    pte: Optional[PTE]
    node_accesses: List[Tuple[int, int, int]]
    pte_line_paddrs: List[int]
    # True when the degradation ladder had to engage (corruption or a
    # desynchronized model); the extra lines it touched are included in
    # ``pte_line_paddrs`` so the walker charges their full cost.
    recovered: bool = False

    @property
    def hit(self) -> bool:
        return self.pte is not None

    @property
    def collided(self) -> bool:
        return len(self.pte_line_paddrs) > 1

    @property
    def extra_accesses(self) -> int:
        return max(0, len(self.pte_line_paddrs) - 1)

    @property
    def total_memory_accesses(self) -> int:
        return len(self.node_accesses) + len(self.pte_line_paddrs)


@dataclass
class LVMStats:
    """Counters characterizing the learned index (paper section 7.3)."""

    builds: int = 0
    full_rebuilds: int = 0
    local_retrains: int = 0
    rescales: int = 0
    lwc_flushes: int = 0
    inserts: int = 0
    removes: int = 0
    lookups: int = 0
    collisions: int = 0
    extra_pte_accesses: int = 0
    error_bound_violations: int = 0
    build_times_s: List[float] = field(default_factory=list)
    retrain_times_s: List[float] = field(default_factory=list)
    management_time_s: float = 0.0
    # Degradation-ladder counters (fault recovery).  Each rung is also
    # reflected in the priced counters above (``local_retrains`` /
    # ``full_rebuilds``) so the cost model charges the repair work.
    recovered_scans: int = 0
    recovered_retrains: int = 0
    recovered_rebuilds: int = 0
    corrupt_entries_detected: int = 0
    alloc_retries: int = 0
    rescale_fallback_rebuilds: int = 0

    @property
    def recoveries(self) -> int:
        """Total degradation-ladder engagements."""
        return (
            self.recovered_scans
            + self.recovered_retrains
            + self.recovered_rebuilds
        )

    @property
    def collision_rate(self) -> float:
        return self.collisions / self.lookups if self.lookups else 0.0

    @property
    def avg_extra_accesses_per_collision(self) -> float:
        return self.extra_pte_accesses / self.collisions if self.collisions else 0.0


class LearnedIndex:
    """LVM's learned index over the virtual address space of a process."""

    def __init__(
        self,
        allocator: Optional[PhysicalAllocator] = None,
        config: Optional[LVMConfig] = None,
        rebaser=None,
    ):
        self.allocator: PhysicalAllocator = allocator or BumpAllocator()
        self.config = config or LVMConfig()
        self.config.validate()
        # ASLR rebasing (section 5.2): all index-internal keys are
        # compact VPNs produced by the rebaser; entries keep real VPNs.
        self.rebaser = rebaser or IdentityRebaser()
        self.root: Optional[Node] = None
        self.level_bases: List[int] = []
        self.level_counts: List[int] = []
        self.stats = LVMStats()
        self._mappings: Dict[int, PTE] = {}
        self._sorted_vpns: List[int] = []
        self._level_allocs: List[Tuple[int, int]] = []
        # id(table) -> (table, paddr, bytes); the table reference keeps
        # the id unique for as long as the allocation is tracked.
        self._table_allocs: Dict[int, Tuple[GappedPageTable, int, int]] = {}

    # ------------------------------------------------------------------
    # Construction and training (sections 4.3.1 / 4.3.2)
    # ------------------------------------------------------------------
    def bulk_build(self, ptes: Iterable[PTE], program_rebaser: bool = False) -> None:
        """Initialize the index over an existing set of mappings.

        The OS calls this when mapping the first page(s) of a process
        (section 4.3.1).  The mappings are sorted and checked for
        duplicate VPNs once; with ``program_rebaser`` the ASLR rebase
        registers are then programmed from the same sorted mappings
        (section 5.2): they are clustered into regions and packed into
        a compact canonical space, so the Q44.20 models stay
        well-conditioned regardless of randomization.
        """
        ordered = sorted(ptes, key=_VPN)
        vpns = list(map(_VPN, ordered))
        mappings = dict(zip(vpns, ordered))
        if len(mappings) < len(ordered):
            dup = next(v for v, w in zip(vpns, vpns[1:]) if v == w)
            raise DuplicateMappingError(f"duplicate mapping for VPN {dup:#x}")
        self._mappings = mappings
        self._sorted_vpns = vpns
        columns = (ordered, np.array(vpns, dtype=np.int64), _page_counts(ordered))
        if program_rebaser and ordered:
            self.rebaser = AddressSpaceRebaser(cluster_regions(*columns[1:]))
        self._rebuild(initial=True, columns=columns)

    def _rebuild(self, initial: bool = False, columns=None) -> None:
        """Train the whole index over the current mappings.  ``columns``
        is (PTEs, VPN column, span column) in VPN order, when the
        caller already has them."""
        start = time.perf_counter()
        self._release_structures()
        if not self._mappings:
            self.root = None
            self.level_bases = []
            self.level_counts = []
            return
        if columns is None:
            ptes = list(map(self._mappings.__getitem__, self._sorted_vpns))
            columns = (ptes, np.array(self._sorted_vpns, dtype=np.int64), _page_counts(ptes))
        ptes, real_vpns, pages = columns
        # One rebase over the whole sorted key column (section 5.2).
        vpns = self.rebaser.rebase_array(real_vpns)
        ends = vpns + pages
        lo = int(vpns[0])
        hi = int(ends[-1])
        compact_span = getattr(self.rebaser, "compact_span", None)
        if compact_span is not None:
            # Cover whole rebaser slots so the root's even division
            # lands children exactly on region boundaries.
            lo = 0
            hi = max(hi, compact_span)
        self.root = self._train_node(vpns, ends, ptes, lo, hi, depth=0)
        self.level_counts = assign_offsets(self.root)
        self._allocate_levels()
        elapsed = time.perf_counter() - start
        self.stats.management_time_s += elapsed
        if initial:
            self.stats.builds += 1
            self.stats.build_times_s.append(elapsed)
        else:
            self.stats.full_rebuilds += 1
            self.stats.retrain_times_s.append(elapsed)
            self.stats.lwc_flushes += 1

    def _train_node(
        self,
        eff_keys: np.ndarray,
        eff_ends: np.ndarray,
        ptes: List[PTE],
        lo: int,
        hi: int,
        depth: int,
    ) -> Node:
        """Recursively train the node covering keys in [lo, hi)."""
        max_table = self.allocator.max_contiguous_bytes()
        # At the root, hint the branching with the rebased region count
        # so even division can land children on region boundaries.
        hint = getattr(self.rebaser, "num_regions", None) if depth == 0 else None
        decision = choose_branching(
            eff_keys, eff_ends, lo, hi, depth, self.config, max_table, hint=hint
        )
        if decision.make_leaf and decision.leaf_plan is not None:
            plan = decision.leaf_plan
            if not plan.within_error_bound and depth + 1 < self.config.d_limit:
                # Section 4.3.3: boost the collision weight at the
                # parent decision until the error bound is satisfiable.
                for boost in (10.0, 100.0):
                    decision = choose_branching(
                        eff_keys, eff_ends, lo, hi, depth, self.config,
                        max_table, x3_boost=boost,
                    )
                    if not decision.make_leaf:
                        break
        if decision.make_leaf:
            return self._build_leaf(decision.leaf_plan, eff_keys, ptes, lo, hi, depth)
        # Build the subtree; if a descendant leaf could not satisfy the
        # error bound (typically a child straddling a density boundary,
        # forced into a leaf at the depth limit), go back to *this*
        # node, boost the collision weight, and re-partition at a finer
        # granularity (section 4.3.3's backtracking).  The last attempt
        # is accepted even if a (now much smaller) degraded leaf
        # remains — the guardrails win on truly pathological key sets.
        node = self._build_internal(
            eff_keys, eff_ends, ptes, lo, hi, depth, decision.num_children
        )
        for boost in (10.0, 100.0):
            degraded_keys = sum(
                leaf.num_keys for leaf in leaf_nodes(node) if leaf.degraded
            )
            # Backtrack only while the degraded region is significant:
            # a residual boundary leaf holding a handful of keys is not
            # worth rebuilding every ancestor over.
            if degraded_keys <= max(64, len(eff_keys) // 100):
                return node
            retry = choose_branching(
                eff_keys, eff_ends, lo, hi, depth, self.config,
                max_table, x3_boost=boost,
            )
            if retry.make_leaf or retry.num_children <= decision.num_children:
                break
            self._free_subtree_tables(node)
            decision = retry
            node = self._build_internal(
                eff_keys, eff_ends, ptes, lo, hi, depth, retry.num_children
            )
        return node

    def _free_subtree_tables(self, node: Node) -> None:
        """Release the gapped tables of a discarded subtree."""
        for leaf in leaf_nodes(node):
            entry = self._table_allocs.pop(id(leaf.table), None)
            if entry is not None:
                _table, paddr, nbytes = entry
                self.allocator.free(paddr, nbytes)

    def _build_leaf(
        self,
        plan: LeafPlan,
        eff_keys: np.ndarray,
        ptes: List[PTE],
        lo: int,
        hi: int,
        depth: int,
    ) -> LeafNode:
        """A leaf over ``eff_keys`` from the plan the cost model made
        for those keys."""
        if not plan.within_error_bound:
            self.stats.error_bound_violations += 1
        table = self._alloc_table(plan.num_slots)
        leaf = LeafNode(
            lo=lo,
            hi=hi,
            model=plan.model,
            table=table,
            depth=depth,
            search_window=plan.max_window,
            num_keys=len(eff_keys),
        )
        # Well-behaved leaves keep placements within the C_err-derived
        # bound.  Leaves forced *past* the bound (depth limit reached
        # on a pathological key set) are packed instead.
        if not plan.within_error_bound:
            self._pack_degraded(leaf, plan.predictions, ptes)
            return leaf
        cap = max(self.config.max_leaf_error_slots, plan.max_window)
        cap += self.config.slots_per_line
        try:
            table.place(plan.predictions, ptes, cap)
        except GPTFullError:
            # The plan's collision estimate missed a local pile-up
            # (clustered collisions cascade farther than the per-slot
            # estimate): pack instead, and count the violation.
            self.stats.error_bound_violations += 1
            self._pack_degraded(leaf, plan.predictions, ptes)
        return leaf

    @staticmethod
    def _pack_degraded(
        leaf: LeafNode, predictions: np.ndarray, ptes: List[PTE]
    ) -> None:
        """Place a degraded leaf's entries by rightward packing in key
        order, O(n): its widened search window plus the bounded binary
        search keep lookups correct and logarithmic.  Predictions so
        skewed that packing runs off the end of the table pack from
        slot 0 instead; the tracked displacement widens the window.
        ``predictions`` are the leaf model's slots for the entries."""
        leaf.degraded = True
        leaf.sorted_layout = True
        table = leaf.table
        table.clear()
        predictions = predictions.tolist()
        try:
            table.bulk_place(predictions, ptes)
        except GPTFullError:
            table.clear()
            table.bulk_place([0] * len(ptes), ptes)
            # Entry i sits in slot i.  Lookups search around the model's
            # predictions, so measure the displacement from those, not
            # from the zeros the entries were packed from.
            table.max_displacement = max(
                abs(slot - predicted) for slot, predicted in enumerate(predictions)
            )

    def _build_internal(
        self,
        eff_keys: np.ndarray,
        eff_ends: np.ndarray,
        ptes: List[PTE],
        lo: int,
        hi: int,
        depth: int,
        num_children: int,
    ) -> InternalNode:
        model = fit_even_division(lo, hi, num_children)
        node = InternalNode(lo=lo, hi=hi, model=model, depth=depth)
        bounds = [node.child_lower_bound(c) for c in range(num_children)]
        bounds.append(hi)
        split_at = np.searchsorted(eff_keys, bounds)
        for c in range(num_children):
            child_lo, child_hi = bounds[c], bounds[c + 1]
            start, stop = int(split_at[c]), int(split_at[c + 1])
            child_keys = eff_keys[start:stop]
            child_ends = np.minimum(eff_ends[start:stop], child_hi)
            child_ptes = ptes[start:stop]
            # A mapping starting in an earlier child may extend into
            # this one; it contributes a boundary-clipped duplicate
            # entry (its PTE object is shared across the leaves).
            if start > 0 and int(eff_ends[start - 1]) > child_lo:
                child_keys = np.concatenate(([child_lo], child_keys))
                child_ends = np.concatenate(
                    ([min(int(eff_ends[start - 1]), child_hi)], child_ends)
                )
                child_ptes = [ptes[start - 1]] + child_ptes
            node.children.append(
                self._train_node(
                    child_keys, child_ends, child_ptes, child_lo, child_hi, depth + 1
                )
            )
        return node

    # ------------------------------------------------------------------
    # Physical layout
    # ------------------------------------------------------------------
    def _alloc_table(self, num_slots: int) -> GappedPageTable:
        """Allocate a gapped table, retrying with backoff on failure.

        A failed request (genuine fragmentation or an injected buddy
        fault) is retried at progressively smaller contiguity — LVM
        only ever *needs* base-page contiguity, so a smaller table
        costs collisions, never correctness.  The first genuine
        failure falls back to the largest block that fits (the
        historical behavior); later failures halve the request down to
        an 8-slot floor before giving up.
        """
        nbytes = num_slots * PTE_SIZE
        floor = PTE_SIZE * 8
        attempts = 0
        while True:
            try:
                paddr = self.allocator.alloc(nbytes)
                break
            except OutOfPhysicalMemory:
                attempts += 1
                if attempts > 24:
                    raise
                self.stats.alloc_retries += 1
                avail = self.allocator.max_contiguous_bytes()
                if avail >= nbytes:
                    # Transient (injected) failure: retry unchanged.
                    continue
                if attempts == 1:
                    nbytes = max(floor, avail)
                elif nbytes > floor:
                    nbytes = max(floor, nbytes // 2)
                else:
                    raise
        num_slots = nbytes // PTE_SIZE
        table = GappedPageTable(num_slots, paddr)
        self._table_allocs[id(table)] = (table, paddr, nbytes)
        return table

    def _alloc_with_retry(self, nbytes: int, attempts: int = 8) -> int:
        """Retry transient (injected) allocation failures.

        Model-level arrays and table growth cannot shrink, so a
        genuine shortfall — the largest contiguous block is smaller
        than the request — propagates immediately, exactly as before
        fault injection existed.
        """
        for _ in range(attempts):
            try:
                return self.allocator.alloc(nbytes)
            except OutOfPhysicalMemory:
                if self.allocator.max_contiguous_bytes() < nbytes:
                    raise
                self.stats.alloc_retries += 1
        raise OutOfPhysicalMemory(
            f"allocation of {nbytes} bytes kept failing after {attempts} attempts"
        )

    def _allocate_levels(self) -> None:
        self.level_bases = []
        self._level_allocs = []
        for count in self.level_counts:
            nbytes = max(MODEL_BYTES, count * MODEL_BYTES)
            paddr = self._alloc_with_retry(nbytes)
            self.level_bases.append(paddr)
            self._level_allocs.append((paddr, nbytes))

    def _release_structures(self) -> None:
        for paddr, nbytes in self._level_allocs:
            self.allocator.free(paddr, nbytes)
        self._level_allocs = []
        for _table, paddr, nbytes in self._table_allocs.values():
            self.allocator.free(paddr, nbytes)
        self._table_allocs = {}
        self.root = None

    def node_paddr(self, level: int, offset: int) -> int:
        return self.level_bases[level] + offset * MODEL_BYTES

    # ------------------------------------------------------------------
    # Lookup (the hardware page walk, section 4.6.2)
    # ------------------------------------------------------------------
    def lookup(self, vpn: int) -> LVMWalk:
        """Translate a 4 KB VPN; queries inside a large page round down
        to the large page's entry (section 4.4).

        When the bounded probe misses or trips an integrity check, the
        degradation ladder (:meth:`_recover`) takes over: leaf scan →
        leaf retrain → full rebuild, every extra memory touch reported
        through the walk so the hardware walker charges it.
        """
        self.stats.lookups += 1
        if self.root is None:
            return LVMWalk(None, [], [])
        key = self.rebaser.rebase(vpn)
        leaf, node_accesses = self._route(key)
        probe = self._leaf_probe(leaf, key, vpn)
        if probe.pte is None or probe.corrupt_seen:
            walk = self._recover(leaf, key, vpn, node_accesses, probe)
        else:
            walk = LVMWalk(probe.pte, node_accesses, probe.line_paddrs)
        if walk.hit and walk.collided and not walk.recovered:
            self.stats.collisions += 1
            self.stats.extra_pte_accesses += walk.extra_accesses
        return walk

    def _route(self, key: int) -> Tuple[LeafNode, List[Tuple[int, int, int]]]:
        """Walk the internal models down to the leaf covering ``key``,
        recording every node access for the hardware walker."""
        node_accesses: List[Tuple[int, int, int]] = []
        node = self.root
        while isinstance(node, InternalNode):
            node_accesses.append(
                (node.depth, node.offset, self.node_paddr(node.depth, node.offset))
            )
            node = node.children[node.route(key)]
        leaf: LeafNode = node
        node_accesses.append(
            (leaf.depth, leaf.offset, self.node_paddr(leaf.depth, leaf.offset))
        )
        return leaf, node_accesses

    def _leaf_probe(self, leaf: LeafNode, key: int, vpn: int):
        """The bounded in-leaf search (first rung of the ladder)."""
        eff_key = key if key >= leaf.lo else leaf.lo
        predicted = leaf.predict_slot(eff_key)
        window = self._leaf_window(leaf)
        if leaf.sorted_layout:
            return leaf.table.lookup_sorted(predicted, vpn, window)
        return leaf.table.lookup(predicted, vpn, window)

    def _recover(self, leaf: LeafNode, key: int, vpn: int, node_accesses, probe) -> LVMWalk:
        """Graceful degradation after a failed or corrupt bounded probe.

        Rungs: exhaustive leaf scan → leaf retrain from the
        authoritative mapping set → full index rebuild.  The ladder
        engages only on *evidence* of damage — a tripped integrity
        check, or an authoritative mapping the probe should have found.
        A plain demand-fault miss returns unchanged, which keeps
        fault-free runs bit-identical to the no-injector baseline.
        """
        auth = self.find(vpn)
        if not probe.corrupt_seen and auth is None:
            return LVMWalk(None, node_accesses, probe.line_paddrs)
        line_paddrs = list(probe.line_paddrs)
        # Rung 2: exhaustive scan of the leaf's table; every line it
        # touches is charged to this walk.
        scan = leaf.table.scan(vpn)
        self.stats.recovered_scans += 1
        line_paddrs.extend(scan.line_paddrs)
        self.stats.corrupt_entries_detected += leaf.table.corrupt_entry_count()
        pte = probe.pte if probe.pte is not None else scan.pte
        # Rung 3: retrain this leaf from the authoritative mappings,
        # evicting corrupted copies and refitting the desynchronized
        # model (priced through the usual local_retrains counter).
        repaired = self._repair_leaf(leaf)
        if pte is None and repaired:
            retry = self._leaf_probe(leaf, key, vpn)
            line_paddrs.extend(retry.line_paddrs)
            pte = retry.pte
        if not repaired or (pte is None and auth is not None):
            # Rung 4: full rebuild from the authoritative set.
            self._rebuild()
            self.stats.recovered_rebuilds += 1
            if self.root is not None:
                leaf, extra_nodes = self._route(key)
                node_accesses = node_accesses + extra_nodes
                retry = self._leaf_probe(leaf, key, vpn)
                line_paddrs.extend(retry.line_paddrs)
                pte = retry.pte
        if pte is None and auth is not None:
            raise RecoveryExhaustedError(
                f"VPN {vpn:#x} has an authoritative mapping but remained "
                "unreachable after a full index rebuild"
            )
        return LVMWalk(pte, node_accesses, line_paddrs, recovered=True)

    def _auth_entries_in(self, lo: int, hi: int) -> List[PTE]:
        """Authoritative mappings whose rebased range intersects
        ``[lo, hi)``, in VPN order.

        The rebased view of ``_sorted_vpns`` is itself sorted (the
        build path already relies on that), but :mod:`bisect` cannot
        search through a key function on this Python, so the left edge
        is found with a manual binary search.
        """
        rebase = self.rebaser.rebase
        vpns = self._sorted_vpns
        low, high = 0, len(vpns)
        while low < high:
            mid = (low + high) // 2
            if rebase(vpns[mid]) < lo:
                low = mid + 1
            else:
                high = mid
        start = low
        # A mapping starting just left of ``lo`` may extend into it.
        if start > 0:
            prev = self._mappings[vpns[start - 1]]
            if rebase(prev.vpn) + prev.page_size.pages_4k > lo:
                start -= 1
        out: List[PTE] = []
        for i in range(start, len(vpns)):
            pte = self._mappings[vpns[i]]
            if rebase(pte.vpn) >= hi:
                break
            out.append(pte)
        return out

    def _repair_leaf(self, leaf: LeafNode) -> bool:
        """Rebuild one leaf from the authoritative mapping set.

        Corrupted table copies are discarded wholesale (the originals
        in ``_mappings`` are never damaged) and the model is refit.
        Returns False when one linear model can no longer describe the
        leaf's keys, in which case the caller escalates to a rebuild.
        """
        entries = self._auth_entries_in(leaf.lo, leaf.hi)
        ok = self._local_retrain(leaf, entries=entries)
        if ok:
            self.stats.recovered_retrains += 1
        return ok

    def _leaf_window(self, leaf: LeafNode) -> int:
        return leaf.search_window + leaf.table.max_displacement + 2

    def find(self, vpn: int) -> Optional[PTE]:
        """Software lookup (OS accesses to the accessed/dirty bits,
        permission changes — section 5.2): the authoritative mapping
        covering ``vpn``, if any.  It reads the OS's own records, not
        the learned structure, so it charges no walk and repairs
        nothing; damage is found and repaired by :meth:`lookup`."""
        vpns = self._sorted_vpns
        idx = bisect_right(vpns, vpn) - 1
        if idx < 0:
            return None
        pte = self._mappings[vpns[idx]]
        return pte if pte.covers(vpn) else None

    # ------------------------------------------------------------------
    # Insertion (section 4.3.4)
    # ------------------------------------------------------------------
    def insert(self, pte: PTE) -> None:
        start_time = time.perf_counter()
        try:
            self._insert(pte)
        finally:
            self.stats.management_time_s += time.perf_counter() - start_time

    def _insert(self, pte: PTE) -> None:
        if pte.vpn in self._mappings:
            raise DuplicateMappingError(f"VPN {pte.vpn:#x} is already mapped")
        self.stats.inserts += 1
        self._mappings[pte.vpn] = pte
        insort(self._sorted_vpns, pte.vpn)
        if self.root is None:
            self._rebuild(initial=self.stats.builds == 0)
            return
        start = self.rebaser.rebase(pte.vpn)
        end = start + pte.page_size.pages_4k
        root_lo, root_hi = self.root.lo, self.root.hi
        min_dist = self.config.min_insert_distance_pages
        if end > root_hi:
            if start < root_hi + min_dist:
                # Out-of-bounds insert close to the edge: expand the key
                # range by at least the minimum insertion distance and
                # rescale the rightmost gapped table (no retraining).
                self._expand_right(max(root_hi + min_dist, end))
            else:
                # Away from the edge: the paper opts for a full rebuild.
                self._rebuild()
                return
        elif start < root_lo:
            # Leftward growth cannot reuse the unchanged models (slots
            # would go negative), so it is treated as away-from-edge.
            self._rebuild()
            return
        self._place(pte, start, end)

    def _place(self, pte: PTE, start: int, end: int) -> None:
        """Insert ``pte`` into every leaf its range intersects."""
        query = start
        while query < end:
            leaf = self._leaf_for(query)
            eff_key = max(start, leaf.lo)
            interior = leaf.model.predict(min(end, leaf.hi) - 1) - leaf.model.predict(
                eff_key
            )
            if interior > leaf.search_window:
                leaf.search_window = interior
            predicted = leaf.model.predict(eff_key)
            cap = (
                leaf.table.num_slots
                if leaf.degraded
                else self.config.max_leaf_error_slots
            )
            # A point insert can break the key-ordered layout binary
            # search relies on; revert that leaf to linear lookups.
            leaf.sorted_layout = False
            try:
                leaf.table.insert(predicted, pte, cap)
            except GPTFullError:
                if not self._local_retrain(leaf, pending=pte):
                    self._rebuild()
                    return
            if leaf.hi >= end or leaf.hi <= query:
                break
            query = leaf.hi

    def _leaf_for(self, vpn: int) -> LeafNode:
        node = self.root
        while isinstance(node, InternalNode):
            node = node.children[node.route(vpn)]
        return node

    def _rebased_eff_arrays(self, leaf: LeafNode, entries: List[PTE]):
        keys = self.rebaser.rebase_array(
            np.fromiter(map(_VPN, entries), dtype=np.int64, count=len(entries))
        )
        eff_keys = np.maximum(keys, leaf.lo)
        eff_ends = np.minimum(keys + _page_counts(entries), leaf.hi)
        return eff_keys, eff_ends

    def _leaf_entries(self, leaf: LeafNode) -> List[PTE]:
        seen = set()
        ordered: List[PTE] = []
        for _, entry in leaf.table.entries():
            # Corrupted table copies must never propagate into a refit;
            # the authoritative originals are re-placed by _repair_leaf.
            if not entry.is_intact():
                continue
            if id(entry) not in seen:
                seen.add(id(entry))
                ordered.append(entry)
        ordered.sort(key=lambda p: p.vpn)
        return ordered

    def _local_retrain(
        self,
        leaf: LeafNode,
        pending: Optional[PTE] = None,
        entries: Optional[List[PTE]] = None,
    ) -> bool:
        """Refit only this leaf's model and re-place its entries
        (within-bounds insert slow path, section 4.3.4).  ``pending`` is
        a not-yet-placed entry included in the refit; ``entries``
        overrides the source set (recovery retrains pass the
        authoritative mappings instead of the table's own, possibly
        damaged, contents).  Returns False when the leaf cannot absorb
        its keys, forcing a full rebuild."""
        start_time = time.perf_counter()
        entries = (
            self._leaf_entries(leaf) if entries is None else sorted(
                entries, key=lambda p: p.vpn
            )
        )
        if pending is not None:
            entries.append(pending)
            entries.sort(key=lambda p: p.vpn)
        if not entries:
            # Nothing intact remains in range: clearing the table *is*
            # the repair (the model stays, predicting into empty slots).
            leaf.table.clear()
            leaf.num_keys = 0
            leaf.degraded = False
            leaf.sorted_layout = False
            self.stats.local_retrains += 1
            self.stats.retrain_times_s.append(time.perf_counter() - start_time)
            self.stats.lwc_flushes += 1
            return True
        eff_keys, eff_ends = self._rebased_eff_arrays(leaf, entries)
        plan = plan_leaf(eff_keys, eff_ends, self.config)
        if not plan.within_error_bound:
            # One linear model can no longer describe this leaf's keys
            # within C_err; a full rebuild will re-split the key space.
            self.stats.retrain_times_s.append(time.perf_counter() - start_time)
            return False
        # Provision the table up to the leaf's (already expanded) key
        # range so edge-driven growth keeps landing in free slots —
        # this is the "creates page tables ahead of time" part of the
        # minimum-insertion-distance technique (section 4.3.4).  The
        # provision is capped one insertion distance past the last key
        # so a sparse hole on the right cannot bloat the table.
        last_key = int(eff_keys[-1]) if len(eff_keys) else leaf.lo
        horizon = min(leaf.hi, last_key + self.config.min_insert_distance_pages)
        provision = plan.model.predict(horizon) + self.config.slots_per_line + 1
        if provision > plan.num_slots:
            plan.num_slots = provision
        if plan.num_slots > leaf.table.num_slots:
            old_table, old_paddr, old_bytes = self._table_allocs.pop(id(leaf.table))
            try:
                new_table = self._alloc_table(plan.num_slots)
            except OutOfPhysicalMemory:
                self._table_allocs[id(old_table)] = (old_table, old_paddr, old_bytes)
                return False
            self.allocator.free(old_paddr, old_bytes)
            leaf.table = new_table
        else:
            leaf.table.clear()
        leaf.model = plan.model
        leaf.search_window = plan.max_window
        leaf.num_keys = len(entries)
        leaf.degraded = False
        leaf.sorted_layout = False
        cap = (
            max(self.config.max_leaf_error_slots, plan.max_window)
            + self.config.slots_per_line
        )
        try:
            leaf.table.place(plan.predictions, entries, cap)
        except GPTFullError:
            return False
        finally:
            elapsed = time.perf_counter() - start_time
            self.stats.local_retrains += 1
            self.stats.retrain_times_s.append(elapsed)
            # The leaf's model changed: its LWC entry must be flushed.
            self.stats.lwc_flushes += 1
        return True

    def _expand_right(self, new_hi: int) -> None:
        """Grow the key range along the right spine without retraining
        (section 4.3.4, Figure 5)."""
        self.stats.rescales += 1
        node = self.root
        while isinstance(node, InternalNode):
            node.hi = new_hi
            node = node.children[-1]
        leaf: LeafNode = node
        leaf.hi = new_hi
        needed = leaf.model.predict(new_hi) + self.config.slots_per_line + 1
        extra = needed - leaf.table.num_slots
        if extra > 0:
            old_table, old_paddr, old_bytes = self._table_allocs.pop(id(leaf.table))
            new_bytes = (leaf.table.num_slots + extra) * PTE_SIZE
            try:
                new_paddr = self._alloc_with_retry(new_bytes)
            except OutOfPhysicalMemory:
                # Cannot grow contiguously: fall back to a rebuild,
                # which re-splits leaves to the available contiguity.
                self._table_allocs[id(old_table)] = (old_table, old_paddr, old_bytes)
                self.stats.rescale_fallback_rebuilds += 1
                self._rebuild()
                return
            self.allocator.free(old_paddr, old_bytes)
            leaf.table.expand(extra, new_paddr)
            self._table_allocs[id(leaf.table)] = (leaf.table, new_paddr, new_bytes)

    # ------------------------------------------------------------------
    # Removal (section 5.2, "Free")
    # ------------------------------------------------------------------
    def remove(self, vpn: int) -> PTE:
        """Unmap the mapping whose *first* VPN is ``vpn``.

        Clears the table slot(s) but keeps the model and the gap — the
        OS expects nearby reuse (section 5.2).
        """
        start_time = time.perf_counter()
        pte = self._mappings.pop(vpn, None)
        if pte is None:
            raise TranslationError(f"VPN {vpn:#x} is not mapped")
        self.stats.removes += 1
        idx = self._index_of_sorted(vpn)
        self._sorted_vpns.pop(idx)
        start = self.rebaser.rebase(vpn)
        end = start + pte.page_size.pages_4k
        query = start
        while query < end:
            leaf = self._leaf_for(query)
            eff_key = max(start, leaf.lo)
            try:
                slot = leaf.table.find_slot(
                    leaf.model.predict(eff_key), vpn, self._leaf_window(leaf)
                )
                leaf.table.remove(slot)
            except KeyError:
                # The table copy is corrupted or the model has drifted.
                # The mapping is already gone from the authoritative
                # set, so retraining the leaf from it both repairs the
                # damage and completes the removal.
                if not self._repair_leaf(leaf):
                    self._rebuild()
                    self.stats.recovered_rebuilds += 1
                    self.stats.management_time_s += time.perf_counter() - start_time
                    return pte
            if leaf.hi >= end or leaf.hi <= query:
                break
            query = leaf.hi
        self.stats.management_time_s += time.perf_counter() - start_time
        return pte

    def _index_of_sorted(self, vpn: int) -> int:
        idx = bisect_left(self._sorted_vpns, vpn)
        if idx >= len(self._sorted_vpns) or self._sorted_vpns[idx] != vpn:
            raise TranslationError(f"VPN {vpn:#x} missing from sorted set")
        return idx

    # ------------------------------------------------------------------
    # Introspection (sections 7.3 / 7.4)
    # ------------------------------------------------------------------
    @property
    def num_mappings(self) -> int:
        return len(self._mappings)

    @property
    def index_size_bytes(self) -> int:
        """Total learned-index size: 16 bytes per node (Table 2)."""
        if self.root is None:
            return 0
        return sum(1 for _ in iter_nodes(self.root)) * MODEL_BYTES

    @property
    def depth(self) -> int:
        return tree_depth(self.root) if self.root is not None else 0

    @property
    def num_leaves(self) -> int:
        return len(leaf_nodes(self.root)) if self.root is not None else 0

    @property
    def table_bytes(self) -> int:
        """Total gapped-page-table footprint."""
        if self.root is None:
            return 0
        return sum(leaf.table.size_bytes for leaf in leaf_nodes(self.root))

    @property
    def min_required_bytes(self) -> int:
        """The absolute minimum page-table space: 8 B per mapping."""
        return len(self._mappings) * PTE_SIZE

    @property
    def memory_overhead_bytes(self) -> int:
        """Extra page-table space versus the minimum (section 7.3)."""
        return max(0, self.table_bytes - self.min_required_bytes)

    def mappings(self) -> List[PTE]:
        return [self._mappings[v] for v in self._sorted_vpns]

    def contains(self, vpn: int) -> bool:
        """Whether ``vpn`` starts a live mapping (authoritative set)."""
        return vpn in self._mappings

    # ------------------------------------------------------------------
    # Reclaim (section 7.3, "Memory Consumption")
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Rebuild the index to reclaim gapped-table space.

        Frees keep their slots so nearby allocations can reuse them
        (section 5.2); for workloads whose peak memory far exceeds
        steady state, "the OS can rebuild the index and reclaim unused
        space".  Returns the number of bytes reclaimed.
        """
        before = self.table_bytes
        self._rebuild()
        return max(0, before - self.table_bytes)
