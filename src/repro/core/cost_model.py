"""The LVM cost model (paper section 4.2.3, equation 1).

``C(n) = x1 * d  +  x2 * s  +  x3 * cr * ma``

where ``d`` is the index depth added, ``s`` the index bytes added,
``cr`` the estimated collision rate and ``ma`` the average additional
memory accesses per collision.  The model seeds its search with the
spline-segment count of the node's keys and evaluates candidate child
counts within ±2 of it, picking the cheapest.

This module works on plain numpy arrays of *effective keys* (mapping
start VPNs clipped to the node's range) and *end VPNs* so the learned
index can call it per node without materializing Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.config import LVMConfig
from repro.core.fixed_point import MODEL_BYTES
from repro.core.gapped_page_table import SLOTS_PER_LINE
from repro.core.linear_model import LinearModel
from repro.core.spline import num_segments
from repro.types import BASE_PAGE_SIZE, PTE_SIZE


def fit_keys(keys: np.ndarray) -> LinearModel:
    """Least-squares fit of sorted-position against key.

    ``keys`` is a sorted int64 numpy array.  Keys are centered at their
    first element so float64 accumulation stays exact enough for
    VPN-scale inputs.
    """
    n = len(keys)
    if n == 0:
        raise ValueError("cannot fit a model to zero keys")
    if n == 1:
        return LinearModel.from_floats(0.0, 0.0)
    base = int(keys[0])
    x = (keys - base).astype(np.float64)
    y = np.arange(n, dtype=np.float64)
    sum_x = float(x.sum())
    sum_xx = float((x * x).sum())
    sum_y = float(y.sum())
    sum_xy = float((x * y).sum())
    denom = n * sum_xx - sum_x * sum_x
    if denom == 0.0:
        return LinearModel.from_floats(0.0, 0.0)
    slope = (n * sum_xy - sum_x * sum_y) / denom
    intercept = (sum_y - slope * sum_x) / n - slope * base
    return LinearModel.from_floats(slope, intercept)


def predict_array(model: LinearModel, keys: np.ndarray) -> np.ndarray:
    """Vectorized ``floor(a*x + b)`` in Q44.20 integer arithmetic."""
    return (model.slope_raw * keys + model.intercept_raw) >> 20


def scale_model(model: LinearModel, factor: float) -> LinearModel:
    return LinearModel(
        int(round(model.slope_raw * factor)),
        int(round(model.intercept_raw * factor)),
    )


@dataclass
class LeafPlan:
    """A candidate leaf: its scaled model and quality estimates."""

    model: LinearModel  # already scaled by ga_scale
    num_keys: int
    num_slots: int
    collision_rate: float  # fraction of keys predicted into taken slots
    avg_extra_accesses: float  # lines beyond the first per collision
    max_window: int  # worst-case slots between a query's
    # prediction and its entry (incl. huge-page interiors)
    within_error_bound: bool
    # ``model``'s slot for each key the plan was made over, in key
    # order: what the leaf's entries are placed from.
    predictions: np.ndarray

    @property
    def table_bytes(self) -> int:
        return self.num_slots * PTE_SIZE


def plan_leaf(
    eff_keys: np.ndarray,
    eff_ends: np.ndarray,
    config: LVMConfig,
) -> LeafPlan:
    """Fit and evaluate a leaf over the given mappings.

    ``eff_keys[i]`` is the (clipped) first VPN of mapping *i* inside the
    node; ``eff_ends[i]`` its (clipped) one-past-the-end VPN.  The leaf
    model maps keys to gapped-array slots: a least-squares line scaled
    by ``ga_scale``.  Quality estimates:

    * *collision rate*: fraction of keys whose predicted slot collides
      with an earlier key's predicted slot;
    * *max window*: the farthest any query covered by these mappings
      can predict from its entry's slot — this includes the interior of
      huge pages (section 4.4), whose queries predict past the entry.
    """
    n = len(eff_keys)
    if n == 0:
        return LeafPlan(
            LinearModel(0, 0), 0, 8, 0.0, 0.0, 0, within_error_bound=True,
            predictions=np.zeros(0, dtype=np.int64),
        )
    spans = eff_ends - eff_keys
    # A leaf is "large-page only" when its typical mapping spans more
    # than one base page; the dominant (max) span sets the slope —
    # entries clipped at child boundaries have smaller spans (possibly
    # even a single page) but follow the same key grid.
    uniform_span = int(spans.max()) if int(np.median(spans)) > 1 else 1
    if uniform_span > 1:
        # A pure large-page leaf (section 4.4): use a slope just under
        # 1/span so *every* VPN inside a page predicts exactly its
        # entry's slot — the paper's "larger page sizes ... lower
        # slopes" made bit-exact.  The gapped head-room is skipped
        # (entries sit at density 1); large-page regions grow by whole
        # pages at the edge, which the unchanged model extrapolates.
        # For the power-of-two page sizes, slope*span == 1.0 exactly:
        # consecutive pages step one slot while the 511 interior VPNs
        # floor to the entry's slot.  The intercept is anchored to an
        # *unclipped* key so the whole leaf stays on the page-size key
        # grid — a boundary-straddling first entry must not shift it.
        slope_raw = (1 << 20) // uniform_span
        on_grid = np.flatnonzero(spans == uniform_span)
        anchor = int(eff_keys[on_grid[0]]) if len(on_grid) else int(eff_keys[0])
        model = LinearModel(slope_raw, -anchor * slope_raw)
        predicted = predict_array(model, eff_keys)
    else:
        base_model = fit_keys(eff_keys)
        model = scale_model(base_model, config.ga_scale)
        predicted = predict_array(model, eff_keys)
    # Normalize so the smallest prediction is slot 0: the gapped table's
    # base physical address absorbs the absolute part (section 4.2.2:
    # "the physical address of the base of the gapped page table is
    # added to the index of the PTE").
    shift = int(predicted.min())
    if shift != 0:
        model = LinearModel(model.slope_raw, model.intercept_raw - (shift << 20))
        predicted = predicted - shift
    # Collision displacement estimate.  Entries live at their
    # *predicted* slots plus whatever displacement collision resolution
    # causes, and collisions *cascade*: a run of keys predicted two to
    # a slot pushes later keys arbitrarily far, not just one slot.  The
    # rightward-packing bound captures that: placing sorted keys left
    # to right, key i ends no further right than
    # ``max_{j<=i}(predicted_j - j) + i``; the bidirectional
    # exponential search of the real insert roughly halves it.
    positions = np.arange(n, dtype=np.int64)
    packed = np.maximum.accumulate(predicted - positions) + positions
    disp_right = packed - predicted
    disp_est = (disp_right + 1) // 2
    colliding = int((disp_est > 0).sum())
    collision_rate = colliding / n
    if colliding:
        lines = (disp_est + SLOTS_PER_LINE - 1) // SLOTS_PER_LINE
        avg_extra = float(lines[disp_est > 0].mean())
    else:
        avg_extra = 0.0
    # The lookup search window must additionally cover the interior of
    # large pages: a query at the last sub-page of mapping i predicts
    # predict(end-1) while its entry sits near predicted[i]
    # (section 4.4 round-down semantics).
    interior = predict_array(model, eff_ends - 1) - predicted
    est_max_disp = int(disp_est.max(initial=0))
    max_window = int(interior.max(initial=0)) + est_max_disp
    num_slots = max(8, int(np.ceil(config.ga_scale * n)) + SLOTS_PER_LINE)
    # The table must reach every predicted slot — but a degenerate
    # model (pathological key space at the guardrails) must not demand
    # an unbounded table; clamp and let insertion displacement absorb
    # the overshoot (the leaf is marked out-of-bound below anyway).
    top = int(predicted.max(initial=0))
    cap = max(4096, int(8 * config.ga_scale * n))
    if top + 1 + SLOTS_PER_LINE > num_slots:
        num_slots = min(top + 1 + SLOTS_PER_LINE, cap)
    # A leaf is acceptable if its worst-case bounded search obeys C_err
    # and the model does not waste table space by overshooting wildly.
    space_ok = num_slots <= config.ga_scale * n * 4 + 8 * SLOTS_PER_LINE
    within = max_window <= config.max_leaf_error_slots and space_ok
    return LeafPlan(
        model, n, num_slots, collision_rate, avg_extra, max_window, within,
        predicted,
    )


@dataclass
class BranchDecision:
    """Outcome of the cost-model evaluation for one node."""

    make_leaf: bool
    num_children: int
    cost: float
    leaf_plan: Optional[LeafPlan] = None


def _partition_costs(
    eff_keys: np.ndarray,
    eff_ends: np.ndarray,
    lo: int,
    hi: int,
    num_children: int,
    config: LVMConfig,
    x3: float,
) -> Tuple[float, float, float]:
    """Estimated (collision_rate, extra_accesses, violation_fraction)
    averaged across the children produced by an even n-way split.

    The violation fraction treats each child as a leaf; callers with
    depth budget left discount it, since recursion usually resolves a
    violating child with a finer split below.
    """
    bounds = lo + (np.arange(1, num_children) * (hi - lo)) // num_children
    split_at = np.searchsorted(eff_keys, bounds)
    starts = np.concatenate(([0], split_at))
    stops = np.concatenate((split_at, [len(eff_keys)]))
    total_keys = max(1, len(eff_keys))
    cr_acc = ma_acc = viol = 0.0
    for start, stop in zip(starts, stops):
        if stop <= start:
            continue
        child_plan = plan_leaf(eff_keys[start:stop], eff_ends[start:stop], config)
        weight = (stop - start) / total_keys
        cr_acc += child_plan.collision_rate * weight
        ma_acc += child_plan.avg_extra_accesses * weight
        if not child_plan.within_error_bound:
            viol += weight
    return cr_acc, ma_acc, viol


def choose_branching(
    eff_keys: np.ndarray,
    eff_ends: np.ndarray,
    lo: int,
    hi: int,
    depth: int,
    config: LVMConfig,
    max_table_bytes: int,
    x3_boost: float = 1.0,
    hint: Optional[int] = None,
) -> BranchDecision:
    """Decide whether a node becomes a leaf or how many children it gets.

    Implements section 4.2.3: seed the child count with the spline-
    segment estimate, evaluate candidates within ±2, respect the depth
    limit, the coverage-per-byte floor, and the physical-contiguity cap
    on gapped-table size (``max_table_bytes``).  ``x3_boost`` is the
    error-bound enforcement mechanism of section 4.3.3: when a child
    leaf cannot satisfy C_err, the parent re-runs with a boosted
    collision weight, pushing the decision toward more children.
    """
    leaf_plan = plan_leaf(eff_keys, eff_ends, config)
    x3 = config.x3 * x3_boost
    leaf_cost = (
        config.x1 * 1.0
        + config.x2 * MODEL_BYTES
        + x3 * leaf_plan.collision_rate * max(1.0, leaf_plan.avg_extra_accesses)
    )
    if not leaf_plan.within_error_bound:
        # An out-of-bound leaf pays the boosted penalty as if every
        # lookup collided at the C_err ceiling.
        leaf_cost += x3 * (config.c_err + 1)
    fits_contiguity = leaf_plan.table_bytes <= max_table_bytes

    at_depth_limit = depth + 1 >= config.d_limit
    span = hi - lo
    # Coverage-per-byte guardrail for creating children at this depth
    # (section 4.2.3).  Its purpose is to keep the index cacheable on
    # pathological key sets, so it binds only when splitting would
    # actually grow the index materially: modest branching factors
    # (bounded by the key count) are always allowed — a small address
    # space split into a few leaves still beats radix's locality by
    # orders of magnitude.
    always_allowed = max(2, min(64, len(eff_keys) // 8))

    def coverage_ok(n: int) -> bool:
        if n <= always_allowed:
            return True
        cov_bytes = span * BASE_PAGE_SIZE
        return cov_bytes // max(1, n * MODEL_BYTES) >= config.min_coverage_per_byte(depth)

    if at_depth_limit or span < 2 or len(eff_keys) <= 1:
        return BranchDecision(True, 0, leaf_cost, leaf_plan)
    if leaf_plan.within_error_bound and fits_contiguity and x3_boost == 1.0:
        # A good, allocatable leaf is never beaten by adding a level:
        # branching costs x1 more depth and x2 more bytes for the same
        # (near-zero) collision term.
        return BranchDecision(True, 0, leaf_cost, leaf_plan)

    # Minimum children forced by physical contiguity (section 4.2.2).
    n_floor = 2
    if not fits_contiguity and max_table_bytes > 0:
        n_floor = max(n_floor, -(-leaf_plan.table_bytes // max_table_bytes))
    seed = num_segments(eff_keys, config.spline_max_error)
    # Candidates: the paper's ±2 around the spline estimate, plus a
    # geometric ladder in both directions.  Upward matters when
    # segments are skewed within the key range (even division only
    # isolates them at higher branching factors, and with the depth
    # hard-limited the cost model must be allowed to buy width);
    # downward matters when the spline overestimates — a node whose
    # keys form a couple of dense runs plus noise is often cheapest
    # with just a handful of children.
    raw = set(range(max(2, seed - 2), seed + 3))
    ladder = seed
    for _ in range(6):
        ladder *= 4
        raw.add(ladder)
    ladder = seed
    while ladder > 2:
        ladder //= 4
        raw.add(max(2, ladder))
    if hint is not None and hint >= 2:
        # Structural hint (e.g. the number of rebased ASLR regions, so
        # even division lands children on region boundaries).
        raw.add(hint)
        raw.add(2 * hint)
    candidates = sorted(
        {max(n_floor, min(config.max_children, span, c)) for c in raw}
        | {max(2, min(config.max_children, span, n_floor))}
    )
    # Children created at this depth still have this many levels of
    # recursion below them; a "violating" child is usually fixed by a
    # finer split there, so its penalty is discounted per level —
    # without this, shallow nodes buy width the deeper levels could
    # provide far more cheaply.
    remaining_levels = max(0, config.d_limit - (depth + 2))
    viol_discount = 0.15 ** remaining_levels
    best: Optional[BranchDecision] = None
    for n in candidates:
        if not coverage_ok(n):
            continue
        cr, ma, viol = _partition_costs(eff_keys, eff_ends, lo, hi, n, config, x3)
        cost = (
            config.x1 * (depth + 2)
            + config.x2 * (n * MODEL_BYTES)
            + x3 * viol_discount * (cr * max(1.0, ma) + viol * (config.c_err + 1))
        )
        if best is None or cost < best.cost:
            best = BranchDecision(False, n, cost)
    if best is None or (
        best.cost >= leaf_cost and fits_contiguity
    ):
        return BranchDecision(True, 0, leaf_cost, leaf_plan)
    return best


__all__ = [
    "BranchDecision",
    "LeafPlan",
    "choose_branching",
    "fit_keys",
    "plan_leaf",
    "predict_array",
    "scale_model",
]
