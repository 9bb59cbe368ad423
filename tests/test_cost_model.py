"""Tests for the LVM cost model (paper section 4.2.3)."""

import numpy as np
import pytest

from repro.core.config import LVMConfig
from repro.core.cost_model import (
    choose_branching,
    fit_keys,
    plan_leaf,
    predict_array,
)

BIG = 1 << 40  # effectively unlimited physical contiguity


def arrays(keys, spans=None):
    keys = np.array(keys, dtype=np.int64)
    if spans is None:
        ends = keys + 1
    else:
        ends = keys + np.array(spans, dtype=np.int64)
    return keys, ends


class TestFitKeys:
    def test_matches_scalar_fit(self):
        keys = np.arange(1000, 2000, dtype=np.int64)
        model = fit_keys(keys)
        pred = predict_array(model, keys)
        assert np.all(np.abs(pred - np.arange(1000)) <= 1)

    def test_single_key(self):
        model = fit_keys(np.array([7], dtype=np.int64))
        assert model.predict(7) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_keys(np.empty(0, dtype=np.int64))


class TestPlanPredictions:
    """A plan's ``predictions`` (what a leaf places its entries from)
    equal the model's scalar ``predict`` of every key, as the per-key
    placement loop computed them.

    int64 cannot wrap in ``slope_raw * key + intercept_raw``: keys are
    VPNs of 47-bit virtual addresses (raw or rebased), so below 2**35;
    for distinct sorted keys the least-squares slope of rank against
    key is at most 1 (keys rise at least as fast as ranks), so the
    scaled ``slope_raw`` is at most about ``ga_scale * 2**20``, and a
    large-page slope is ``2**20 // span``.  Both terms stay below
    ``ga_scale * 2**56``, far inside 2**63."""

    @pytest.mark.parametrize("keys, spans", [
        (range(5000), None),
        ([(1 << 35) - 40_000 + 3 * i for i in range(10_000)], None),
        ([i * i for i in range(3000)], None),
        ([(1 << 34) + 512 * i for i in range(600)], [512] * 600),
        ([0] + [512 * i + 7 for i in range(1, 300)], [7] + [512] * 299),
    ])
    def test_match_scalar_predict(self, keys, spans):
        eff_keys, eff_ends = arrays(keys, spans)
        plan = plan_leaf(eff_keys, eff_ends, LVMConfig())
        assert plan.predictions.tolist() == [plan.model.predict(k) for k in keys]

    def test_empty_plan_has_no_predictions(self):
        plan = plan_leaf(*arrays([]), LVMConfig())
        assert plan.predictions.tolist() == []


class TestPlanLeaf:
    def test_dense_keys_good_plan(self):
        keys, ends = arrays(range(5000))
        plan = plan_leaf(keys, ends, LVMConfig())
        assert plan.within_error_bound
        assert plan.collision_rate < 0.01
        assert plan.max_window <= LVMConfig().max_leaf_error_slots
        # Table sized ~ ga_scale * keys.
        assert plan.num_slots <= 1.4 * 5000 + 64

    def test_normalized_predictions_start_at_zero(self):
        keys, ends = arrays(range(100_000, 105_000))
        plan = plan_leaf(keys, ends, LVMConfig())
        predicted = predict_array(plan.model, keys)
        assert predicted.min() == 0

    def test_empty_leaf(self):
        plan = plan_leaf(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), LVMConfig()
        )
        assert plan.within_error_bound
        assert plan.num_slots >= 8

    def test_mixed_density_violates_bound(self):
        # Dense head (1 key/VPN) then sparse tail (1 key per 8 VPNs):
        # one line double-books the head, cascading displacement.
        keys = list(range(2000)) + list(range(4000, 36_000, 8))
        keys, ends = arrays(keys)
        plan = plan_leaf(keys, ends, LVMConfig())
        assert not plan.within_error_bound

    def test_huge_page_interior_counts_in_window(self):
        # Dense 4K run plus a huge page: interior queries of the huge
        # page predict far past its entry under the dense slope.
        keys = list(range(1000)) + [2048]
        spans = [1] * 1000 + [512]
        keys, ends = arrays(keys, spans)
        plan = plan_leaf(keys, ends, LVMConfig())
        assert plan.max_window > LVMConfig().max_leaf_error_slots
        assert not plan.within_error_bound

    def test_uniform_huge_pages_ok(self):
        keys = list(range(0, 512 * 200, 512))
        spans = [512] * 200
        keys, ends = arrays(keys, spans)
        plan = plan_leaf(keys, ends, LVMConfig())
        assert plan.within_error_bound


class TestChooseBranching:
    def test_good_leaf_stays_leaf(self):
        keys, ends = arrays(range(10_000))
        decision = choose_branching(keys, ends, 0, 10_000, 0, LVMConfig(), BIG)
        assert decision.make_leaf

    def test_multi_segment_space_branches(self):
        segs = (
            list(range(0, 2000))
            + list(range(100_000, 105_000))
            + list(range(400_000, 403_000))
        )
        keys, ends = arrays(segs)
        decision = choose_branching(keys, ends, 0, 403_000, 0, LVMConfig(), BIG)
        assert not decision.make_leaf
        assert decision.num_children >= 2

    def test_contiguity_forces_split(self):
        keys, ends = arrays(range(100_000))
        # Table would need ~1 MB; only 64 KB contiguity available.
        decision = choose_branching(
            keys, ends, 0, 100_000, 0, LVMConfig(), 64 << 10
        )
        assert not decision.make_leaf
        # At least enough children for the contiguity split.
        assert decision.num_children >= (100_000 * 8 * 1.3) // (64 << 10)

    def test_depth_limit_forces_leaf(self):
        segs = list(range(0, 2000)) + list(range(100_000, 102_000))
        keys, ends = arrays(segs)
        config = LVMConfig()
        decision = choose_branching(
            keys, ends, 0, 102_000, config.d_limit - 1, config, BIG
        )
        assert decision.make_leaf

    def test_coverage_guardrail_blocks_tiny_children(self):
        # A span too small for even two children at the coverage floor.
        keys, ends = arrays([0, 100, 200, 900])
        decision = choose_branching(keys, ends, 0, 1000, 0, LVMConfig(), BIG)
        assert decision.make_leaf

    def test_x3_boost_prefers_branching(self):
        segs = list(range(0, 3000)) + list(range(50_000, 53_000))
        keys, ends = arrays(segs)
        config = LVMConfig()
        base = choose_branching(keys, ends, 0, 53_000, 0, config, BIG)
        boosted = choose_branching(
            keys, ends, 0, 53_000, 0, config, BIG, x3_boost=100.0
        )
        if not base.make_leaf:
            assert not boosted.make_leaf
