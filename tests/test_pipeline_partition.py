"""Stage partitioner tests (:mod:`repro.pipeline.partition`).

The DP partitioner's optimality claim is checked against brute-force
enumeration of every contiguous split; the greedy baseline is checked for
validity (never optimality — it can be arbitrarily unlucky, and one test
pins a case where it is). Cut-set derivation is pinned on LeNet,
including the label relay: a blob produced by the data layer and consumed
only at the loss must appear in *every* intermediate cut.

The mutation smoke test guards the objective itself: an "unbalanced
split" mutant (all-but-tail in stage 0) must price strictly worse than
the DP optimum on any cost vector with real spread — if it ever doesn't,
the bottleneck objective has been broken.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.frame.model_zoo import lenet
from repro.pipeline.partition import (
    PARTITIONERS,
    StagePlan,
    boundary_blobs,
    partition_dp,
    partition_greedy,
    plan_stages,
)


def bottleneck(costs, bounds):
    return max(
        sum(costs[bounds[s]:bounds[s + 1]]) for s in range(len(bounds) - 1)
    )


def brute_force_optimum(costs, n_stages):
    n = len(costs)
    best = float("inf")
    for cuts in combinations(range(1, n), n_stages - 1):
        bounds = (0, *cuts, n)
        best = min(best, bottleneck(costs, bounds))
    return best


def _net():
    return lenet.build(batch_size=4, rng=np.random.default_rng(3))


class TestDP:
    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4, 5])
    def test_matches_brute_force_on_random_costs(self, n_stages):
        rng = np.random.default_rng([n_stages, 0xD0])
        for _ in range(5):
            costs = list(rng.uniform(0.1, 10.0, size=9))
            bounds = partition_dp(costs, n_stages)
            assert bottleneck(costs, bounds) == pytest.approx(
                brute_force_optimum(costs, n_stages)
            )

    def test_is_deterministic_on_ties(self):
        costs = [1.0] * 8
        assert partition_dp(costs, 4) == partition_dp(list(costs), 4)
        # Ties break toward earlier cuts: uniform costs split evenly.
        assert partition_dp(costs, 4) == (0, 2, 4, 6, 8)

    def test_isolates_a_dominant_layer(self):
        costs = [1.0, 1.0, 50.0, 1.0, 1.0]
        bounds = partition_dp(costs, 3)
        assert bottleneck(costs, bounds) == 50.0
        s = next(
            s for s in range(3) if 2 in range(bounds[s], bounds[s + 1])
        )
        assert bounds[s + 1] - bounds[s] == 1  # the big layer stands alone


class TestGreedy:
    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4])
    def test_produces_valid_bounds(self, n_stages):
        rng = np.random.default_rng(0x9E)
        costs = list(rng.uniform(0.1, 5.0, size=7))
        bounds = partition_greedy(costs, n_stages)
        assert bounds[0] == 0 and bounds[-1] == len(costs)
        assert all(b < e for b, e in zip(bounds, bounds[1:]))
        assert len(bounds) == n_stages + 1

    def test_can_lose_to_dp(self):
        # The greedy target is total/S = 13; it packs [10, 1, 1, 1] into
        # stage 0 and leaves the huge tail layer exposed.
        costs = [10.0, 1.0, 1.0, 1.0, 13.0]
        greedy = bottleneck(costs, partition_greedy(costs, 2))
        optimal = bottleneck(costs, partition_dp(costs, 2))
        assert optimal == 13.0
        assert greedy == 13.0  # equal here; the mutant test pins strict loss
        # Target 26/3 makes greedy close stage 0 at [5, 5] and then eat
        # the 9 into stage 1 ([5, 9] = 14); the optimum splits as
        # [5, 5] / [5] / [9, 1, 1] with bottleneck 11.
        costs = [5.0, 5.0, 5.0, 9.0, 1.0, 1.0]
        greedy = bottleneck(costs, partition_greedy(costs, 3))
        optimal = bottleneck(costs, partition_dp(costs, 3))
        assert optimal == 11.0
        assert greedy > optimal


class TestValidation:
    @pytest.mark.parametrize("fn", PARTITIONERS.values())
    def test_rejects_bad_stage_counts(self, fn):
        with pytest.raises(ValueError):
            fn([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            fn([1.0, 2.0], 3)

    def test_plan_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            plan_stages(_net(), 2, method="magic")

    def test_boundary_blobs_rejects_edge_splits(self):
        net = _net()
        with pytest.raises(ValueError):
            boundary_blobs(net, 0)
        with pytest.raises(ValueError):
            boundary_blobs(net, len(net.layers))


class TestCutSets:
    def test_label_is_relayed_through_every_cut(self):
        """The data layer produces ``label``; only the loss consumes it —
        so every intermediate boundary must carry it."""
        net = _net()
        plan = plan_stages(net, 4)
        for blobs in plan.cut_blobs:
            assert "label" in blobs

    def test_cut_bytes_match_blob_shapes(self):
        net = _net()
        plan = plan_stages(net, 2)
        (blobs,) = plan.cut_blobs
        expect = sum(
            net.blobs[n].count * np.dtype(net.blobs[n].dtype).itemsize
            for n in blobs
        )
        assert plan.cut_bytes[0] == float(expect)

    def test_boundary_blobs_cover_all_cross_edges(self):
        net = _net()
        split = 3
        blobs = set(boundary_blobs(net, split))
        produced = set()
        for layer in net.layers[:split]:
            produced.update(net._tops[layer.name])
        for layer in net.layers[split:]:
            for b in net._bottoms[layer.name]:
                if b in produced:
                    assert b in blobs


class TestPlan:
    def test_plan_shape_and_bookkeeping(self):
        net = _net()
        plan = plan_stages(net, 3)
        assert isinstance(plan, StagePlan)
        assert plan.n_stages == 3
        assert len(plan.stage_fwd_s) == len(plan.stage_bwd_s) == 3
        assert len(plan.cut_blobs) == len(plan.cut_bytes) == 2
        assert sum(plan.stage_param_bytes) == float(
            sum(
                p.count * np.dtype(p.dtype).itemsize
                for layer in net.layers
                for p in layer.params
            )
        )
        owned = [i for s in range(plan.n_stages) for i in plan.layer_range(s)]
        assert owned == list(range(len(net.layers)))

    def test_single_stage_is_the_whole_net(self):
        net = _net()
        plan = plan_stages(net, 1)
        assert plan.boundaries == (0, len(net.layers))
        assert plan.cut_blobs == ()
        assert plan.stage_imbalance == 0.0

    def test_dp_never_worse_than_greedy_on_real_nets(self):
        net = _net()
        for s in (2, 3, 4):
            dp = plan_stages(net, s, method="dp")
            greedy = plan_stages(net, s, method="greedy")
            assert max(dp.stage_cost_s) <= max(greedy.stage_cost_s) + 1e-12


class TestMutation:
    def test_unbalanced_split_mutant_prices_worse(self):
        """Objective smoke test: the degenerate all-but-tail split must
        raise the bottleneck strictly above the DP optimum whenever the
        cost vector has spread — a partitioner that ever prefers it has a
        broken objective."""
        rng = np.random.default_rng(0xBAD)
        for _ in range(10):
            costs = list(rng.uniform(0.5, 4.0, size=8))
            n_stages = 4
            mutant = (0, 5, 6, 7, 8)  # stage 0 hoards 5 of 8 layers
            optimal = bottleneck(costs, partition_dp(costs, n_stages))
            assert bottleneck(costs, mutant) > optimal
