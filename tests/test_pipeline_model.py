"""Pipeline iteration-model tests (:mod:`repro.pipeline.model`).

Mechanics are pinned on a synthetic :class:`StagePlan` (cheap, exact);
the cost-curve unification satellite is pinned directly — the shared
:func:`~repro.parallel.comm_cost.allreduce_cost` helper must price
exactly what :class:`~repro.parallel.ssgd.SSGDIterationModel` charges
per allreduce, so the DP and hybrid models cannot drift onto different
curves. The headline hybrid-vs-DP economics on real VGG-16 are pinned
in ``tests/test_harness_goldens.py``.
"""

from __future__ import annotations

import pytest

from repro.parallel.comm_cost import allreduce_cost, ptp_cost
from repro.parallel.ssgd import SSGDIterationModel
from repro.pipeline.model import PipelineIterationModel
from repro.pipeline.partition import StagePlan

MB = 1e6


def synthetic_plan(n_stages=4, param_mb=40.0, cut_mb=0.5):
    """A balanced synthetic plan: equal stages, equal cuts."""
    return StagePlan(
        net_name="synthetic",
        boundaries=tuple(range(n_stages + 1)),
        stage_fwd_s=tuple([0.02] * n_stages),
        stage_bwd_s=tuple([0.04] * n_stages),
        cut_blobs=tuple(("act",) for _ in range(n_stages - 1)),
        cut_bytes=tuple([cut_mb * MB] * (n_stages - 1)),
        stage_param_bytes=tuple([param_mb * MB] * n_stages),
    )


class TestSharedCommCost:
    """Satellite (a): one comm-cost helper for both parallelism models."""

    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("nbytes", [1e6, 32e6, 553e6])
    def test_allreduce_cost_equals_ssgd_single_allreduce(self, n, nbytes):
        model = SSGDIterationModel(compute_s=1.0, model_bytes=nbytes)
        assert model._single_allreduce_time(nbytes, n) == allreduce_cost(
            nbytes,
            n,
            nodes_per_supernode=model.nodes_per_supernode,
            network=model.network,
            reduce_engine=model.reduce_engine,
            placement=model.placement,
        )

    def test_hybrid_allreduce_rides_the_same_curve(self):
        """Stage 0 drains last, so its group's fused allreduce is fully
        exposed: the spill is exactly the DP curve's allreduce."""
        plan = synthetic_plan()
        model = PipelineIterationModel(plan, n_microbatches=8, replicas=4)
        expect = allreduce_cost(
            plan.stage_param_bytes[0],
            4,
            nodes_per_supernode=model.nodes_per_supernode,
            network=model.network,
            reduce_engine=model.reduce_engine,
            placement=model.placement,
        )
        assert set(plan.stage_param_bytes) == {plan.stage_param_bytes[0]}
        assert model.breakdown().allreduce_s == pytest.approx(expect, rel=1e-12)

    def test_xfers_ride_the_ptp_curve(self):
        plan = synthetic_plan()
        model = PipelineIterationModel(plan, n_microbatches=8)
        fwd, bwd = model.xfer_times()
        scale = model.microbatch_scale
        expect = ptp_cost(plan.cut_bytes[0] * scale, network=model.network)
        assert fwd == [expect] * 3
        assert bwd == fwd


class TestMechanics:
    def test_microbatch_scale_is_stage_over_microbatches(self):
        model = PipelineIterationModel(synthetic_plan(4), n_microbatches=16)
        assert model.microbatch_scale == 4 / 16
        assert model.n_nodes == 4

    def test_pure_pipeline_pays_no_allreduce(self):
        model = PipelineIterationModel(synthetic_plan(), n_microbatches=8)
        bd = model.breakdown()
        assert bd.allreduce_s == 0.0
        assert bd.allreduce_hidden_s == 0.0
        assert bd.total_s == bd.pipeline_s + bd.update_s

    def test_free_transfer_timeline_bounds_exposed_comm(self):
        model = PipelineIterationModel(synthetic_plan(), n_microbatches=8)
        with_comm = model.timeline(with_comm=True)
        ideal = model.timeline(with_comm=False)
        assert with_comm.makespan_s >= ideal.makespan_s
        bd = model.breakdown()
        assert bd.exposed_comm_s == pytest.approx(
            with_comm.makespan_s - ideal.makespan_s
        )

    def test_hybrid_drain_overlap_hides_early_stage_sync(self):
        """Stage 0 finishes its backwards first; its group allreduce
        should be (at least partly) hidden behind the still-draining
        later stages."""
        model = PipelineIterationModel(
            synthetic_plan(), n_microbatches=8, replicas=4
        )
        bd = model.breakdown()
        assert bd.allreduce_hidden_s > 0.0
        # Exposed spill can never exceed the fused per-group service.
        fused = allreduce_cost(
            max(model.plan.stage_param_bytes),
            4,
            nodes_per_supernode=model.nodes_per_supernode,
            network=model.network,
            reduce_engine=model.reduce_engine,
            placement=model.placement,
        )
        assert bd.allreduce_s <= fused + 1e-12

    def test_bucketing_hides_more_than_fused(self):
        fused = PipelineIterationModel(
            synthetic_plan(), n_microbatches=8, replicas=4
        ).breakdown()
        bucketed = PipelineIterationModel(
            synthetic_plan(), n_microbatches=8, replicas=4, bucket_mb=8.0
        ).breakdown()
        assert bucketed.allreduce_hidden_s >= fused.allreduce_hidden_s
        assert bucketed.total_s <= fused.total_s + 1e-12

    def test_update_time_prices_largest_shard(self):
        model = PipelineIterationModel(synthetic_plan(), n_microbatches=8)
        bw = model.runner.params.dma_peak_bw
        assert model.update_time() == 5.0 * 40.0 * MB / bw

    def test_more_microbatches_shrink_the_fill_drain_bubble(self):
        """On free transfers the GPipe math applies: more microbatches,
        smaller bubble. (With priced transfers the trend can invert — per
        message alpha is fixed while payloads shrink, the finding the
        harness notes — so this pin uses the idealized timeline.)"""
        small = PipelineIterationModel(synthetic_plan(), n_microbatches=4)
        large = PipelineIterationModel(synthetic_plan(), n_microbatches=32)
        assert (
            large.timeline(with_comm=False).bubble_frac
            < small.timeline(with_comm=False).bubble_frac
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineIterationModel(synthetic_plan(), n_microbatches=0)
        with pytest.raises(ValueError):
            PipelineIterationModel(synthetic_plan(), n_microbatches=4,
                                   replicas=0)

    def test_iteration_time_and_comm_fraction_consistency(self):
        model = PipelineIterationModel(
            synthetic_plan(), n_microbatches=8, replicas=2, bucket_mb=16.0
        )
        bd = model.breakdown()
        assert model.iteration_time() == bd.total_s
        assert model.comm_fraction() == bd.comm_fraction
        assert 0.0 <= bd.comm_fraction < 1.0
