"""Tests for the convolution plans and their autotuner (Sec. IV-B)."""

import pytest

from repro.errors import PlanError, ShapeError
from repro.kernels.autotune import ConvConfig, PlanAutotuner, select_conv_plan
from repro.kernels.conv_explicit import ExplicitConvPlan
from repro.kernels.conv_implicit import ImplicitConvPlan
from repro.kernels.im2col import conv_out_dim


class TestIm2col:
    def test_nonpositive_output_rejected(self):
        with pytest.raises(ShapeError):
            conv_out_dim(2, 5, 1, 0)


class TestExplicitConvPlan:
    def test_1x1_skips_im2col_cost(self):
        with_im2col = ExplicitConvPlan(4, 64, 64, 14, 14, 3, pad=1)
        one_by_one = ExplicitConvPlan(4, 64, 64, 14, 14, 1)
        assert one_by_one.is_1x1 and not with_im2col.is_1x1
        assert one_by_one.cost_forward().dma_bytes < with_im2col.cost_forward().dma_bytes

    def test_cost_directions_all_positive(self):
        plan = ExplicitConvPlan(2, 16, 32, 28, 28, 3, pad=1)
        for c in (plan.cost_forward(), plan.cost_backward_weight(), plan.cost_backward_input()):
            assert c.total_s > 0
            assert c.flops > 0

    def test_negative_pad_rejected(self):
        with pytest.raises(PlanError, match="pad"):
            ExplicitConvPlan(2, 64, 64, 8, 8, 3, 1, -1)


class TestImplicitConvPlan:
    def test_small_channels_rejected(self):
        # conv1_1 of VGG: Ni=3 cannot use the implicit plan (Table II "-").
        with pytest.raises(PlanError):
            ImplicitConvPlan(1, 3, 64, 224, 224, 3, pad=1)

    def test_backward_needs_128_channels(self):
        # conv1_2 (64->64): forward available, backward not (Table II).
        plan = ImplicitConvPlan(1, 64, 64, 28, 28, 3, pad=1)
        assert plan.cost_forward().total_s > 0
        with pytest.raises(PlanError):
            plan.cost_backward_weight()
        with pytest.raises(PlanError):
            plan.cost_backward_input()

    def test_backward_available_at_128(self):
        plan = ImplicitConvPlan(1, 128, 128, 28, 28, 3, pad=1)
        assert plan.cost_backward_weight().total_s > 0
        assert plan.cost_backward_input().total_s > 0

    def test_efficiency_grows_with_channels(self):
        e64 = ImplicitConvPlan(1, 64, 64, 28, 28, 3, pad=1)._efficiency()
        e256 = ImplicitConvPlan(1, 256, 256, 28, 28, 3, pad=1)._efficiency()
        e512 = ImplicitConvPlan(1, 512, 512, 28, 28, 3, pad=1)._efficiency()
        assert e64 < e256 < e512

    def test_negative_pad_rejected(self):
        with pytest.raises(PlanError, match="pad"):
            ImplicitConvPlan(2, 64, 64, 8, 8, 3, 1, -1)


class TestAutotuner:
    def test_conv1_1_falls_back_to_explicit(self):
        cfg = ConvConfig(batch=32, ni=3, no=64, height=224, width=224, k=3, pad=1)
        choice = select_conv_plan(cfg, "forward")
        assert choice.plan_name == "explicit"
        assert len(choice.alternatives) == 1

    def test_large_channel_layer_has_both_candidates(self):
        cfg = ConvConfig(batch=32, ni=256, no=256, height=56, width=56, k=3, pad=1)
        choice = select_conv_plan(cfg, "forward")
        assert len(choice.alternatives) == 2

    def test_winner_is_min_cost(self):
        cfg = ConvConfig(batch=32, ni=512, no=512, height=14, width=14, k=3, pad=1)
        choice = select_conv_plan(cfg, "forward")
        best = min(choice.alternatives, key=lambda nc: nc[1])
        assert choice.plan_name == best[0]
        assert choice.cost.total_s == pytest.approx(best[1])

    def test_cache_probes_once(self):
        tuner = PlanAutotuner()
        cfg = ConvConfig(batch=8, ni=128, no=128, height=28, width=28, k=3, pad=1)
        a = tuner.choose(cfg, "forward")
        b = tuner.choose(cfg, "forward")
        assert a is b
        assert tuner.probe_count == 1
        tuner.choose(cfg, "backward_weight")
        assert tuner.probe_count == 2

    def test_bad_direction_rejected(self):
        cfg = ConvConfig(batch=1, ni=8, no=8, height=8, width=8, k=3, pad=1)
        with pytest.raises(ValueError):
            select_conv_plan(cfg, "sideways")

    def test_unpriceable_config_raises_on_every_call(self):
        cfg = ConvConfig(batch=2, ni=3, no=8, height=8, width=8, k=3, pad=-1)
        for _ in range(2):  # the first failure is not cached
            with pytest.raises(PlanError, match="pad"):
                select_conv_plan(cfg, "forward")
