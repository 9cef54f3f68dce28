"""Tests for im2col/col2im and the convolution plans (Sec. IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError, ShapeError
from repro.kernels import (
    ExplicitConvPlan,
    ImplicitConvPlan,
    col2im,
    im2col,
)
from repro.kernels.autotune import ConvConfig, PlanAutotuner, select_conv_plan
from repro.kernels.im2col import conv_out_dim


def reference_conv(x, w, b, stride, pad):
    """Dense direct convolution, the independent oracle."""
    bs, ni, h, ww = x.shape
    no, _, k, _ = w.shape
    ho = conv_out_dim(h, k, stride, pad)
    wo = conv_out_dim(ww, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((bs, no, ho, wo), dtype=x.dtype)
    for bi in range(bs):
        for o in range(no):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[bi, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[bi, o, i, j] = np.sum(patch * w[o])
    if b is not None:
        out += b.reshape(1, no, 1, 1)
    return out


class TestIm2col:
    @settings(max_examples=20, deadline=None)
    @given(
        c=st.integers(min_value=1, max_value=4),
        h=st.integers(min_value=3, max_value=10),
        w=st.integers(min_value=3, max_value=10),
        k=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=2),
        pad=st.integers(min_value=0, max_value=2),
    )
    def test_im2col_matches_patch_extraction(self, c, h, w, k, stride, pad):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(c, h, w))
        cols = im2col(x, k, stride, pad)
        ho = conv_out_dim(h, k, stride, pad)
        wo = conv_out_dim(w, k, stride, pad)
        assert cols.shape == (c * k * k, ho * wo)
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        for oi in range(ho):
            for oj in range(wo):
                patch = xp[:, oi * stride : oi * stride + k, oj * stride : oj * stride + k]
                np.testing.assert_allclose(cols[:, oi * wo + oj], patch.ravel())

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        # property of the backward transform.
        rng = np.random.default_rng(7)
        shape, k, stride, pad = (3, 8, 9), 3, 2, 1
        x = rng.normal(size=shape)
        cols_shape = im2col(x, k, stride, pad).shape
        y = rng.normal(size=cols_shape)
        lhs = np.sum(im2col(x, k, stride, pad) * y)
        rhs = np.sum(x * col2im(y, shape, k, stride, pad))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_shape_validation(self):
        with pytest.raises(ShapeError):
            col2im(np.zeros((9, 10)), (1, 5, 5), k=3, stride=1, pad=0)

    def test_im2col_requires_3d(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((2, 3)), 1)

    def test_nonpositive_output_rejected(self):
        with pytest.raises(ShapeError):
            conv_out_dim(2, 5, 1, 0)


class TestExplicitConvPlan:
    @settings(max_examples=15, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=3),
        ni=st.integers(min_value=1, max_value=4),
        no=st.integers(min_value=1, max_value=4),
        hw=st.integers(min_value=4, max_value=8),
        k=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=2),
        pad=st.integers(min_value=0, max_value=1),
    )
    def test_forward_matches_reference(self, batch, ni, no, hw, k, stride, pad):
        rng = np.random.default_rng(batch + ni * 10)
        x = rng.normal(size=(batch, ni, hw, hw))
        w = rng.normal(size=(no, ni, k, k))
        b = rng.normal(size=no)
        plan = ExplicitConvPlan(batch, ni, no, hw, hw, k, stride, pad)
        np.testing.assert_allclose(
            plan.forward(x, w, b), reference_conv(x, w, b, stride, pad), rtol=1e-9
        )

    def test_backward_gradients_numerical(self):
        rng = np.random.default_rng(3)
        batch, ni, no, hw, k = 2, 2, 3, 5, 3
        x = rng.normal(size=(batch, ni, hw, hw))
        w = rng.normal(size=(no, ni, k, k))
        plan = ExplicitConvPlan(batch, ni, no, hw, hw, k, stride=1, pad=1)
        dy = rng.normal(size=(batch, no, hw, hw))
        dx, dw, db = plan.backward(x, w, dy)

        eps = 1e-6
        # Check a sample of weight gradients by central differences.
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2), (1, 0, 1, 2)]:
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            fp = np.sum(plan.forward(x, wp, None) * dy)
            fm = np.sum(plan.forward(x, wm, None) * dy)
            assert dw[idx] == pytest.approx((fp - fm) / (2 * eps), rel=1e-4)
        # And a sample of input gradients.
        for idx in [(0, 0, 0, 0), (1, 1, 3, 4)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fp = np.sum(plan.forward(xp, w, None) * dy)
            fm = np.sum(plan.forward(xm, w, None) * dy)
            assert dx[idx] == pytest.approx((fp - fm) / (2 * eps), rel=1e-4)
        # Bias gradient is the spatial/batch sum of dy.
        np.testing.assert_allclose(db, dy.sum(axis=(0, 2, 3)), rtol=1e-10)

    def test_need_input_grad_false(self):
        plan = ExplicitConvPlan(1, 2, 2, 4, 4, 3, pad=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        dy = rng.normal(size=(1, 2, 4, 4))
        dx, dw, db = plan.backward(x, w, dy, need_input_grad=False)
        assert dx is None
        assert dw.shape == w.shape

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
    def test_forward_matches_explicit(self):
        rng = np.random.default_rng(11)
        batch, c, hw, k = 2, 64, 8, 3
        x = rng.normal(size=(batch, c, hw, hw)).astype(np.float64)
        w = rng.normal(size=(c, c, k, k))
        b = rng.normal(size=c)
        imp = ImplicitConvPlan(batch, c, c, hw, hw, k, stride=1, pad=1)
        exp = ExplicitConvPlan(batch, c, c, hw, hw, k, stride=1, pad=1)
        np.testing.assert_allclose(
            imp.forward(x, w, b), exp.forward(x, w, b), rtol=1e-9
        )

    def test_forward_stride_2_matches(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 64, 9, 9))
        w = rng.normal(size=(64, 64, 3, 3))
        imp = ImplicitConvPlan(1, 64, 64, 9, 9, 3, stride=2, pad=1)
        exp = ExplicitConvPlan(1, 64, 64, 9, 9, 3, stride=2, pad=1)
        np.testing.assert_allclose(imp.forward(x, w, None), exp.forward(x, w, None), rtol=1e-9)

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
        tuner.clear()
        assert tuner.probe_count == 0

    def test_bad_direction_rejected(self):
        cfg = ConvConfig(batch=1, ni=8, no=8, height=8, width=8, k=3, pad=1)
        with pytest.raises(ValueError):
            select_conv_plan(cfg, "sideways")

    def test_unpriceable_config_raises_on_every_call(self):
        cfg = ConvConfig(batch=2, ni=3, no=8, height=8, width=8, k=3, pad=-1)
        for _ in range(2):  # the first failure is not cached
            with pytest.raises(PlanError, match="pad"):
                select_conv_plan(cfg, "forward")
