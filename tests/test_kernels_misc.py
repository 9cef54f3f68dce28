"""Tests for pooling, layout transform, streaming costs and PlanCost."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError, ShapeError
from repro.hw.spec import SW_PARAMS
from repro.kernels.elementwise import stream_cost
from repro.kernels.plan import PlanCost, combine_sequential
from repro.kernels.pooling import PoolingPlan
from repro.kernels.transform import TensorTransformPlan


def reference_pool(x, k, stride, pad, mode):
    b, c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    fill = -np.inf if mode == "max" else 0.0
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    out = np.zeros((b, c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            win = xp[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = win.max(axis=(2, 3)) if mode == "max" else win.mean(axis=(2, 3))
    return out


class TestPooling:
    @settings(max_examples=15, deadline=None)
    @given(
        b=st.integers(min_value=1, max_value=2),
        c=st.integers(min_value=1, max_value=3),
        hw=st.integers(min_value=4, max_value=9),
        k=st.integers(min_value=2, max_value=3),
        stride=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(["max", "avg"]),
    )
    def test_forward_matches_reference(self, b, c, hw, k, stride, mode):
        rng = np.random.default_rng(b * 100 + hw)
        x = rng.normal(size=(b, c, hw, hw))
        plan = PoolingPlan(b, c, hw, hw, k, stride, 0, mode)
        out, _ = plan.forward(x)
        np.testing.assert_allclose(out, reference_pool(x, k, stride, 0, mode), rtol=1e-12)

    def test_max_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        plan = PoolingPlan(1, 1, 2, 2, 2)
        out, arg = plan.forward(x)
        assert out[0, 0, 0, 0] == 4.0
        dy = np.array([[[[5.0]]]])
        dx = plan.backward(x, dy, arg)
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 1, 1] = 5.0
        np.testing.assert_array_equal(dx, expected)

    def test_avg_backward_spreads_evenly(self):
        x = np.ones((1, 1, 4, 4))
        plan = PoolingPlan(1, 1, 4, 4, 2, mode="avg")
        out, arg = plan.forward(x)
        dy = np.ones((1, 1, 2, 2))
        dx = plan.backward(x, dy, arg)
        np.testing.assert_allclose(dx, np.full((1, 1, 4, 4), 0.25))

    def test_max_backward_numerical(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 6, 6))
        plan = PoolingPlan(2, 3, 6, 6, 2, stride=2)
        out, arg = plan.forward(x)
        dy = rng.normal(size=out.shape)
        dx = plan.backward(x, dy, arg)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (1, 2, 3, 3), (0, 1, 5, 5)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fp = np.sum(plan.forward(xp)[0] * dy)
            fm = np.sum(plan.forward(xm)[0] * dy)
            assert dx[idx] == pytest.approx((fp - fm) / (2 * eps), rel=1e-4, abs=1e-8)

    def test_overlapping_pool_with_pad(self):
        # AlexNet-style 3x3/stride-2 overlapping pooling.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 7, 7))
        plan = PoolingPlan(1, 2, 7, 7, 3, stride=2, pad=1)
        out, _ = plan.forward(x)
        np.testing.assert_allclose(out, reference_pool(x, 3, 2, 1, "max"), rtol=1e-12)

    def test_cost_is_bandwidth_dominated(self):
        plan = PoolingPlan(32, 64, 112, 112, 2, 2)
        cost = plan.cost()
        assert cost.dma_s > cost.compute_s

    def test_invalid_mode(self):
        with pytest.raises(PlanError):
            PoolingPlan(1, 1, 4, 4, 2, mode="median")

    @pytest.mark.parametrize(
        "stride, pad",
        [(0, 0), (-1, 0), (2, -1), (2, 2), (1, 3)],
        ids=["zero-stride", "negative-stride", "negative-pad", "pad-eq-k", "pad-gt-k"],
    )
    def test_bad_geometry_rejected_at_construction(self, stride, pad):
        # Unchecked, stride 0 divides by zero, a negative pad fails inside
        # np.pad at forward, and pad >= k outputs -inf where a window lies
        # wholly in the padding.
        with pytest.raises(PlanError):
            PoolingPlan(1, 1, 4, 4, 2, stride=stride, pad=pad)


class TestTransform:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        shape = (3, 5, 7, 2)
        x = rng.normal(size=shape)
        to_imp = TensorTransformPlan(shape, to_implicit=True)
        to_exp = TensorTransformPlan(shape, to_implicit=False)
        y = to_imp.run(x)
        assert y.shape == (7, 2, 5, 3)  # (R, C, N, B)
        np.testing.assert_array_equal(to_exp.run(y), x)

    def test_layout_values(self):
        x = np.arange(2 * 3 * 4 * 5).reshape(2, 3, 4, 5)
        y = TensorTransformPlan(x.shape).run(x)
        # y[r, c, n, b] == x[b, n, r, c]
        assert y[1, 2, 0, 1] == x[1, 0, 1, 2]

    def test_cost_scales_with_size(self):
        small = TensorTransformPlan((2, 16, 8, 8)).cost()
        big = TensorTransformPlan((8, 64, 16, 16)).cost()
        assert big.total_s > small.total_s
        assert big.dma_bytes == 2 * 8 * 64 * 16 * 16 * 4

    def test_shape_validation(self):
        with pytest.raises(PlanError):
            TensorTransformPlan((0, 1, 2, 3))
        plan = TensorTransformPlan((2, 3, 4, 5))
        with pytest.raises(ShapeError):
            plan.run(np.zeros((2, 3, 4, 6)))


class TestElementwise:
    def test_stream_traffic(self):
        cost = stream_cost(1000, 3.0, 2, 1, SW_PARAMS)
        assert cost.dma_bytes == 8000 + 4000
        assert cost.flops == 3000

    def test_bandwidth_bound(self):
        cost = stream_cost(1 << 20, 1.0, 1, 1, SW_PARAMS)
        assert cost.dma_s > cost.compute_s
        assert cost.total_s == pytest.approx(cost.dma_s)

    def test_zero_work_is_free(self):
        assert stream_cost(0, 0.0, 1, 1, SW_PARAMS).total_s == 0.0

    def test_validation(self):
        with pytest.raises(PlanError):
            stream_cost(-1, 0.0, 1, 0, SW_PARAMS)
        with pytest.raises(PlanError):
            stream_cost(1, -1.0, 1, 1, SW_PARAMS)


class TestPlanCost:
    def test_total_is_overlapped_max(self):
        c = PlanCost(compute_s=2.0, dma_s=3.0, rlc_s=1.0, overhead_s=0.5)
        assert c.total_s == pytest.approx(3.5)

    def test_combine_sequential_preserves_total(self):
        a = PlanCost(compute_s=1.0, dma_s=2.0)
        b = PlanCost(compute_s=3.0, dma_s=0.5)
        combined = combine_sequential([a, b])
        assert combined.total_s == pytest.approx(a.total_s + b.total_s)
        assert combined.compute_s == pytest.approx(4.0)
        assert combined.dma_s == pytest.approx(2.5)

    def test_add_operator(self):
        a = PlanCost(compute_s=1.0, flops=10)
        b = PlanCost(dma_s=2.0, dma_bytes=100)
        c = a + b
        assert c.total_s == pytest.approx(3.0)
        assert c.flops == 10
        assert c.dma_bytes == 100

    def test_gflops(self):
        c = PlanCost(compute_s=1.0, flops=5e9)
        assert c.gflops == pytest.approx(5.0)
        assert PlanCost().gflops == 0.0
