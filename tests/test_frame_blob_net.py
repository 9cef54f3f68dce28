"""Tests for Blob bookkeeping and Net wiring/propagation mechanics."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.frame import Blob, Net
from repro.frame.layers import (
    DataLayer,
    EltwiseLayer,
    InnerProductLayer,
    ReLULayer,
    SoftmaxWithLossLayer,
)
from repro.io.dataset import SyntheticImageNet
from repro.utils.rng import seeded_rng


class TestBlob:
    def test_lazy_allocation(self):
        b = Blob("x", (4, 5))
        assert not b.has_data()
        assert b.count == 20
        assert b.nbytes == 80
        _ = b.data
        assert b.has_data()

    def test_reshape_drops_storage(self):
        b = Blob("x", (2, 2))
        b.data = np.ones((2, 2))
        b.reshape((3, 3))
        assert b.shape == (3, 3)
        np.testing.assert_array_equal(b.data, np.zeros((3, 3)))

    def test_reshape_same_shape_keeps_storage(self):
        b = Blob("x", (2, 2))
        b.data = np.ones((2, 2))
        b.reshape((2, 2))
        np.testing.assert_array_equal(b.data, np.ones((2, 2)))

    def test_assign_wrong_shape_raises(self):
        b = Blob("x", (2, 2))
        with pytest.raises(ShapeError):
            b.data = np.ones((3, 3))
        with pytest.raises(ShapeError):
            b.diff = np.ones((3, 3))

    def test_zero_diff(self):
        b = Blob("x", (2,))
        b.diff = np.array([1.0, 2.0])
        b.zero_diff()
        np.testing.assert_array_equal(b.diff, np.zeros(2))

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ShapeError):
            Blob("x", (2,)).reshape((0, 3))

    def test_dtype_cast_on_assignment(self):
        b = Blob("x", (2,))
        b.data = np.array([1, 2], dtype=np.int64)
        assert b.data.dtype == np.float32


def tiny_net(batch=8, dim=6, classes=3, hidden=5):
    src = SyntheticImageNet(num_classes=classes, sample_shape=(dim,), noise=0.1, seed=1)
    net = Net("tiny")
    net.add(DataLayer("data", src, batch), bottoms=[], tops=["data", "label"])
    net.add(InnerProductLayer("ip1", hidden, rng=seeded_rng(2)), ["data"], ["ip1"])
    net.add(ReLULayer("relu1"), ["ip1"], ["relu1"])
    net.add(InnerProductLayer("ip2", classes, rng=seeded_rng(3)), ["relu1"], ["ip2"])
    net.add(SoftmaxWithLossLayer("loss"), ["ip2", "label"], ["loss"])
    return net


class TestNet:
    def test_forward_produces_loss(self):
        net = tiny_net()
        losses = net.forward()
        assert "loss" in losses
        assert losses["loss"] > 0

    def test_backward_fills_param_diffs(self):
        net = tiny_net()
        net.forward()
        net.backward()
        ip1 = net.layer_by_name("ip1")
        assert float(np.abs(ip1.weight.diff).sum()) > 0

    def test_first_learnable_layer_does_not_propagate(self):
        net = tiny_net()
        assert net.layer_by_name("ip1").propagate_down is False
        assert net.layer_by_name("ip2").propagate_down is True

    def test_duplicate_layer_name_rejected(self):
        net = tiny_net()
        with pytest.raises(ShapeError):
            net.add(ReLULayer("relu1"), ["ip1"], ["other"])

    def test_missing_bottom_rejected(self):
        net = Net("n")
        with pytest.raises(ShapeError):
            net.add(ReLULayer("r"), ["nope"], ["out"])

    def test_inplace_top_rejected(self):
        net = tiny_net()
        with pytest.raises(ShapeError):
            net.add(ReLULayer("relu_ip"), ["ip1"], ["ip1"])

    def test_fanout_gradients_accumulate(self):
        # Two consumers of the same blob: bottom diff must be the sum.
        src = SyntheticImageNet(num_classes=2, sample_shape=(4,), seed=0)
        net = Net("fan")
        net.add(DataLayer("data", src, 4), bottoms=[], tops=["data", "label"])
        net.add(InnerProductLayer("ip0", 4, rng=seeded_rng(1)), ["data"], ["x"])
        net.add(ReLULayer("r1"), ["x"], ["a"])
        net.add(ReLULayer("r2"), ["x"], ["b"])
        net.add(EltwiseLayer("add"), ["a", "b"], ["sum"])
        net.add(InnerProductLayer("ip1", 2, rng=seeded_rng(2)), ["sum"], ["logits"])
        net.add(SoftmaxWithLossLayer("loss"), ["logits", "label"], ["loss"])
        net.forward()
        net.backward()
        x = net.blobs["x"]
        a, b = net.blobs["a"], net.blobs["b"]
        # x is positive or negative; both ReLUs share the mask, so the
        # fan-in diff is the sum of both branches' diffs through the mask.
        mask = net.blobs["x"].data > 0
        expected = (a.diff + b.diff) * mask
        np.testing.assert_allclose(x.diff, expected, rtol=1e-5)

    def test_param_bytes(self):
        net = tiny_net(dim=6, classes=3, hidden=5)
        # ip1: 5x6 + 5, ip2: 3x5 + 3 -> 53 float32 params.
        assert net.param_bytes() == 53 * 4

    def test_set_phase_propagates(self):
        net = tiny_net()
        net.set_phase("test")
        assert all(l.phase == "test" for l in net.layers)
        with pytest.raises(ValueError):
            net.set_phase("deploy")

    def test_sw_iteration_time_positive(self):
        net = tiny_net()
        t = net.sw_iteration_time()
        assert t > 0
        forward_s = sum(cost.forward.total_s for _, cost in net.sw_layer_costs())
        assert forward_s < t

    def test_layer_by_name_missing(self):
        with pytest.raises(KeyError):
            tiny_net().layer_by_name("ghost")


class TestBackwardHooks:
    def test_hooks_fire_last_to_first_with_indices(self):
        net = tiny_net()
        net.forward()
        seen = []
        net.add_backward_hook(lambda layer, index: seen.append((index, layer.name)))
        net.backward()
        indices = [i for i, _ in seen]
        assert indices == list(range(len(net.layers) - 1, -1, -1))
        assert seen[0][1] == "loss" and seen[-1][1] == "data"

    def test_hook_sees_completed_gradients(self):
        # By the time the hook fires for a layer, that layer's param
        # gradients are final (backward has fully processed it).
        net = tiny_net()
        net.forward()
        grabbed = {}

        def hook(layer, index):
            if layer.params:
                grabbed[layer.name] = [p.diff.copy() for p in layer.params]

        net.add_backward_hook(hook)
        net.backward()
        for name, diffs in grabbed.items():
            layer = net.layer_by_name(name)
            for got, final in zip(diffs, [p.diff for p in layer.params]):
                assert np.array_equal(got, final)

    def test_remove_backward_hook(self):
        net = tiny_net()
        net.forward()
        calls = []
        hook = lambda layer, index: calls.append(index)
        net.add_backward_hook(hook)
        net.backward()
        n = len(calls)
        net.remove_backward_hook(hook)
        net.forward()
        net.backward()
        assert len(calls) == n

    def test_multiple_hooks_all_fire(self):
        net = tiny_net()
        net.forward()
        a, b = [], []
        net.add_backward_hook(lambda l, i: a.append(i))
        net.add_backward_hook(lambda l, i: b.append(i))
        net.backward()
        assert a == b and len(a) == len(net.layers)
