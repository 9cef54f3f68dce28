"""Tests for memory planning and gradient accumulation (iter_size)."""

import numpy as np
import pytest

from repro.frame.layers.data import DataLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.softmax import SoftmaxWithLossLayer
from repro.frame.model_zoo import lenet, vgg
from repro.frame.net import Net
from repro.frame.solver import SGDSolver
from repro.hw.spec import SW_PARAMS
from repro.io.dataset import SyntheticImageNet
from repro.perf.memory import MemoryFootprint, net_memory_footprint
from repro.utils.rng import seeded_rng


class TestMemoryFootprint:
    def test_components_positive_and_total(self):
        net = lenet.build(batch_size=8)
        fp = net_memory_footprint(net)
        assert fp.params_bytes > 0
        assert fp.activation_bytes > 0
        assert fp.workspace_bytes > 0  # LeNet's 5x5 convs need im2col space
        assert fp.total_bytes == (
            fp.params_bytes + fp.solver_bytes + fp.activation_bytes + fp.workspace_bytes
        )

    def test_activations_scale_with_batch(self):
        small = net_memory_footprint(lenet.build(batch_size=8))
        big = net_memory_footprint(lenet.build(batch_size=32))
        assert big.activation_bytes == pytest.approx(4 * small.activation_bytes, rel=0.01)
        assert big.params_bytes == small.params_bytes

    def test_paper_vgg_batch_is_memory_limited(self):
        """Table III runs VGG-16 at batch 64: it fits the 8 GB core group,
        while 128 does not — the batch choice is a memory constraint."""
        at64 = net_memory_footprint(vgg.build_vgg16(batch_size=64))
        at128 = net_memory_footprint(vgg.build_vgg16(batch_size=128))
        assert at64.fits()
        assert not at128.fits()

    def test_fits_custom_capacity(self):
        fp = MemoryFootprint(1, 1, 1, 1)
        assert fp.fits(4)
        assert not fp.fits(3)


class TestIterSize:
    def make_net(self):
        src = SyntheticImageNet(num_classes=3, sample_shape=(6,), noise=0.2, seed=21)
        net = Net("acc")
        net.add(DataLayer("data", src, 8), [], ["data", "label"])
        net.add(InnerProductLayer("ip", 3, rng=seeded_rng(22)), ["data"], ["logits"])
        net.add(SoftmaxWithLossLayer("loss"), ["logits", "label"], ["loss"])
        return net

    def test_accumulation_averages_gradients(self):
        """iter_size=2 must equal manually averaging two passes' gradients."""
        net_a = self.make_net()
        solver_a = SGDSolver(net_a, base_lr=0.05, momentum=0.0, iter_size=2)
        solver_a.step(1)

        net_b = self.make_net()
        net_b.zero_param_diffs()
        for _ in range(2):
            net_b.forward()
            net_b.backward()
        for p in net_b.params:
            p.diff = p.diff / 2
        SGDSolver(net_b, base_lr=0.05, momentum=0.0).apply_update()

        for pa, pb in zip(net_a.params, net_b.params):
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-6)

    def test_iter_size_counts_once_per_update(self):
        net = self.make_net()
        solver = SGDSolver(net, base_lr=0.01, iter_size=3)
        stats = solver.step(4)
        assert stats.iterations == 4
        assert solver.iter == 4

    def test_simulated_time_counts_all_passes(self):
        plain = SGDSolver(self.make_net(), base_lr=0.01).step(2).simulated_time_s
        accum = SGDSolver(self.make_net(), base_lr=0.01, iter_size=3).step(2).simulated_time_s
        assert accum == pytest.approx(3 * plain, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            SGDSolver(self.make_net(), iter_size=0)
