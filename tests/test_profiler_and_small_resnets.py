"""Tests for the net profiler and the ResNet-18/34 zoo additions."""

import pytest

from repro.frame.model_zoo import lenet
from repro.frame.model_zoo.resnet_small import build_resnet18, build_resnet34
from repro.utils.profiler import NetProfiler


class TestNetProfiler:
    @pytest.fixture(scope="class")
    def net(self):
        return lenet.build(batch_size=8)

    def test_profiles_every_layer(self, net):
        profiler = NetProfiler(net)
        profiles = profiler.profile()
        assert len(profiles) == len(net.layers)
        assert all(p.total_s >= 0 for p in profiles)

    def test_totals_consistent(self, net):
        profiler = NetProfiler(net)
        profiles = profiler.profile()
        agg = profiler.totals(profiles)
        assert agg["total"] == pytest.approx(sum(p.total_s for p in profiles))
        assert agg["total"] == pytest.approx(net.sw_iteration_time(), rel=1e-9)

    def test_bottleneck_labels(self, net):
        for p in NetProfiler(net).profile():
            assert p.bottleneck in ("compute", "dma", "rlc", "overhead")

    def test_render(self, net):
        text = NetProfiler(net).render()
        assert "profile" in text
        assert "iteration=" in text


class TestSmallResNets:
    def test_resnet18_parameters(self):
        net = build_resnet18(batch_size=1)
        n = sum(p.count for p in net.params)
        assert abs(n - 11.69e6) < 0.2e6

    def test_resnet34_parameters(self):
        net = build_resnet34(batch_size=1)
        n = sum(p.count for p in net.params)
        assert abs(n - 21.8e6) < 0.3e6

    def test_resnet18_topology(self):
        net = build_resnet18(batch_size=1)
        adds = [l for l in net.layers if l.type == "Eltwise"]
        assert len(adds) == 8  # 2+2+2+2 basic blocks
        assert net.blobs["pool5"].shape == (1, 512, 1, 1)

    def test_resnet18_faster_than_resnet34(self):
        t18 = build_resnet18(batch_size=8).sw_iteration_time()
        t34 = build_resnet34(batch_size=8).sw_iteration_time()
        assert t18 < t34

    def test_bad_depth(self):
        from repro.frame.model_zoo.resnet_small import _build

        with pytest.raises(ValueError):
            _build(50, 1, 10, None, None, False)
