"""Tests for the roofline baselines and whole-net timing engine."""

import numpy as np
import pytest

from repro.frame.blob import Blob
from repro.frame.layers.convolution import ConvolutionLayer
from repro.frame.layers.relu import ReLULayer
from repro.frame.model_zoo import lenet
from repro.perf.cpu_host import CPU_DEVICE, cpu_layer_time
from repro.perf.gpu_k40m import (
    K40M_DEVICE,
    conv_efficiency as gpu_conv_eff,
    gpu_layer_time,
)
from repro.perf.layer_cost import net_iteration_time, net_layer_timings, net_record
from repro.perf.roofline import RooflineDevice
from repro.perf.workload import layer_workload
from repro.utils.rng import seeded_rng


def setup_layer(layer, shape):
    bottoms = [Blob("b", shape)]
    bottoms[0].data = np.zeros(shape, dtype=np.float32)
    tops = [Blob("t")]
    layer.setup(bottoms, tops)
    return layer


class TestRoofline:
    def test_compute_bound_kernel(self):
        dev = RooflineDevice("d", peak_flops=1e12, mem_bandwidth=1e11, launch_overhead_s=0)
        t = dev.kernel_time(flops=1e12, bytes_moved=1e9, compute_efficiency=1.0,
                            bandwidth_efficiency=1.0)
        assert t == pytest.approx(1.0)

    def test_bandwidth_bound_kernel(self):
        dev = RooflineDevice("d", peak_flops=1e15, mem_bandwidth=1e9, launch_overhead_s=0)
        t = dev.kernel_time(flops=1e9, bytes_moved=1e9, bandwidth_efficiency=1.0)
        assert t == pytest.approx(1.0)

    def test_launch_overhead_added(self):
        dev = RooflineDevice("d", 1e12, 1e11, launch_overhead_s=1e-5)
        assert dev.kernel_time(0, 0) == pytest.approx(1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            K40M_DEVICE.kernel_time(-1, 0)


class TestWorkload:
    def test_conv_flops(self):
        layer = setup_layer(
            ConvolutionLayer("c", 8, 3, pad=1, rng=seeded_rng(0)), (2, 4, 10, 10)
        )
        wl = layer_workload(layer, "forward")
        assert wl.flops == pytest.approx(2 * 2 * 8 * 4 * 9 * 10 * 10)
        assert wl.kind == "conv"

    def test_backward_without_propagate_is_cheaper(self):
        layer = setup_layer(
            ConvolutionLayer("c", 8, 3, pad=1, rng=seeded_rng(0)), (2, 4, 10, 10)
        )
        layer.propagate_down = True
        full = layer_workload(layer, "backward").flops
        layer.propagate_down = False
        half = layer_workload(layer, "backward").flops
        assert half == pytest.approx(full / 2)

    def test_relu_is_bandwidth_kind(self):
        layer = setup_layer(ReLULayer("r"), (4, 16))
        wl = layer_workload(layer, "forward")
        assert wl.kind == "bandwidth"
        assert wl.bytes_moved == 2 * 4 * 16 * 4

    def test_bad_direction(self):
        layer = setup_layer(ReLULayer("r"), (4, 16))
        with pytest.raises(ValueError):
            layer_workload(layer, "sideways")

    def test_sw_plan_flops_agree_with_workload(self):
        # The SW26010 plan and the device-independent workload must count
        # the same arithmetic.
        layer = setup_layer(
            ConvolutionLayer("c", 64, 3, pad=1, rng=seeded_rng(0)), (8, 64, 14, 14)
        )
        wl = layer_workload(layer, "forward")
        plan_flops = layer.sw_forward_cost().flops
        cg_share = wl.flops / 4  # plans price the per-core-group quarter
        assert plan_flops == pytest.approx(cg_share, rel=0.01)


class TestDeviceModels:
    def test_gpu_conv_efficiency_shape(self):
        assert gpu_conv_eff(512, 512) > gpu_conv_eff(64, 64)
        assert gpu_conv_eff(256, 256, k=1) < gpu_conv_eff(256, 256, k=3)
        assert gpu_conv_eff(256, 256, spatial=500) < gpu_conv_eff(256, 256, spatial=1e6)

    def test_gpu_faster_than_cpu_on_conv(self):
        layer = setup_layer(
            ConvolutionLayer("c", 64, 3, pad=1, rng=seeded_rng(0)), (8, 64, 28, 28)
        )
        assert gpu_layer_time(layer, "forward") < cpu_layer_time(layer, "forward")

    def test_device_bandwidth_ordering_for_streaming(self):
        # Fig. 8/9's observation: bandwidth-bound layers are far cheaper on
        # the GPU's 288 GB/s than on SW26010's 28 GB/s per CG.
        layer = setup_layer(ReLULayer("r"), (64, 64, 56, 56))
        gpu = gpu_layer_time(layer, "forward")
        sw = layer.sw_forward_cost().total_s
        assert gpu < sw


class TestNetTiming:
    @pytest.fixture(scope="class")
    def net(self):
        return lenet.build(batch_size=8)

    def test_timings_cover_all_layers(self, net):
        timings = net_layer_timings(net, "sw26010")
        assert len(timings) == len(net.layers)
        assert all(t.forward_s >= 0 for t in timings)

    def test_iteration_time_is_sum(self, net):
        timings = net_layer_timings(net, "k40m")
        assert net_iteration_time(net, "k40m") == pytest.approx(
            sum(t.total_s for t in timings)
        )

    def test_throughput_inverse_of_time(self, net):
        record = net_record(lenet.build, 8)
        t = net_iteration_time(net, "cpu")
        assert record.iteration_s("cpu") == t
        assert record.throughput("cpu") == 8 / t

    def test_unknown_device(self, net):
        with pytest.raises(ValueError):
            net_layer_timings(net, "tpu")
