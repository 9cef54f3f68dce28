"""Tests for framework extensions: netspec, snapshots, solver family,
grouped convolution, and the extra Caffe layers."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layers import (
    ConvolutionLayer,
    DataLayer,
    ELULayer,
    FlattenLayer,
    InnerProductLayer,
    PowerLayer,
    ReLULayer,
    ReshapeLayer,
    ScaleLayer,
    SigmoidLayer,
    SliceLayer,
    SoftmaxWithLossLayer,
    SplitLayer,
    TanHLayer,
)
from repro.frame.net import Net
from repro.frame.netspec import build_from_spec, load_spec, save_spec
from repro.frame.snapshot import load_solver, load_weights, save_solver, save_weights
from repro.frame.solver import SGDSolver
from repro.frame.solvers_ext import (
    AdaGradSolver,
    AdamSolver,
    LARSSolver,
    NesterovSolver,
    RMSPropSolver,
)
from repro.io.dataset import SyntheticImageNet
from repro.utils.rng import seeded_rng

from repro.testing.gradcheck import check_input_gradients, check_param_gradients, run_layer

RNG = np.random.default_rng(77)

MLP_SPEC = {
    "name": "mlp",
    "layers": [
        {"type": "Data", "name": "data", "tops": ["data", "label"],
         "params": {"batch_size": 8}},
        {"type": "InnerProduct", "name": "ip1", "bottoms": ["data"],
         "tops": ["ip1"], "params": {"num_output": 16}},
        {"type": "ReLU", "name": "relu1", "bottoms": ["ip1"], "tops": ["a1"]},
        {"type": "InnerProduct", "name": "ip2", "bottoms": ["a1"],
         "tops": ["logits"], "params": {"num_output": 4}},
        {"type": "SoftmaxWithLoss", "name": "loss",
         "bottoms": ["logits", "label"], "tops": ["loss"]},
    ],
}


def mlp_source():
    return SyntheticImageNet(num_classes=4, sample_shape=(10,), noise=0.2, seed=9)


class TestNetSpec:
    def test_builds_and_trains(self):
        net = build_from_spec(MLP_SPEC, source=mlp_source(), rng=seeded_rng(1))
        solver = SGDSolver(net, base_lr=0.05)
        stats = solver.step(10)
        assert stats.losses[-1] < stats.losses[0]

    def test_spec_round_trip_json(self, tmp_path):
        path = str(tmp_path / "mlp.json")
        save_spec(MLP_SPEC, path)
        spec2 = load_spec(path)
        assert spec2 == MLP_SPEC
        net = build_from_spec(spec2, source=mlp_source())
        assert len(net.layers) == 5

    def test_unknown_type_rejected(self):
        spec = {"layers": [{"type": "Quantum", "name": "q"}]}
        with pytest.raises(ShapeError):
            build_from_spec(spec)

    def test_missing_name_rejected(self):
        spec = {"layers": [{"type": "ReLU"}]}
        with pytest.raises(ShapeError):
            build_from_spec(spec)

    def test_data_layer_needs_source(self):
        with pytest.raises(ShapeError):
            build_from_spec(MLP_SPEC, source=None)

    def test_spec_equivalent_to_imperative(self):
        """A spec-built net and a hand-built net with the same seeds must be
        numerically identical."""
        net_a = build_from_spec(MLP_SPEC, source=mlp_source(), rng=seeded_rng(5))
        net_b = Net("mlp")
        rng = seeded_rng(5)
        net_b.add(DataLayer("data", mlp_source(), 8), [], ["data", "label"])
        net_b.add(InnerProductLayer("ip1", 16, rng=rng), ["data"], ["ip1"])
        net_b.add(ReLULayer("relu1"), ["ip1"], ["a1"])
        net_b.add(InnerProductLayer("ip2", 4, rng=rng), ["a1"], ["logits"])
        net_b.add(SoftmaxWithLossLayer("loss"), ["logits", "label"], ["loss"])
        la = net_a.forward()["loss"]
        lb = net_b.forward()["loss"]
        assert la == pytest.approx(lb, rel=1e-6)


class TestSnapshot:
    def make_net(self):
        return build_from_spec(MLP_SPEC, source=mlp_source(), rng=seeded_rng(2))

    def test_weights_round_trip(self, tmp_path):
        net = self.make_net()
        SGDSolver(net, base_lr=0.05).step(3)
        path = str(tmp_path / "w.npz")
        save_weights(net, path)
        fresh = self.make_net()
        before = fresh.forward()["loss"]
        loaded = load_weights(fresh, path)
        assert len(loaded) == len(fresh.params)
        for a, b in zip(net.params, fresh.params):
            np.testing.assert_array_equal(a.data, b.data)
        after = fresh.forward()["loss"]
        assert after != before

    def test_shape_mismatch_rejected(self, tmp_path):
        net = self.make_net()
        path = str(tmp_path / "w.npz")
        save_weights(net, path)
        other_spec = dict(MLP_SPEC)
        other_spec["layers"] = [dict(l) for l in MLP_SPEC["layers"]]
        other_spec["layers"][1] = dict(other_spec["layers"][1], params={"num_output": 17})
        other = build_from_spec(other_spec, source=mlp_source())
        with pytest.raises(ShapeError):
            load_weights(other, path)

    def test_solver_state_round_trip(self, tmp_path):
        net = self.make_net()
        solver = SGDSolver(net, base_lr=0.05, momentum=0.9)
        solver.step(4)
        path = str(tmp_path / "solver.npz")
        save_solver(solver, path)

        resumed_net = self.make_net()
        resumed = SGDSolver(resumed_net, base_lr=0.05, momentum=0.9)
        load_solver(resumed, path)
        assert resumed.iter == 4
        # The snapshot restores weights and solver state, not the data
        # stream; advance the fresh source by the consumed batches so both
        # runs see identical data from here on.
        for _ in range(4):
            resumed_net.layer_by_name("data").source.next_batch(8)
        # Continuing from the snapshot must equal continuing the original.
        a = solver.step(3).losses
        b = resumed.step(3).losses
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_non_solver_file_rejected(self, tmp_path):
        net = self.make_net()
        path = str(tmp_path / "w.npz")
        save_weights(net, path)
        with pytest.raises(ShapeError):
            load_solver(SGDSolver(net), path)

    def test_compressed_snapshots_still_load(self, tmp_path):
        import zipfile

        net = self.make_net()
        solver = SGDSolver(net, base_lr=0.05, momentum=0.9)
        solver.step(2)
        path = str(tmp_path / "solver.npz")
        save_solver(solver, path)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        # A file written compressed, as snapshots once were, loads the same.
        with np.load(path) as data:
            stored = {k: data[k] for k in data.files}
        old = str(tmp_path / "old.npz")
        np.savez_compressed(old, **stored)
        resumed = SGDSolver(self.make_net(), base_lr=0.05, momentum=0.9)
        load_solver(resumed, old)
        assert resumed.iter == 2
        for a, b in zip(net.params, resumed.net.params):
            assert a.data.tobytes() == b.data.tobytes()
            assert (solver._velocity[id(a)].tobytes()
                    == resumed._velocity[id(b)].tobytes())
        weights = str(tmp_path / "w_old.npz")
        np.savez_compressed(weights, **{p.name: p.data for p in net.params})
        fresh = self.make_net()
        assert load_weights(fresh, weights) == [p.name for p in fresh.params]
        for a, b in zip(net.params, fresh.params):
            assert a.data.tobytes() == b.data.tobytes()


class TestSolverFamily:
    def run_solver(self, cls, **kwargs):
        net = build_from_spec(MLP_SPEC, source=mlp_source(), rng=seeded_rng(3))
        solver = cls(net, **kwargs)
        stats = solver.step(25)
        return stats

    def test_nesterov_learns(self):
        stats = self.run_solver(NesterovSolver, base_lr=0.02, momentum=0.9)
        assert stats.losses[-1] < 0.7 * stats.losses[0]

    def test_adagrad_learns(self):
        stats = self.run_solver(AdaGradSolver, base_lr=0.05)
        assert stats.losses[-1] < 0.7 * stats.losses[0]

    def test_rmsprop_learns(self):
        stats = self.run_solver(RMSPropSolver, base_lr=0.005)
        assert stats.losses[-1] < 0.7 * stats.losses[0]

    def test_adam_learns(self):
        stats = self.run_solver(AdamSolver, base_lr=0.01)
        assert stats.losses[-1] < 0.7 * stats.losses[0]

    def test_lars_learns(self):
        stats = self.run_solver(
            LARSSolver, base_lr=1.0, momentum=0.9, weight_decay=1e-4, trust=0.01
        )
        assert stats.losses[-1] < 0.7 * stats.losses[0]

    def test_lars_local_rate_scales_with_norms(self):
        net = build_from_spec(MLP_SPEC, source=mlp_source(), rng=seeded_rng(4))
        solver = LARSSolver(net, base_lr=1.0, trust=0.01, weight_decay=1e-4)
        net.forward()
        net.backward()
        p = net.params[0]
        rate = solver.local_rate(p)
        w = float(np.linalg.norm(p.data))
        g = float(np.linalg.norm(p.diff))
        assert rate == pytest.approx(0.01 * w / (g + 1e-4 * w), rel=1e-6)

    def test_adagrad_rejects_momentum(self):
        net = build_from_spec(MLP_SPEC, source=mlp_source())
        with pytest.raises(ValueError):
            AdaGradSolver(net, momentum=0.5)

    def test_rmsprop_decay_validated(self):
        net = build_from_spec(MLP_SPEC, source=mlp_source())
        with pytest.raises(ValueError):
            RMSPropSolver(net, decay=1.5)

    def test_lars_trust_validated(self):
        net = build_from_spec(MLP_SPEC, source=mlp_source())
        with pytest.raises(ValueError):
            LARSSolver(net, trust=0.0)


class TestGroupedConvolution:
    def test_grouped_equals_blockdiag_ungrouped(self):
        """groups=2 must equal an ungrouped conv whose weight is block
        diagonal in the channel dimension."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 6, 6))
        grouped = ConvolutionLayer("g", 6, 3, pad=1, groups=2, rng=seeded_rng(9))
        blobs = run_layer(grouped, [x])
        y_grouped = blobs[1].data

        full = ConvolutionLayer("f", 6, 3, pad=1, rng=seeded_rng(10))
        blobs_f = run_layer(full, [x])
        w_blockdiag = np.zeros((6, 4, 3, 3), dtype=np.float32)
        w_blockdiag[:3, :2] = grouped.weight.data[:3]
        w_blockdiag[3:, 2:] = grouped.weight.data[3:]
        full.weight.data = w_blockdiag
        full.bias.data = grouped.bias.data
        full.forward(blobs_f[:1], [blobs_f[1]])
        np.testing.assert_allclose(blobs_f[1].data, y_grouped, rtol=1e-5)

    def test_grouped_gradients(self):
        x = RNG.normal(size=(2, 4, 5, 5))
        factory = lambda: ConvolutionLayer("g", 4, 3, pad=1, groups=2, rng=seeded_rng(8))
        check_input_gradients(factory, [x])
        check_param_gradients(factory, [x], param_index=0)

    def test_indivisible_channels_rejected(self):
        layer = ConvolutionLayer("g", 4, 3, groups=2, rng=seeded_rng(0))
        with pytest.raises(ShapeError):
            run_layer(layer, [RNG.normal(size=(1, 3, 5, 5))])
        with pytest.raises(ShapeError):
            ConvolutionLayer("g", 5, 3, groups=2)

    def test_grouped_cost_cheaper_than_full(self):
        xs = (8, 96, 27, 27)
        g2 = ConvolutionLayer("g", 256, 5, pad=2, groups=2, rng=seeded_rng(1))
        g1 = ConvolutionLayer("f", 256, 5, pad=2, rng=seeded_rng(1))
        for layer in (g2, g1):
            run_layer(layer, [RNG.normal(size=xs)])
        # Half the MACs -> cheaper simulated forward.
        assert g2.sw_forward_cost().flops < g1.sw_forward_cost().flops

    def test_lrn_alexnet_variant_uses_groups(self):
        from repro.frame.model_zoo import alexnet

        net = alexnet.build(batch_size=1, variant="lrn")
        conv2 = net.layer_by_name("conv2")
        assert conv2.groups == 2
        assert conv2.weight.shape == (256, 48, 5, 5)


class TestExtraLayers:
    def test_sigmoid_forward_and_gradient(self):
        x = RNG.normal(size=(3, 7))
        layer = SigmoidLayer("s")
        blobs = run_layer(layer, [x])
        np.testing.assert_allclose(blobs[1].data, 1 / (1 + np.exp(-x)), rtol=1e-10)
        check_input_gradients(lambda: SigmoidLayer("s"), [x])

    def test_tanh_gradient(self):
        check_input_gradients(lambda: TanHLayer("t"), [RNG.normal(size=(3, 5))])

    def test_elu_forward_and_gradient(self):
        x = RNG.normal(size=(4, 4))
        x[np.abs(x) < 0.05] = 0.5
        layer = ELULayer("e", alpha=0.7)
        blobs = run_layer(layer, [x])
        expected = np.where(x > 0, x, 0.7 * (np.exp(x) - 1))
        np.testing.assert_allclose(blobs[1].data, expected, rtol=1e-8)
        check_input_gradients(lambda: ELULayer("e", alpha=0.7), [x])

    def test_power_layer(self):
        x = np.abs(RNG.normal(size=(3, 3))) + 0.5
        layer = PowerLayer("p", power=2.0, scale=3.0, shift=1.0)
        blobs = run_layer(layer, [x])
        np.testing.assert_allclose(blobs[1].data, (3 * x + 1) ** 2, rtol=1e-10)
        check_input_gradients(
            lambda: PowerLayer("p", power=2.0, scale=3.0, shift=1.0), [x]
        )

    def test_scale_layer_gradients(self):
        x = RNG.normal(size=(4, 3, 2, 2))
        check_input_gradients(lambda: ScaleLayer("sc"), [x])
        check_param_gradients(lambda: ScaleLayer("sc"), [x], param_index=0)
        check_param_gradients(lambda: ScaleLayer("sc"), [x], param_index=1)

    def test_flatten(self):
        layer = FlattenLayer("fl")
        blobs = run_layer(layer, [RNG.normal(size=(2, 3, 4, 5))])
        assert blobs[1].shape == (2, 60)
        check_input_gradients(lambda: FlattenLayer("fl"), [RNG.normal(size=(2, 3, 4))])

    def test_reshape_with_wildcard(self):
        layer = ReshapeLayer("rs", (2, -1, 5))
        blobs = run_layer(layer, [RNG.normal(size=(2, 4, 5))])
        assert blobs[1].shape == (2, 4, 5)
        layer2 = ReshapeLayer("rs2", (4, 10))
        blobs = run_layer(layer2, [RNG.normal(size=(2, 4, 5))])
        assert blobs[1].shape == (4, 10)

    def test_reshape_validation(self):
        with pytest.raises(ShapeError):
            ReshapeLayer("r", (-1, -1))
        with pytest.raises(ShapeError):
            run_layer(ReshapeLayer("r", (7, -1)), [RNG.normal(size=(2, 5))])

    def test_split_fanout_and_gradient_sum(self):
        layer = SplitLayer("sp", n_tops=3)
        layer.n_tops = 3
        x = RNG.normal(size=(2, 4))
        b = Blob("b", x.shape, dtype=np.float64)
        b.data = x
        tops = [Blob(f"t{i}", dtype=np.float64) for i in range(3)]
        layer.setup([b], tops)
        layer.forward([b], tops)
        for t in tops:
            np.testing.assert_array_equal(t.data, x)
        for i, t in enumerate(tops):
            t.diff = np.full(x.shape, float(i + 1))
        layer.backward(tops, [b])
        np.testing.assert_allclose(b.diff, np.full(x.shape, 6.0))

    def test_slice_is_concat_inverse(self):
        x = RNG.normal(size=(2, 7, 3))
        layer = SliceLayer("sl", slice_points=[2, 5])
        b = Blob("b", x.shape, dtype=np.float64)
        b.data = x
        tops = [Blob(f"t{i}", dtype=np.float64) for i in range(3)]
        layer.setup([b], tops)
        layer.forward([b], tops)
        assert tops[0].shape == (2, 2, 3)
        assert tops[1].shape == (2, 3, 3)
        assert tops[2].shape == (2, 2, 3)
        np.testing.assert_array_equal(
            np.concatenate([t.data for t in tops], axis=1), x
        )
        for t in tops:
            t.diff = np.ones(t.shape)
        layer.backward(tops, [b])
        np.testing.assert_allclose(b.diff, np.ones(x.shape))

    def test_euclidean_loss_value_and_gradient(self):
        from repro.frame.layers import EuclideanLossLayer

        pred = RNG.normal(size=(4, 6))
        target = RNG.normal(size=(4, 6))
        layer = EuclideanLossLayer("l2")
        blobs = run_layer(layer, [pred, target])
        expected = 0.5 * np.sum((pred - target) ** 2) / 4
        assert blobs[2].data[0] == pytest.approx(expected, rel=1e-5)
        blobs[2].diff = np.ones(1)
        layer.backward([blobs[2]], blobs[:2])
        np.testing.assert_allclose(blobs[0].diff, (pred - target) / 4, rtol=1e-6)

    def test_euclidean_loss_shape_mismatch(self):
        from repro.frame.layers import EuclideanLossLayer

        with pytest.raises(ShapeError):
            run_layer(EuclideanLossLayer("l2"), [np.zeros((2, 3)), np.zeros((2, 4))])

    def test_slice_validation(self):
        with pytest.raises(ShapeError):
            SliceLayer("sl", slice_points=[5, 2])
        layer = SliceLayer("sl", slice_points=[9])
        b = Blob("b", (2, 7))
        with pytest.raises(ShapeError):
            layer.check_bottom([b])
