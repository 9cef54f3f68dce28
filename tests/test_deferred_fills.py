"""Deferred weight fills are exact: owned generators only change *when*.

A net built with ``rng=None`` owns its generator, so its weight fills wait
(:mod:`repro.frame.blob`); a net built with ``rng=seeded_rng()`` draws the
same stream at once. Every test here builds both twins and requires them
to agree bit for bit: parameters, dropout masks, losses and diffs over two
forward/backward passes. Nets run at batch 1 on the smallest input their
pooling stack accepts; the weight draws are the full nets' draws except
for the first fully connected layer, whose fan-in follows the input size.
Tier-1 runs the cheaper nets; ``REPRO_HEAVY=1`` adds the rest of the zoo.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.errors import FillerError
from repro.frame.blob import Blob
from repro.frame.layers.convolution import ConvolutionLayer
from repro.frame.layers.dropout import DropoutLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.lstm import LSTMLayer
from repro.frame.model_zoo import alexnet, googlenet, lenet, resnet, resnet_small, vgg
from repro.frame.netspec import build_from_spec
from repro.io.dataset import SyntheticImageNet
from repro.perf.layer_cost import DEVICE_TIMERS, net_record
from repro.utils.rng import FillLedger, seeded_rng

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))

#: name -> (builder, smallest input side it accepts)
ZOO = {
    "lenet": (lenet.build, 28),
    "googlenet": (googlenet.build, 32),
    "resnet18": (resnet_small.build_resnet18, 32),
    "alexnet": (alexnet.build, 67),
    "resnet34": (resnet_small.build_resnet34, 32),
    "resnet50": (resnet.build_resnet50, 32),
    "vgg16": (vgg.build_vgg16, 32),
    "vgg19": (vgg.build_vgg19, 32),
}
TIER1 = ("lenet", "googlenet", "resnet18")


def build(name: str, rng):
    builder, side = ZOO[name]
    channels = 1 if name == "lenet" else 3
    source = SyntheticImageNet(
        num_classes=10, sample_shape=(channels, side, side), seed=3
    )
    return builder(batch_size=1, num_classes=10, source=source, rng=rng)


def _sha(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def weights(net) -> list:
    """The randomly filled parameter blobs (conv/fc weights, LSTM wx/wh)."""
    return [p for p in net.params if p.name.endswith(("/weight", "/wx", "/wh"))]


def param_digests(net) -> dict[str, str]:
    return {p.name: _sha(p.data) for p in net.params}


def run_digests(net, passes: int = 2) -> dict[str, str]:
    """Digests of every loss, dropout mask, parameter and diff after ``passes``."""
    out = {}
    dropouts = [layer for layer in net.layers if isinstance(layer, DropoutLayer)]
    for i in range(passes):
        for blob, value in net.forward().items():
            out[f"pass{i}/{blob}"] = repr(value)
        for layer in dropouts:
            out[f"pass{i}/{layer.name}/mask"] = _sha(layer._mask)
        net.backward()
    for p in net.params:
        out[p.name] = _sha(p.data)
        out[f"{p.name}.diff"] = _sha(p.diff)
    return out


def assert_same(got: dict[str, str], want: dict[str, str]) -> None:
    assert got.keys() == want.keys()
    differ = [k for k in want if got[k] != want[k]]
    assert not differ, f"{len(differ)} entries differ, first {differ[:3]}"


@pytest.mark.parametrize(
    "name", [n for n in ZOO if HEAVY or n in TIER1]
)
def test_zoo_twins_match_bitwise(name):
    deferred = build(name, None)
    assert weights(deferred) and not any(w.has_data() for w in weights(deferred))
    got = run_digests(deferred)
    del deferred
    eager = build(name, seeded_rng())
    assert all(w.has_data() for w in weights(eager))
    assert_same(got, run_digests(eager))


class TestLedgerOrder:
    @pytest.fixture(scope="class")
    def eager(self):
        return param_digests(build("alexnet", seeded_rng()))

    def test_touching_fc8_before_conv1_draws_in_queue_order(self, eager):
        net = build("alexnet", None)
        net.layer_by_name("fc8").weight.data  # noqa: B018  (the first touch)
        assert all(w.has_data() for w in weights(net))
        assert_same(param_digests(net), eager)

    def test_assigning_a_pending_blob_keeps_its_draw(self, eager):
        net = build("alexnet", None)
        conv2 = net.layer_by_name("conv2").weight
        zeros = np.zeros(conv2.shape, dtype=np.float32)
        conv2.data = zeros
        got = param_digests(net)
        assert got.pop(conv2.name) == _sha(zeros)
        want = dict(eager)
        want.pop(conv2.name)
        assert_same(got, want)

    def test_pricing_materialises_no_weight(self):
        built = []

        def build(batch_size):
            built.append(vgg.build_vgg16(batch_size=batch_size))
            return built[-1]

        record = net_record(build, 64)
        for device in DEVICE_TIMERS:
            assert record.throughput(device) > 0
        (net,) = built
        assert all(w._data is None for w in weights(net))
        assert len(weights(net)) == 16

    def test_caller_generator_draws_at_once(self):
        rng = seeded_rng()
        layer = InnerProductLayer("ip", 3, rng=rng)
        layer.setup([Blob("x", (2, 4))], [Blob("y")])
        assert layer.weight.has_data()
        fresh = seeded_rng()
        fresh.standard_normal(size=(3, 4), dtype=np.float32)
        assert rng.random() == fresh.random()

    def test_ledger_flushes_before_handing_out_its_generator(self):
        ledger = FillLedger()
        drawn = []
        ledger.queue(lambda rng: rng.random(2), drawn.append)
        assert ledger.deferred and not drawn
        value = ledger.generator().random()
        reference = seeded_rng()
        np.testing.assert_array_equal(drawn[0], reference.random(2))
        assert value == reference.random()


SPEC = {
    "name": "dropout_first",
    "layers": [
        {"type": "Data", "name": "data", "tops": ["data", "label"],
         "params": {"batch_size": 4}},
        {"type": "Dropout", "name": "drop0", "bottoms": ["data"], "tops": ["d0"]},
        {"type": "Convolution", "name": "conv1", "bottoms": ["d0"], "tops": ["c1"],
         "params": {"num_output": 4, "kernel_size": 3, "weight_filler": "xavier"}},
        {"type": "InnerProduct", "name": "ip1", "bottoms": ["c1"], "tops": ["ip1"],
         "params": {"num_output": 6, "weight_filler": "msra"}},
        {"type": "Dropout", "name": "drop1", "bottoms": ["ip1"], "tops": ["d1"]},
        {"type": "InnerProduct", "name": "ip2", "bottoms": ["d1"], "tops": ["logits"],
         "params": {"num_output": 5}},
        {"type": "SoftmaxWithLoss", "name": "loss", "bottoms": ["logits", "label"],
         "tops": ["loss"]},
    ],
}


def _spec_net(rng, spec=SPEC):
    source = SyntheticImageNet(num_classes=5, sample_shape=(2, 6, 6), seed=1)
    return build_from_spec(spec, source=source, rng=rng)


class TestBuildFromSpec:
    def test_dropout_before_any_weight_read_matches_eager(self):
        # drop0 draws its mask before any layer reads a weight, so the
        # ledger must draw every pending fill first.
        deferred = _spec_net(None)
        assert not any(w.has_data() for w in weights(deferred))
        assert_same(run_digests(deferred), run_digests(_spec_net(seeded_rng())))

    def test_lstm_fills_defer_and_match(self):
        spec = {
            "name": "lstm",
            "layers": [
                {"type": "Data", "name": "data", "tops": ["data", "label"],
                 "params": {"batch_size": 2}},
                {"type": "LSTM", "name": "lstm", "bottoms": ["data"], "tops": ["h"],
                 "params": {"num_output": 3}},
            ],
        }
        source = SyntheticImageNet(num_classes=2, sample_shape=(4, 5), seed=2)
        deferred = build_from_spec(spec, source=source)
        layer = deferred.layer_by_name("lstm")
        assert isinstance(layer, LSTMLayer) and not layer.wx.has_data()
        eager = build_from_spec(spec, source=source, rng=seeded_rng())
        assert_same(param_digests(deferred), param_digests(eager))


class TestUnknownFiller:
    def test_spec_filler_rejected_at_construction(self):
        layers = [dict(entry) for entry in SPEC["layers"]]
        layers[2]["params"] = dict(layers[2]["params"], weight_filler="gaussian")
        with pytest.raises(FillerError, match="conv1: unknown weight filler 'gaussian'"):
            _spec_net(None, dict(SPEC, layers=layers))

    @pytest.mark.parametrize("cls,args", [
        (ConvolutionLayer, ("conv", 4, 3)),
        (InnerProductLayer, ("ip", 4)),
    ])
    def test_layer_constructors_reject_unknown_filler(self, cls, args):
        ledger = FillLedger()
        with pytest.raises(FillerError) as info:
            cls(*args, weight_filler="gaussian", rng=ledger)
        assert isinstance(info.value, ValueError)
        assert not ledger._pending
