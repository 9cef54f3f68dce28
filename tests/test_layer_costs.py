"""Golden of every streaming layer's simulated cost, bit for bit.

``tests/golden/layer_costs.json`` holds every :class:`PlanCost` field, as
``float.hex``, of ``sw_forward_cost()`` and ``sw_backward_cost()`` with
``propagate_down`` True and False. It covers each layer that prices a
bandwidth-bound stream: ReLU, Sigmoid, TanH, ELU, Power, BatchNorm, LRN,
Scale, Concat, Eltwise with 2 and 3 bottoms, Flatten, Reshape, Split,
Slice and Dropout on image shapes, and Softmax, SoftmaxWithLoss and
EuclideanLoss on matrix shapes. Each shape list starts with a single
element, and every case runs under ``SW_PARAMS`` and under a copy with
half its DMA bandwidth.

Regenerate with ``PYTHONPATH=src python -m tests.test_layer_costs``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.frame.blob import Blob
from repro.frame.layers.activations import ELULayer, PowerLayer, SigmoidLayer, TanHLayer
from repro.frame.layers.batch_norm import BatchNormLayer
from repro.frame.layers.concat import ConcatLayer
from repro.frame.layers.dropout import DropoutLayer
from repro.frame.layers.eltwise import EltwiseLayer
from repro.frame.layers.euclidean_loss import EuclideanLossLayer
from repro.frame.layers.lrn import LRNLayer
from repro.frame.layers.relu import ReLULayer
from repro.frame.layers.reshape_ops import FlattenLayer, ReshapeLayer, SliceLayer, SplitLayer
from repro.frame.layers.scale import ScaleLayer
from repro.frame.layers.softmax import SoftmaxLayer, SoftmaxWithLossLayer
from repro.hw.spec import SW_PARAMS
from repro.kernels.plan import PlanCost

GOLDEN = pathlib.Path(__file__).parent / "golden" / "layer_costs.json"

PARAMS = {
    "sw": SW_PARAMS,
    "half_dma": dataclasses.replace(SW_PARAMS, dma_peak_bw=SW_PARAMS.dma_peak_bw / 2),
}

#: (B, C, H, W): one element, a count no core-group split divides, an
#: AlexNet-sized and a ResNet-sized feature map.
IMAGES = ((1, 1, 1, 1), (2, 3, 5, 7), (8, 96, 27, 27), (32, 256, 56, 56))
#: (B, C): one element, a small and an ImageNet-sized classifier output.
MATRICES = ((1, 1), (3, 10), (64, 1000))

#: name -> (layer built from params and the first bottom's shape, the
#: bottom shapes built from that shape), over :data:`IMAGES`.
IMAGE_LAYERS = {
    "ReLU": (lambda p, s: ReLULayer("l", params=p), lambda s: [s]),
    "Sigmoid": (lambda p, s: SigmoidLayer("l", params=p), lambda s: [s]),
    "TanH": (lambda p, s: TanHLayer("l", params=p), lambda s: [s]),
    "ELU": (lambda p, s: ELULayer("l", params=p), lambda s: [s]),
    "Power": (lambda p, s: PowerLayer("l", power=2.0, params=p), lambda s: [s]),
    "BatchNorm": (lambda p, s: BatchNormLayer("l", params=p), lambda s: [s]),
    "LRN": (lambda p, s: LRNLayer("l", params=p), lambda s: [s]),
    "Scale": (lambda p, s: ScaleLayer("l", params=p), lambda s: [s]),
    "Concat": (
        lambda p, s: ConcatLayer("l", params=p),
        lambda s: [s, (s[0], 2 * s[1], *s[2:])],
    ),
    "Eltwise2": (lambda p, s: EltwiseLayer("l", params=p), lambda s: [s, s]),
    "Eltwise3": (lambda p, s: EltwiseLayer("l", params=p), lambda s: [s, s, s]),
    "Flatten": (lambda p, s: FlattenLayer("l", params=p), lambda s: [s]),
    "Reshape": (lambda p, s: ReshapeLayer("l", (s[0], -1), params=p), lambda s: [s]),
    "Split": (lambda p, s: SplitLayer("l", n_tops=3, params=p), lambda s: [s]),
    "Slice": (
        lambda p, s: SliceLayer("l", [s[1] // 2] if s[1] > 1 else [], params=p),
        lambda s: [s],
    ),
    "Dropout": (lambda p, s: DropoutLayer("l", params=p), lambda s: [s]),
}

#: The same, over :data:`MATRICES`.
MATRIX_LAYERS = {
    "Softmax": (lambda p, s: SoftmaxLayer("l", params=p), lambda s: [s]),
    "SoftmaxWithLoss": (
        lambda p, s: SoftmaxWithLossLayer("l", params=p),
        lambda s: [s, s[:1]],
    ),
    "EuclideanLoss": (lambda p, s: EuclideanLossLayer("l", params=p), lambda s: [s, s]),
}


def _hex(cost: PlanCost) -> dict[str, str]:
    return {f.name: float.hex(getattr(cost, f.name)) for f in dataclasses.fields(cost)}


def _costs(layer, shapes) -> dict[str, dict[str, str]]:
    """Both directions' costs of ``layer`` set up on ``shapes``, with and
    without bottom gradients."""
    bottom = [Blob(f"b{i}", shape) for i, shape in enumerate(shapes)]
    top = [Blob(f"t{i}") for i in range(getattr(layer, "n_tops", 1))]
    layer.setup(bottom, top)
    out = {}
    for propagate in (True, False):
        layer.propagate_down = propagate
        suffix = "" if propagate else "_no_propagate"
        out[f"forward{suffix}"] = _hex(layer.sw_forward_cost())
        out[f"backward{suffix}"] = _hex(layer.sw_backward_cost())
    return out


def layer_costs() -> str:
    """Every case's costs as one JSON document."""
    doc = {}
    for layers, shapes in ((IMAGE_LAYERS, IMAGES), (MATRIX_LAYERS, MATRICES)):
        for name, (build, bottoms) in layers.items():
            for shape in shapes:
                for label, params in PARAMS.items():
                    case = f"{name}/{'x'.join(map(str, shape))}/{label}"
                    doc[case] = _costs(build(params, shape), bottoms(shape))
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_layer_costs_match_golden():
    assert GOLDEN.is_file(), (
        f"golden file missing: {GOLDEN}; regenerate with "
        "`python -m tests.test_layer_costs`"
    )
    assert layer_costs() == GOLDEN.read_text()


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.write_text(layer_costs())
    print(f"wrote {GOLDEN}")
