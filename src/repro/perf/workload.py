"""Layer workload extraction: FLOPs and memory traffic per direction.

Device-independent arithmetic used by the GPU/CPU roofline baselines. The
SW26010 path does *not* use these numbers directly — it prices the actual
kernel plans — but tests cross-check that plan FLOP counts agree with the
workloads here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.frame.layer import Layer
from repro.frame.layers.batch_norm import BatchNormLayer
from repro.frame.layers.concat import ConcatLayer
from repro.frame.layers.convolution import ConvolutionLayer
from repro.frame.layers.dropout import DropoutLayer
from repro.frame.layers.eltwise import EltwiseLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.lrn import LRNLayer
from repro.frame.layers.lstm import LSTMLayer
from repro.frame.layers.pooling import PoolingLayer
from repro.frame.layers.relu import ReLULayer
from repro.frame.layers.softmax import SoftmaxLayer, SoftmaxWithLossLayer


@dataclass(frozen=True)
class Workload:
    """One direction's arithmetic and traffic."""

    flops: float
    bytes_moved: float
    kind: str  # "conv", "gemm", "bandwidth"


def _conv_workload(layer: ConvolutionLayer, direction: str) -> Workload:
    b, ni, h, w = layer._bottom_shape
    k = layer.kernel_size
    groups = getattr(layer, "groups", 1)
    from repro.kernels.im2col import conv_out_dim

    ho = conv_out_dim(h, k, layer.stride, layer.pad)
    wo = conv_out_dim(w, k, layer.stride, layer.pad)
    flops = 2.0 * b * layer.num_output * (ni // groups) * k * k * ho * wo
    in_bytes = b * ni * h * w * 4.0
    out_bytes = b * layer.num_output * ho * wo * 4.0
    w_bytes = layer.num_output * (ni // groups) * k * k * 4.0
    if direction == "forward":
        return Workload(flops, in_bytes + out_bytes + w_bytes, "conv")
    if direction == "backward":
        # dW needs (x, dy); dX needs (w, dy): roughly 2x forward work when
        # input gradients are required.
        mult = 2.0 if layer.propagate_down else 1.0
        return Workload(mult * flops, mult * (in_bytes + out_bytes) + w_bytes, "conv")
    raise ValueError(f"unknown direction {direction!r}")


def _ip_workload(layer: InnerProductLayer, direction: str) -> Workload:
    b = layer._bottom_shape[0]
    d = layer._flat_dim(layer._bottom_shape)
    m = layer.num_output
    flops = 2.0 * b * d * m
    traffic = (b * d + b * m + d * m) * 4.0
    if direction == "forward":
        return Workload(flops, traffic, "gemm")
    mult = 2.0 if layer.propagate_down else 1.0
    return Workload(mult * flops, mult * traffic, "gemm")


def _lstm_workload(layer: LSTMLayer, direction: str) -> Workload:
    b, t, d = layer._shape
    h = layer.hidden
    flops = 2.0 * b * t * 4 * h * (d + h)
    traffic = (b * t * (d + h) + 4 * h * (d + h)) * 4.0
    if direction == "forward":
        return Workload(flops, traffic, "gemm")
    return Workload(2.0 * flops, 2.0 * traffic, "gemm")


def _pool_workload(layer: PoolingLayer, direction: str) -> Workload:
    plan = layer._plan
    in_b = plan.batch * plan.channels * plan.height * plan.width * 4.0
    out_b = plan.batch * plan.channels * plan.out_h * plan.out_w * 4.0
    if direction == "backward" and not layer.propagate_down:
        return Workload(0.0, 0.0, "bandwidth")
    return Workload(out_b / 4.0 * plan.k * plan.k, in_b + out_b, "bandwidth")


def _stream_workload(
    reads: float, writes: float, fpe: float, layer: Layer, direction: str
) -> Workload:
    count = getattr(layer, "_count", 0)
    if direction == "backward" and not layer.propagate_down and not layer.params:
        return Workload(0.0, 0.0, "bandwidth")
    return Workload(fpe * count, (reads + writes) * count * 4.0, "bandwidth")


def _no_workload(layer: Layer, direction: str) -> Workload:
    return Workload(0.0, 0.0, "bandwidth")


_Rule = Callable[[Layer, str], Workload]

#: (layer class, rule) in first-match order: a layer takes the rule of the
#: first class it is an instance of. Streaming layers' rules carry their
#: (reads, writes, flops/element) multipliers.
_RULES: tuple[tuple[type, _Rule], ...] = (
    (ConvolutionLayer, _conv_workload),
    (InnerProductLayer, _ip_workload),
    (LSTMLayer, _lstm_workload),
    (PoolingLayer, _pool_workload),
    (ReLULayer, partial(_stream_workload, 1.0, 1.0, 1.0)),
    (DropoutLayer, partial(_stream_workload, 1.0, 1.0, 2.0)),
    (BatchNormLayer, partial(_stream_workload, 2.0, 1.0, 5.0)),
    (LRNLayer, partial(_stream_workload, 2.0, 1.0, 10.0)),
    (SoftmaxLayer, partial(_stream_workload, 1.0, 1.0, 4.0)),
    (SoftmaxWithLossLayer, partial(_stream_workload, 1.0, 1.0, 5.0)),
    (ConcatLayer, partial(_stream_workload, 1.0, 1.0, 0.0)),
    (EltwiseLayer, partial(_stream_workload, 2.0, 1.0, 1.0)),
)

#: Layer class -> its rule, picked on the first layer of that class.
_RULE_BY_CLASS: dict[type, _Rule] = {}


def _rule_for(cls: type) -> _Rule:
    """The first rule of :data:`_RULES` whose class ``cls`` subclasses."""
    return next((rule for base, rule in _RULES if issubclass(cls, base)), _no_workload)


def layer_workload(layer: Layer, direction: str) -> Workload:
    """FLOPs and traffic of one layer in one direction.

    Layers without compute (data, accuracy) report zero workload.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward/backward, got {direction!r}")
    cls = type(layer)
    rule = _RULE_BY_CLASS.get(cls)
    if rule is None:
        rule = _RULE_BY_CLASS[cls] = _rule_for(cls)
    return rule(layer, direction)
