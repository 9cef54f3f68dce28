"""Declarative network specification (Caffe-prototxt style).

swCaffe keeps "the same interfaces as Caffe": networks are described as a
list of layer specs rather than imperative code. This module provides that
interface in Python/JSON form — a spec is a dict with a ``layers`` list,
each entry naming a registered layer ``type``, its ``params``, and its
``bottoms``/``tops`` — plus (de)serialization, so model definitions can be
checked into files.

Example::

    spec = {
        "name": "mlp",
        "layers": [
            {"type": "Data", "name": "data", "tops": ["data", "label"],
             "params": {"batch_size": 32}},
            {"type": "InnerProduct", "name": "ip1", "bottoms": ["data"],
             "tops": ["ip1"], "params": {"num_output": 64}},
            {"type": "ReLU", "name": "relu1", "bottoms": ["ip1"], "tops": ["a1"]},
            {"type": "InnerProduct", "name": "ip2", "bottoms": ["a1"],
             "tops": ["logits"], "params": {"num_output": 10}},
            {"type": "SoftmaxWithLoss", "name": "loss",
             "bottoms": ["logits", "label"], "tops": ["loss"]},
        ],
    }
    net = build_from_spec(spec, source=my_dataset)
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import ShapeError
from repro.frame.layers.accuracy import AccuracyLayer
from repro.frame.layers.batch_norm import BatchNormLayer
from repro.frame.layers.concat import ConcatLayer
from repro.frame.layers.convolution import ConvolutionLayer
from repro.frame.layers.data import DataLayer
from repro.frame.layers.dropout import DropoutLayer
from repro.frame.layers.eltwise import EltwiseLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.lrn import LRNLayer
from repro.frame.layers.lstm import LSTMLayer
from repro.frame.layers.pooling import PoolingLayer
from repro.frame.layers.relu import ReLULayer
from repro.frame.layers.softmax import SoftmaxLayer, SoftmaxWithLossLayer
from repro.frame.layers.transform import TensorTransformLayer
from repro.frame.net import Net
from repro.utils.rng import fill_ledger

#: Registered layer constructors: type name -> factory(name, params, ctx).
LAYER_REGISTRY: dict[str, Callable[..., Any]] = {}


def register_layer(type_name: str):
    """Decorator registering a spec factory for a layer type."""

    def deco(fn):
        LAYER_REGISTRY[type_name] = fn
        return fn

    return deco


@register_layer("Data")
def _data(name, params, ctx):
    source = ctx.get("source")
    if source is None:
        raise ShapeError("Data layer requires a `source=` passed to build_from_spec")
    return DataLayer(name, source, batch_size=int(params["batch_size"]))


@register_layer("Convolution")
def _conv(name, params, ctx):
    return ConvolutionLayer(
        name,
        num_output=int(params["num_output"]),
        kernel_size=int(params["kernel_size"]),
        stride=int(params.get("stride", 1)),
        pad=int(params.get("pad", 0)),
        bias=bool(params.get("bias", True)),
        groups=int(params.get("groups", 1)),
        weight_filler=params.get("weight_filler", "msra"),
        rng=ctx["rng"],
    )


@register_layer("InnerProduct")
def _ip(name, params, ctx):
    return InnerProductLayer(
        name,
        num_output=int(params["num_output"]),
        bias=bool(params.get("bias", True)),
        weight_filler=params.get("weight_filler", "xavier"),
        rng=ctx["rng"],
    )


@register_layer("ReLU")
def _relu(name, params, ctx):
    return ReLULayer(name, negative_slope=float(params.get("negative_slope", 0.0)))


@register_layer("Pooling")
def _pool(name, params, ctx):
    return PoolingLayer(
        name,
        kernel_size=int(params.get("kernel_size", 2)),
        stride=params.get("stride"),
        pad=int(params.get("pad", 0)),
        mode=params.get("mode", "max"),
        global_pooling=bool(params.get("global_pooling", False)),
    )


@register_layer("BatchNorm")
def _bn(name, params, ctx):
    return BatchNormLayer(
        name, eps=float(params.get("eps", 1e-5)),
        momentum=float(params.get("momentum", 0.9)),
    )


@register_layer("LRN")
def _lrn(name, params, ctx):
    return LRNLayer(
        name,
        local_size=int(params.get("local_size", 5)),
        alpha=float(params.get("alpha", 1e-4)),
        beta=float(params.get("beta", 0.75)),
        k=float(params.get("k", 1.0)),
    )


@register_layer("Dropout")
def _dropout(name, params, ctx):
    return DropoutLayer(name, ratio=float(params.get("ratio", 0.5)), rng=ctx["rng"])


@register_layer("Softmax")
def _softmax(name, params, ctx):
    return SoftmaxLayer(name)


@register_layer("SoftmaxWithLoss")
def _softmax_loss(name, params, ctx):
    return SoftmaxWithLossLayer(name)


@register_layer("Accuracy")
def _accuracy(name, params, ctx):
    return AccuracyLayer(name, top_k=int(params.get("top_k", 1)))


@register_layer("Concat")
def _concat(name, params, ctx):
    return ConcatLayer(name, axis=int(params.get("axis", 1)))


@register_layer("Eltwise")
def _eltwise(name, params, ctx):
    return EltwiseLayer(
        name, operation=params.get("operation", "sum"), coeffs=params.get("coeffs")
    )


@register_layer("TensorTransform")
def _transform(name, params, ctx):
    return TensorTransformLayer(name, to_implicit=bool(params.get("to_implicit", True)))


@register_layer("LSTM")
def _lstm(name, params, ctx):
    return LSTMLayer(name, num_output=int(params["num_output"]), rng=ctx["rng"])


@register_layer("Sigmoid")
def _sigmoid(name, params, ctx):
    from repro.frame.layers.activations import SigmoidLayer

    return SigmoidLayer(name)


@register_layer("TanH")
def _tanh(name, params, ctx):
    from repro.frame.layers.activations import TanHLayer

    return TanHLayer(name)


@register_layer("ELU")
def _elu(name, params, ctx):
    from repro.frame.layers.activations import ELULayer

    return ELULayer(name, alpha=float(params.get("alpha", 1.0)))


@register_layer("Power")
def _power(name, params, ctx):
    from repro.frame.layers.activations import PowerLayer

    return PowerLayer(
        name,
        power=float(params.get("power", 1.0)),
        scale=float(params.get("scale", 1.0)),
        shift=float(params.get("shift", 0.0)),
    )


@register_layer("Scale")
def _scale(name, params, ctx):
    from repro.frame.layers.scale import ScaleLayer

    return ScaleLayer(name, bias=bool(params.get("bias", True)))


@register_layer("Flatten")
def _flatten(name, params, ctx):
    from repro.frame.layers.reshape_ops import FlattenLayer

    return FlattenLayer(name)


@register_layer("Reshape")
def _reshape(name, params, ctx):
    from repro.frame.layers.reshape_ops import ReshapeLayer

    return ReshapeLayer(name, shape=tuple(params["shape"]))


@register_layer("Split")
def _split(name, params, ctx):
    from repro.frame.layers.reshape_ops import SplitLayer

    return SplitLayer(name, n_tops=int(params.get("n_tops", 2)))


@register_layer("Slice")
def _slice(name, params, ctx):
    from repro.frame.layers.reshape_ops import SliceLayer

    return SliceLayer(
        name,
        slice_points=list(params["slice_points"]),
        axis=int(params.get("axis", 1)),
    )


@register_layer("EuclideanLoss")
def _euclidean(name, params, ctx):
    from repro.frame.layers.euclidean_loss import EuclideanLossLayer

    return EuclideanLossLayer(name)


def build_from_spec(
    spec: dict[str, Any],
    source=None,
    rng: np.random.Generator | None = None,
) -> Net:
    """Instantiate a :class:`Net` from a declarative spec.

    Parameters
    ----------
    spec:
        ``{"name": ..., "layers": [{"type", "name", "bottoms", "tops",
        "params"}, ...]}`` in topological order.
    source:
        Batch source for Data layers.
    rng:
        Weight-init generator. ``None`` uses a private generator on the
        package seed, whose weight fills wait until first needed.
    """
    if "layers" not in spec or not isinstance(spec["layers"], list):
        raise ShapeError("spec must contain a 'layers' list")
    ctx = {"source": source, "rng": fill_ledger(rng)}
    net = Net(spec.get("name", "net"))
    for entry in spec["layers"]:
        type_name = entry.get("type")
        if type_name not in LAYER_REGISTRY:
            raise ShapeError(
                f"unknown layer type {type_name!r}; registered: "
                f"{sorted(LAYER_REGISTRY)}"
            )
        name = entry.get("name")
        if not name:
            raise ShapeError(f"layer entry of type {type_name!r} has no name")
        layer = LAYER_REGISTRY[type_name](name, entry.get("params", {}), ctx)
        if "loss_weight" in entry:
            layer.loss_weight = float(entry["loss_weight"])
        net.add(layer, bottoms=list(entry.get("bottoms", [])), tops=list(entry.get("tops", [name])))
    return net
