"""Once-per-process pricing memos equal cold pricing.

Four memos keep a cold paper pass from repeating work, and each must be
invisible in the numbers:

* ``repro.perf.layer_cost.net_record`` keeps one priced record per
  (builder, batch). For every Table III net and device its timings and
  gradient bytes equal a fresh build's, field for field, floats exactly,
  and it keeps no built net alive.
* ``stream_cost`` keeps one cost per (elements, flops per element,
  inputs, outputs, params). It equals the streaming formula, restated
  below as the reference, on a grid and under a non-default params object.
* ``SW26010Params`` hashes its fields once per object; equality stays by
  value.
* ``layer_workload`` picks its rule once per layer class. The rule table
  matches the ``isinstance`` cascade it replaced, kept below as the
  reference, for every layer class and on every layer of the registries
  and of three model-zoo nets.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import itertools
import pkgutil
import weakref
from inspect import isabstract

import numpy as np
import pytest

from repro.frame import layers as layer_package
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
from repro.frame.model_zoo import PAPER_NETWORKS, alexnet, googlenet, resnet_small
from repro.hw import spec
from repro.hw.core_group import CoreGroup
from repro.hw.spec import SW_PARAMS
from repro.kernels import autotune, elementwise, gemm
from repro.kernels.elementwise import stream_cost
from repro.kernels.plan import PlanCost
from repro.perf import layer_cost, workload
from repro.perf.layer_cost import DEVICE_TIMERS, net_layer_timings, net_record
from repro.perf.workload import Workload, layer_workload
from repro.testing.gradcheck import LAYERS, run_layer

#: A machine with half the DMA bandwidth and a slower clock.
SLOW = dataclasses.replace(SW_PARAMS, dma_peak_bw=SW_PARAMS.dma_peak_bw / 2, clock_hz=1.0e9)


def clear_pricing_memos() -> None:
    """Empty every per-process pricing memo, so what follows prices cold."""
    layer_cost._RECORDS.clear()
    autotune._CHOICE_CACHE.clear()
    gemm._BLOCKING_CACHE.clear()
    elementwise._COST_CACHE.clear()


# --------------------------------------------------------------------------- #
# one priced record per paper net
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(PAPER_NETWORKS))
def test_record_equals_a_fresh_build(name):
    builder, batch = PAPER_NETWORKS[name]
    clear_pricing_memos()
    record = net_record(builder, batch)
    assert net_record(builder, batch) is record
    clear_pricing_memos()
    net = builder(batch_size=batch)
    assert record.batch == batch
    assert record.param_bytes == net.param_bytes()
    assert list(record.timings) == list(DEVICE_TIMERS)
    for device in DEVICE_TIMERS:
        fresh = net_layer_timings(net, device)
        # Every field of every layer, floats exactly.
        assert record.timings[device] == tuple(fresh), device
        assert record.iteration_s(device) == sum(t.total_s for t in fresh)
        assert record.throughput(device) == batch / record.iteration_s(device)


def test_record_keeps_no_net():
    built = []

    def build(batch_size):
        net = alexnet.build(batch_size=batch_size)
        built.append(weakref.ref(net))
        return net

    layer_cost._RECORDS.clear()
    net_record(build, 8)
    net_record(build, 8)
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None


def test_record_cache_is_cleared_at_its_bound(monkeypatch):
    monkeypatch.setattr(layer_cost, "_RECORDS_MAX", 2)
    layer_cost._RECORDS.clear()
    first = net_record(alexnet.build, 4)
    net_record(alexnet.build, 8)
    net_record(alexnet.build, 16)
    assert list(layer_cost._RECORDS) == [(alexnet.build, 16)]
    again = net_record(alexnet.build, 4)
    assert again is not first and again == first


def test_record_rejects_a_net_without_timed_layers():
    record = layer_cost.NetRecord(batch=8, timings={"cpu": ()}, param_bytes=0)
    with pytest.raises(ValueError, match="no timed layers"):
        record.throughput("cpu")


# --------------------------------------------------------------------------- #
# the streaming memo
# --------------------------------------------------------------------------- #
def reference_stream_cost(read_bytes, write_bytes, flops, compute_efficiency, params):
    """The streaming formula before the memo, on a fresh core group."""
    cg = CoreGroup(params=params)
    total = read_bytes + write_bytes
    dma_s = cg.dma.bulk_time(total) if total > 0 else 0.0
    compute_s = flops / (cg.peak_flops * compute_efficiency) if flops else 0.0
    return PlanCost(compute_s=compute_s, dma_s=dma_s, flops=flops, dma_bytes=total)


def reference_args(n_elements, flops_per_element, n_inputs, n_outputs):
    """The formula's arguments for a stream of float32 elements at the
    streaming efficiency."""
    nbytes = float(n_elements * 4)
    flops = float(flops_per_element * n_elements)
    return n_inputs * nbytes, n_outputs * nbytes, flops, 0.25


#: (elements, flops per element, inputs, outputs): empty, one-element,
#: LDM-sized and feature-map-sized streams, with and without math, read
#: only and written only.
GRID = list(
    itertools.product(
        (0, 1, 16384, 800000, 30000000),
        (0.0, 1.0, 5.0),
        (0, 1, 3),
        (0, 1, 2),
    )
)


@pytest.mark.parametrize("params", [SW_PARAMS, SLOW], ids=["default", "slow"])
def test_stream_memo_equals_the_formula(params):
    elementwise._COST_CACHE.clear()
    for key in GRID:
        cold = stream_cost(*key, params)
        warm = stream_cost(*key, params)
        assert warm is cold
        assert cold == reference_stream_cost(*reference_args(*key), params), key  # floats exactly
    assert len(elementwise._COST_CACHE) == len(GRID)


def test_stream_memo_keys_on_params_by_value():
    elementwise._COST_CACHE.clear()
    key = (800000, 5.0, 2, 1)
    default = stream_cost(*key, SW_PARAMS)
    assert stream_cost(*key, dataclasses.replace(SW_PARAMS)) is default
    slow = stream_cost(*key, SLOW)
    assert slow != default
    assert slow == reference_stream_cost(*reference_args(*key), SLOW)
    assert len(elementwise._COST_CACHE) == 2


def test_stream_memo_is_cleared_at_its_bound(monkeypatch):
    monkeypatch.setattr(elementwise, "_COST_CACHE_MAX", 2)
    elementwise._COST_CACHE.clear()
    first = stream_cost(1, 0.0, 1, 1, SW_PARAMS)
    stream_cost(2, 0.0, 1, 1, SW_PARAMS)
    stream_cost(4, 0.0, 1, 1, SW_PARAMS)
    assert len(elementwise._COST_CACHE) == 1
    again = stream_cost(1, 0.0, 1, 1, SW_PARAMS)
    assert again is not first and again == first


# --------------------------------------------------------------------------- #
# the params hash
# --------------------------------------------------------------------------- #
def test_params_hash_once_per_object_and_equality_by_value(monkeypatch):
    calls = []
    astuple = dataclasses.astuple
    monkeypatch.setattr(spec, "astuple", lambda p: calls.append(p) or astuple(p))
    small = dataclasses.replace(SW_PARAMS, ldm_bytes=16 * 1024)
    assert len(calls) == 1
    hashes = {hash(small) for _ in range(3)}
    assert len(calls) == 1
    assert hashes == {hash(astuple(small))}
    twin = dataclasses.replace(small)
    assert twin is not small and twin == small and hash(twin) == hash(small)
    assert small != SW_PARAMS
    assert hash(dataclasses.replace(SW_PARAMS)) == hash(SW_PARAMS)


# --------------------------------------------------------------------------- #
# one workload rule per layer class
# --------------------------------------------------------------------------- #
#: The streaming multipliers of the cascade, in its order.
REFERENCE_STREAMING = {
    ReLULayer: (1.0, 1.0, 1.0),
    DropoutLayer: (1.0, 1.0, 2.0),
    BatchNormLayer: (2.0, 1.0, 5.0),
    LRNLayer: (2.0, 1.0, 10.0),
    SoftmaxLayer: (1.0, 1.0, 4.0),
    SoftmaxWithLossLayer: (1.0, 1.0, 5.0),
    ConcatLayer: (1.0, 1.0, 0.0),
    EltwiseLayer: (2.0, 1.0, 1.0),
}


def reference_layer_workload(layer: Layer, direction: str) -> Workload:
    """``layer_workload`` before the rule table: an ``isinstance`` cascade."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward/backward, got {direction!r}")
    if isinstance(layer, ConvolutionLayer):
        return workload._conv_workload(layer, direction)
    if isinstance(layer, InnerProductLayer):
        return workload._ip_workload(layer, direction)
    if isinstance(layer, LSTMLayer):
        return workload._lstm_workload(layer, direction)
    if isinstance(layer, PoolingLayer):
        plan = layer._plan
        in_b = plan.batch * plan.channels * plan.height * plan.width * 4.0
        out_b = plan.batch * plan.channels * plan.out_h * plan.out_w * 4.0
        if direction == "backward" and not layer.propagate_down:
            return Workload(0.0, 0.0, "bandwidth")
        return Workload(out_b / 4.0 * plan.k * plan.k, in_b + out_b, "bandwidth")
    for cls, (reads, writes, fpe) in REFERENCE_STREAMING.items():
        if isinstance(layer, cls):
            count = getattr(layer, "_count", 0)
            if direction == "backward" and not layer.propagate_down and not layer.params:
                return Workload(0.0, 0.0, "bandwidth")
            return Workload(fpe * count, (reads + writes) * count * 4.0, "bandwidth")
    return Workload(0.0, 0.0, "bandwidth")


def reference_branch(layer: Layer):
    """Which branch of the cascade a layer takes."""
    for cls in (ConvolutionLayer, InnerProductLayer, LSTMLayer, PoolingLayer):
        if isinstance(layer, cls):
            return cls
    for cls, multipliers in REFERENCE_STREAMING.items():
        if isinstance(layer, cls):
            return multipliers
    return None


def layer_classes() -> list[type]:
    """Every concrete layer class defined under ``repro.frame.layers``."""
    for info in pkgutil.iter_modules(layer_package.__path__):
        importlib.import_module(f"{layer_package.__name__}.{info.name}")
    found, todo = [], [Layer]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith(layer_package.__name__) and not isabstract(sub):
                found.append(sub)
    return found


def test_rule_table_matches_the_cascade_for_every_layer_class():
    classes = layer_classes()
    assert len(classes) >= 25
    branches = {
        ConvolutionLayer: workload._conv_workload,
        InnerProductLayer: workload._ip_workload,
        LSTMLayer: workload._lstm_workload,
        PoolingLayer: workload._pool_workload,
    }
    for cls in classes:
        branch = reference_branch(cls.__new__(cls))
        rule = workload._rule_for(cls)
        if branch is None:
            assert rule is workload._no_workload, cls
        elif isinstance(branch, tuple):
            assert rule.func is workload._stream_workload and rule.args == branch, cls
        else:
            assert rule is branches[branch], cls


def registered_layers():
    """Every gradcheck-registered layer, set up on its sampled inputs."""
    for name, case in sorted(LAYERS.items()):
        layer = case.factory()
        run_layer(layer, case.make_inputs(np.random.default_rng(0)))
        yield name, layer


def zoo_layers():
    """Every layer of three set-up model-zoo nets (data, dropout, loss,
    concat and eltwise layers included)."""
    for build in (alexnet.build, googlenet.build, resnet_small.build_resnet18):
        net = build(batch_size=2)
        for layer in net.layers:
            yield f"{net.name}/{layer.name}", layer


def test_layer_workload_equals_the_cascade_on_every_layer():
    covered = set()
    for name, layer in itertools.chain(registered_layers(), zoo_layers()):
        covered.add(type(layer))
        for direction in ("forward", "backward"):
            got = layer_workload(layer, direction)
            assert got == reference_layer_workload(layer, direction), (name, direction)
    assert set(REFERENCE_STREAMING) | {ConvolutionLayer, PoolingLayer, LSTMLayer} <= covered
