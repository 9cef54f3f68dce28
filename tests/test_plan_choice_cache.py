"""The per-process plan-choice cache of ``select_conv_plan``.

``select_conv_plan`` prices each distinct (config, direction, params) once
per process and hands every later caller the same frozen ``PlanChoice``.
That is only sound because pricing depends on the key alone. These tests
pin it: every choice the paper nets' conv layers get from a shared, warm
cache equals a cold pricing field for field; a fault plan, what-if
scaling or tracer in force changes no choice, no priced net record and
no streaming cost; equal hardware parameters share an entry while
different ones do not; and one cold pass over the paper harnesses builds
each paper net once and runs the uncached selection once per distinct key.
Tier-1 prices LeNet, AlexNet and VGG-16 at two batch sizes;
``REPRO_HEAVY=1`` prices every model-zoo net at batch sizes 1, 16 and 128.
"""

import dataclasses
import os

import pytest

from repro.faults.injector import injecting
from repro.faults.plan import FaultPlan
from repro.frame.model_zoo import alexnet, googlenet, lenet, resnet, resnet_small, vgg
from repro.frame.net import Net
from repro.harness import (
    fig8_alexnet_layers,
    fig9_vgg_layers,
    fig10_scalability,
    fig11_comm_ratio,
    table2_vgg_conv,
    table3_throughput,
)
from repro.hw.spec import SW_PARAMS
from repro.kernels import autotune, elementwise, gemm
from repro.kernels.autotune import DIRECTIONS, ConvConfig, select_conv_plan
from repro.kernels.elementwise import stream_cost
from repro.perf import layer_cost
from repro.perf.layer_cost import net_record
from repro.trace.scaling import CostScaling, scaling
from repro.trace.tracer import tracing

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))

ZOO = {
    "lenet": lenet.build,
    "alexnet": alexnet.build,
    "vgg16": vgg.build_vgg16,
    "vgg19": vgg.build_vgg19,
    "googlenet": googlenet.build,
    "resnet18": resnet_small.build_resnet18,
    "resnet34": resnet_small.build_resnet34,
    "resnet50": resnet.build_resnet50,
}
NETS = tuple(ZOO) if HEAVY else ("lenet", "alexnet", "vgg16")
BATCHES = (1, 16, 128) if HEAVY else (16, 128)

CONFIGS = (
    ConvConfig(batch=8, ni=3, no=64, height=32, width=32, k=3, pad=1),
    ConvConfig(batch=32, ni=256, no=256, height=28, width=28, k=3, pad=1),
    ConvConfig(batch=16, ni=64, no=192, height=27, width=27, k=5, stride=2, pad=2),
)


#: (elements, flops per element, inputs, outputs) of streaming costs.
STREAMS = ((1000000, 1.0, 1, 1), (1000000, 5.0, 2, 1), (250, 0.0, 1, 0))


def cold(config, direction, params=None):
    """A freshly priced choice: the cache is emptied first."""
    autotune._CHOICE_CACHE.clear()
    return select_conv_plan(config, direction, params)


def cold_record(builder, batch):
    """A freshly built and priced net record: every pricing memo is emptied."""
    layer_cost._RECORDS.clear()
    autotune._CHOICE_CACHE.clear()
    elementwise._COST_CACHE.clear()
    return net_record(builder, batch)


def cold_streams():
    """Freshly priced streaming costs."""
    elementwise._COST_CACHE.clear()
    return [stream_cost(*stream, SW_PARAMS) for stream in STREAMS]


def test_repeated_call_returns_the_identical_choice():
    first = cold(CONFIGS[1], "forward")
    assert select_conv_plan(CONFIGS[1], "forward") is first
    assert select_conv_plan(CONFIGS[1], "backward_weight") is not first


@pytest.mark.parametrize("name", NETS)
def test_warm_choices_equal_cold_pricing(name):
    autotune._CHOICE_CACHE.clear()
    layers = []
    for batch in BATCHES:
        net = ZOO[name](batch_size=batch)
        net.sw_layer_costs()
        layers += [layer for layer in net.layers if layer.type == "Convolution"]
    got = {}
    for layer in layers:
        for (config, direction), choice in layer._autotuner._cache.items():
            key = (config, direction, SW_PARAMS)
            # Every layer meeting a key holds the process-wide entry.
            assert choice is autotune._CHOICE_CACHE[key]
            got[key] = choice
    assert got.keys() == autotune._CHOICE_CACHE.keys()
    assert {direction for _, direction, _ in got} == set(DIRECTIONS)
    for (config, direction, params), choice in got.items():
        fresh = cold(config, direction, params)
        assert fresh is not choice
        assert fresh == choice, (config, direction)  # every field, floats exactly


def test_equal_params_share_an_entry_and_other_params_do_not():
    config = CONFIGS[1]
    default = cold(config, "forward")
    assert select_conv_plan(config, "forward", SW_PARAMS) is default
    assert select_conv_plan(config, "forward", dataclasses.replace(SW_PARAMS)) is default
    assert len(autotune._CHOICE_CACHE) == 1
    small_ldm = dataclasses.replace(SW_PARAMS, ldm_bytes=16 * 1024)
    small = select_conv_plan(config, "forward", small_ldm)
    assert small is not default
    assert len(autotune._CHOICE_CACHE) == 2
    assert select_conv_plan(config, "forward", small_ldm) is small
    assert small == cold(config, "forward", small_ldm)


@pytest.mark.parametrize(
    "context",
    [
        lambda: injecting(FaultPlan.from_seed("chaos:0x5caffe:3", ranks=4, iterations=2)),
        lambda: scaling(CostScaling({"dma": 0.5, "cpe": 2.0, "rlc": 3.0, "overhead": 0.25})),
        tracing,
    ],
    ids=["faults", "scaling", "tracing"],
)
def test_pricing_reads_no_ambient_hook(context):
    plain = {(c, d): cold(c, d) for c in CONFIGS for d in DIRECTIONS}
    plain_record = cold_record(alexnet.build, 16)
    plain_streams = cold_streams()
    with context() as hook:
        hooked = {(c, d): cold(c, d) for c in CONFIGS for d in DIRECTIONS}
        hooked_record = cold_record(alexnet.build, 16)
        hooked_streams = cold_streams()
    assert hooked == plain
    assert hooked_record is not plain_record
    assert hooked_record == plain_record  # every timing, floats exactly
    assert hooked_streams == plain_streams
    if context is tracing:
        assert hook.spans == []


def test_cache_is_cleared_at_its_bound(monkeypatch):
    monkeypatch.setattr(autotune, "_CHOICE_CACHE_MAX", 2)
    first = cold(CONFIGS[0], "forward")
    select_conv_plan(CONFIGS[1], "forward")
    assert len(autotune._CHOICE_CACHE) == 2
    select_conv_plan(CONFIGS[2], "forward")
    assert list(autotune._CHOICE_CACHE) == [(CONFIGS[2], "forward", SW_PARAMS)]
    again = select_conv_plan(CONFIGS[0], "forward")
    assert again is not first and again == first


def test_cold_paper_pass_prices_each_distinct_key_once(monkeypatch):
    """One cold pass over the paper harnesses: 8 nets built, one per
    (builder, batch) pair, and 613 selections over 332 keys."""
    autotune._CHOICE_CACHE.clear()
    gemm._BLOCKING_CACHE.clear()
    layer_cost._RECORDS.clear()
    builds, selected, priced = [], [], []
    init = Net.__init__
    monkeypatch.setattr(
        Net, "__init__", lambda net, *a, **kw: builds.append(1) or init(net, *a, **kw)
    )
    select, price = autotune.select_conv_plan, autotune._price_conv_plans
    monkeypatch.setattr(
        autotune, "select_conv_plan", lambda *key: selected.append(key) or select(*key)
    )
    monkeypatch.setattr(
        autotune, "_price_conv_plans", lambda *key: priced.append(key) or price(*key)
    )
    for module in (
        table2_vgg_conv, fig8_alexnet_layers, fig9_vgg_layers,
        fig10_scalability, fig11_comm_ratio, table3_throughput,
    ):
        module.generate()
    assert len(builds) == 8
    assert len(selected) == 613
    assert len(set(selected)) == 332
    assert len(priced) == len(set(priced)) == 332
