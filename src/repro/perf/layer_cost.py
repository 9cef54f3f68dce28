"""Whole-net timing on every device (the engine behind Figs. 8/9 and
Table III)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.frame.layer import Layer
from repro.frame.net import Net
from repro.perf.cpu_host import cpu_layer_time
from repro.perf.gpu_k40m import gpu_layer_time


@dataclass(frozen=True)
class LayerTiming:
    """One layer's forward/backward time on one device."""

    layer_name: str
    layer_type: str
    forward_s: float
    backward_s: float

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s


def _sw_layer_time(layer: Layer, direction: str) -> float:
    cost = layer.sw_forward_cost() if direction == "forward" else layer.sw_backward_cost()
    return cost.total_s


#: Device name -> per-layer timing function.
DEVICE_TIMERS: dict[str, Callable[[Layer, str], float]] = {
    "sw26010": _sw_layer_time,
    "k40m": gpu_layer_time,
    "cpu": cpu_layer_time,
}


def net_layer_timings(net: Net, device: str) -> list[LayerTiming]:
    """Per-layer forward/backward times of a net on one device."""
    try:
        timer = DEVICE_TIMERS[device]
    except KeyError:
        raise ValueError(f"unknown device {device!r}; use {sorted(DEVICE_TIMERS)}")
    out = []
    for layer in net.layers:
        out.append(
            LayerTiming(
                layer_name=layer.name,
                layer_type=layer.type,
                forward_s=timer(layer, "forward"),
                backward_s=timer(layer, "backward"),
            )
        )
    return out


def net_iteration_time(net: Net, device: str) -> float:
    """One full training iteration (forward + backward) on a device."""
    return sum(t.total_s for t in net_layer_timings(net, device))


def net_throughput(net: Net, device: str, batch_size: int) -> float:
    """Training throughput in images/second (Table III's metric)."""
    t = net_iteration_time(net, device)
    if t <= 0:
        raise ValueError("net has no timed layers")
    return batch_size / t
