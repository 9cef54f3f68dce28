"""Whole-net timing on every device (the engine behind Figs. 8/9 and
Table III).

:func:`net_layer_timings` prices one built net on one device.
:func:`net_record` prices a paper net once per process: the first request
for a (builder, batch) builds the net, times it on every device in
:data:`DEVICE_TIMERS`, keeps the per-layer timings and the gradient
payload in an immutable :class:`NetRecord`, and drops the net. Table III,
Figs. 8/9 and Figs. 10/11 price the same five networks, so they read one
record per pair instead of rebuilding and repricing. Pricing reads nothing
but the net (no fault plan, cost scaling or tracer), so a record equals a
fresh build's timings exactly; it holds no ``Net``, so no built net or
layer plan outlives its pricing.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

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


class NetRecord(NamedTuple):
    """One net at one batch size, priced on every device.

    Holds what the paper tables read off a built net, not the net itself.
    A named tuple, not a dataclass: it is immutable either way, and its
    class builds in a tenth of the time at import.
    """

    batch: int
    #: Device name -> per-layer timings, in net layer order (read-only: one
    #: record is shared by every caller).
    timings: Mapping[str, tuple[LayerTiming, ...]]
    #: The packed gradient payload (``Net.param_bytes()``).
    param_bytes: int

    def iteration_s(self, device: str) -> float:
        """One full training iteration (forward + backward) on a device."""
        return sum(t.total_s for t in self.timings[device])

    def throughput(self, device: str) -> float:
        """Training throughput in images/second (Table III's metric)."""
        t = self.iteration_s(device)
        if t <= 0:
            raise ValueError("net has no timed layers")
        return self.batch / t


#: Records priced in this process, one per (builder, batch). Bounded and
#: cleared like ``autotune._CHOICE_CACHE``.
_RECORDS: dict[tuple[Callable[..., Net], int], NetRecord] = {}
_RECORDS_MAX = 64


def net_record(builder: Callable[..., Net], batch: int) -> NetRecord:
    """The priced record of ``builder(batch_size=batch)``, built once.

    A repeated (builder, batch) returns the identical record without
    building the net again.
    """
    key = (builder, batch)
    record = _RECORDS.get(key)
    if record is None:
        net = builder(batch_size=batch)
        record = NetRecord(
            batch=batch,
            timings=MappingProxyType(
                {device: tuple(net_layer_timings(net, device)) for device in DEVICE_TIMERS}
            ),
            param_bytes=net.param_bytes(),
        )
        if len(_RECORDS) >= _RECORDS_MAX:
            _RECORDS.clear()
        _RECORDS[key] = record
    return record
