"""Metrics sessions: per-resource utilization of a simulated training step.

The counterpart of :mod:`repro.trace.session`: instead of a span timeline,
:func:`collect_training_step` produces a :class:`MetricsReport` — per-resource
busy time and achieved-vs-peak utilization, the per-layer roofline table,
the gradient allreduce's wire traffic, and a snapshot of every counter the
instrumentation hooks fed during the run.

The step is the trace session's own: :func:`collect_training_step` runs
:func:`~repro.trace.session.trace_training_step` under a metrics registry,
so the report's wall time, its allreduce counters and the span timeline
(``python -m repro metrics --trace``) describe the one simulated step that
``python -m repro trace`` shows. The layer counters are counted from the
:func:`~repro.metrics.roofline.net_roofline` rows the report prints; the
DMA counters add the step's local reduces and SGD updates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.metrics.registry import MetricsRegistry, collecting
from repro.metrics.roofline import (
    LayerRoofline,
    bound_summary,
    net_roofline,
    render_roofline,
)
from repro.trace.session import trace_training_step
from repro.trace.tracer import Tracer
from repro.utils.tables import Table
from repro.utils.units import format_bytes, format_time

#: Version tag of the JSON document ``python -m repro metrics --json`` emits.
METRICS_SCHEMA = "repro-metrics/1"


@dataclass(frozen=True)
class ResourceUtilization:
    """One resource's totals over the session.

    ``busy_s`` is the resource's busy time within one rank's timeline;
    ``busy_frac`` divides by the session's simulated wall time;
    ``achieved`` / ``peak`` / ``ceiling_frac`` express the achieved rate
    while busy against the hardware ceiling (units depend on the resource).
    """

    name: str
    busy_s: float
    busy_frac: float
    achieved: float = 0.0
    peak: float = 0.0
    units: str = ""

    @property
    def ceiling_frac(self) -> float:
        return self.achieved / self.peak if self.peak > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "busy_s": self.busy_s,
            "busy_frac": self.busy_frac,
            "achieved": self.achieved,
            "peak": self.peak,
            "ceiling_frac": self.ceiling_frac,
            "units": self.units,
        }


@dataclass
class MetricsReport:
    """Everything one metrics session measured."""

    model: str
    ranks: int
    iterations: int
    scheme: str
    wall_s: float
    compute_s: float
    local_reduce_s: float
    allreduce_s: float
    update_s: float
    allreduce_steps: int
    payload_bytes: float
    wire_bytes_intra: float
    wire_bytes_cross: float
    resources: dict[str, ResourceUtilization] = field(default_factory=dict)
    layers: list[LayerRoofline] = field(default_factory=list)
    counters: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA,
            "model": self.model,
            "ranks": self.ranks,
            "iterations": self.iterations,
            "scheme": self.scheme,
            "wall_s": self.wall_s,
            "compute_s": self.compute_s,
            "local_reduce_s": self.local_reduce_s,
            "allreduce_s": self.allreduce_s,
            "update_s": self.update_s,
            "allreduce_steps": self.allreduce_steps,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": {
                "intra_supernode": self.wire_bytes_intra,
                "cross_supernode": self.wire_bytes_cross,
            },
            "resources": {k: v.as_dict() for k, v in self.resources.items()},
            "layers": [row.as_dict() for row in self.layers],
            "bound_summary_s": bound_summary(self.layers),
            "counters": self.counters,
        }

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    def render(self) -> str:
        """Terminal rendering: utilization table + per-layer roofline."""
        table = Table(
            headers=("resource", "busy", "busy%", "achieved", "peak", "% ceiling"),
            title=(
                f"resource utilization: {self.model!r} x{self.iterations} iter "
                f"on {self.ranks} rank(s), wall {format_time(self.wall_s)} "
                f"(compute {format_time(self.compute_s)}, "
                f"local reduce {format_time(self.local_reduce_s)}, "
                f"allreduce {format_time(self.allreduce_s)}, "
                f"update {format_time(self.update_s)})"
            ),
        )
        for name, res in self.resources.items():
            table.add_row(
                name,
                format_time(res.busy_s),
                f"{100 * res.busy_frac:.0f}",
                f"{res.achieved:.3g}" if res.achieved else "-",
                f"{res.peak:.3g}" if res.peak else "-",
                f"{100 * res.ceiling_frac:.1f}" if res.peak else "-",
            )
        wire = (
            f"allreduce wire traffic per rank: "
            f"{format_bytes(self.wire_bytes_intra)} intra-supernode, "
            f"{format_bytes(self.wire_bytes_cross)} cross-supernode "
            f"({self.allreduce_steps} steps, "
            f"{format_bytes(self.payload_bytes)} gradients, {self.scheme})"
        )
        return "\n\n".join([table.render(), wire, render_roofline(self.layers)])


def collect_training_step(
    net,
    *,
    ranks: int = 4,
    iterations: int = 1,
    scheme: str = "improved",
    nodes_per_supernode: int | None = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    params: SW26010Params | None = None,
) -> MetricsReport:
    """Measure the data-parallel training step ``trace`` simulates.

    Runs :func:`~repro.trace.session.trace_training_step` once under
    ``collecting(registry)``: its gradient allreduces feed the ``comm.*``
    counters, and its spans land on ``tracer`` (a fresh one when omitted).
    The per-rank layer counters are counted from the :func:`net_roofline`
    rows, once per rank per iteration; the local reduces and SGD updates
    add to ``dma.*`` with ``dir=model``.
    """
    p = params or SW_PARAMS
    mx = registry if registry is not None else MetricsRegistry()
    rows = net_roofline(net, p)
    with collecting(mx):
        _, step = trace_training_step(
            net,
            ranks=ranks,
            iterations=iterations,
            tracer=tracer,
            scheme=scheme,
            nodes_per_supernode=nodes_per_supernode,
        )
    # The local reduce and the update are pure DMA passes.
    node_dma_s = step.local_reduce_s + step.update_s
    for rank in range(ranks):
        with mx.labelled(rank=str(rank)):
            for _ in range(iterations):
                for row in rows:
                    c = row.cost
                    mx.count("layer.passes", 1, dir=row.direction,
                             layer_type=row.layer_type)
                    if c.compute_s > 0:
                        mx.count("cpe.busy_s", c.compute_s)
                    if c.flops > 0:
                        mx.count("cpe.flops", c.flops)
                    if c.dma_s > 0 or c.dma_bytes > 0:
                        mx.count("dma.bytes", c.dma_bytes, dir="model")
                        mx.count("dma.busy_s", c.dma_s)
                    if c.rlc_s > 0:
                        mx.count("rlc.busy_s", c.rlc_s)
            mx.count("dma.bytes", step.node_dma_bytes, dir="model")
            mx.count("dma.busy_s", node_dma_s)

    wall_s = step.total_s
    allreduce_s = step.allreduce_s
    intra, cross = step.wire_bytes_intra, step.wire_bytes_cross

    # --- per-rank resource totals (ranks are symmetric) ------------------- #
    busy = {
        "cpe": sum(r.cost.compute_s for r in rows) * iterations,
        "dma": sum(r.cost.dma_s for r in rows) * iterations + node_dma_s,
        "rlc": sum(r.cost.rlc_s for r in rows) * iterations,
    }
    flops = sum(r.flops for r in rows) * iterations
    dma_bytes = sum(r.dma_bytes for r in rows) * iterations + step.node_dma_bytes
    resources = {
        "cpe": ResourceUtilization(
            name="cpe",
            busy_s=busy["cpe"],
            busy_frac=busy["cpe"] / wall_s if wall_s else 0.0,
            achieved=flops / busy["cpe"] / 1e9 if busy["cpe"] else 0.0,
            peak=p.cg_cpe_peak_flops / 1e9,
            units="GFlop/s",
        ),
        "dma": ResourceUtilization(
            name="dma",
            busy_s=busy["dma"],
            busy_frac=busy["dma"] / wall_s if wall_s else 0.0,
            achieved=dma_bytes / busy["dma"] / 1e9 if busy["dma"] else 0.0,
            peak=p.dma_peak_bw / 1e9,
            units="GB/s",
        ),
        "rlc": ResourceUtilization(
            name="rlc",
            busy_s=busy["rlc"],
            busy_frac=busy["rlc"] / wall_s if wall_s else 0.0,
        ),
        "network": ResourceUtilization(
            name="network",
            busy_s=allreduce_s,
            busy_frac=allreduce_s / wall_s if wall_s else 0.0,
            achieved=(
                (intra + cross) / allreduce_s / 1e9 if allreduce_s else 0.0
            ),
            units="GB/s",
        ),
    }

    return MetricsReport(
        model=net.name,
        ranks=ranks,
        iterations=iterations,
        scheme=scheme,
        wall_s=wall_s,
        compute_s=step.compute_s,
        local_reduce_s=step.local_reduce_s,
        allreduce_s=allreduce_s,
        update_s=step.update_s,
        allreduce_steps=step.allreduce_steps,
        payload_bytes=step.payload_bytes,
        wire_bytes_intra=intra,
        wire_bytes_cross=cross,
        resources=resources,
        layers=rows,
        counters=mx.snapshot(),
    )
