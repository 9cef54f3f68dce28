"""Roofline attribution: classify every priced kernel against its ceiling.

The paper's design principles are ceiling statements — 742.4 GFlops of CPE
compute per core group, 28 GB/s of measured DMA bandwidth, 2549 GB/s of
aggregate register-bus bandwidth — and a :class:`~repro.kernels.plan.PlanCost`
already carries the busy time it charged each of those resources. This module
turns that into the classification the swTVM line of work argues for: every
plan (and every layer of a net) is **compute-**, **DMA-** or **RLC-bound**,
with its arithmetic intensity and the fraction of the binding resource's
ceiling it actually achieved.

The machine-balance ridge sits at ``742.4 GFlops / 28 GB/s = 26.5`` FLOPs
per DMA byte (:attr:`~repro.hw.spec.SW26010Params.flop_per_byte`): plans
below it cannot be compute-bound no matter how well they schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.kernels.plan import PlanCost
from repro.utils.tables import Table

#: Resources a plan can be bound by. ``overhead`` means fixed costs (spawn,
#: latency) dominate every stream — the small-kernel regime of Table III.
BOUNDS = ("compute", "dma", "rlc", "overhead")


@dataclass(frozen=True)
class RooflineVerdict:
    """Classification of one priced invocation.

    Attributes
    ----------
    bound:
        The binding resource (one of :data:`BOUNDS`).
    intensity:
        Arithmetic intensity in FLOPs per DMA byte (``inf`` when the plan
        moves no DMA bytes).
    ceiling_frac:
        Achieved fraction of the binding resource's ceiling over the whole
        invocation (0 for overhead-bound plans).
    compute_frac, dma_frac, rlc_frac:
        Achieved/peak rate of each resource *while it was busy* — how well
        each stream ran, independent of whether it was the bottleneck.
    """

    bound: str
    intensity: float
    ceiling_frac: float
    compute_frac: float
    dma_frac: float
    rlc_frac: float


def classify_cost(cost: Any, params: SW26010Params | None = None) -> RooflineVerdict:
    """Classify any ``PlanCost``-shaped object against the SW26010 ceilings.

    ``cost`` needs ``compute_s`` / ``dma_s`` / ``rlc_s`` / ``overhead_s`` /
    ``total_s`` / ``flops`` / ``dma_bytes``. The binding resource is the
    slowest stream under the dual-pipeline overlap rule; when fixed
    overheads exceed every stream the plan is ``overhead``-bound.
    """
    p = params or SW_PARAMS
    streams = {"compute": cost.compute_s, "dma": cost.dma_s, "rlc": cost.rlc_s}
    bound = max(streams, key=lambda k: streams[k])
    if streams[bound] <= 0 or cost.overhead_s > streams[bound]:
        bound = "overhead"

    intensity = cost.flops / cost.dma_bytes if cost.dma_bytes > 0 else float("inf")

    # Busy-time rates: how close each stream ran to its own peak while active.
    compute_frac = (
        cost.flops / cost.compute_s / p.cg_cpe_peak_flops if cost.compute_s > 0 else 0.0
    )
    dma_frac = (
        cost.dma_bytes / cost.dma_s / p.dma_peak_bw if cost.dma_s > 0 else 0.0
    )
    # RLC traffic volume is not tracked on PlanCost; busy-fraction of the
    # invocation is the best available proxy for bus pressure.
    rlc_frac = cost.rlc_s / cost.total_s if cost.total_s > 0 else 0.0

    # Whole-invocation achieved rate vs. the binding ceiling (overheads and
    # the non-binding streams all count against it).
    total = cost.total_s
    if total <= 0 or bound == "overhead":
        ceiling_frac = 0.0
    elif bound == "compute":
        ceiling_frac = cost.flops / total / p.cg_cpe_peak_flops
    elif bound == "dma":
        ceiling_frac = cost.dma_bytes / total / p.dma_peak_bw
    else:  # rlc
        ceiling_frac = cost.rlc_s / total

    return RooflineVerdict(
        bound=bound,
        intensity=intensity,
        ceiling_frac=ceiling_frac,
        compute_frac=compute_frac,
        dma_frac=dma_frac,
        rlc_frac=rlc_frac,
    )


@dataclass(frozen=True)
class LayerRoofline:
    """One layer direction's cost plus its roofline verdict."""

    layer: str
    layer_type: str
    direction: str  # "fwd" | "bwd"
    cost: PlanCost
    verdict: RooflineVerdict

    @property
    def total_s(self) -> float:
        """Simulated seconds of this layer direction on one core group."""
        return self.cost.total_s

    @property
    def flops(self) -> float:
        """FLOPs this layer direction retires."""
        return self.cost.flops

    @property
    def dma_bytes(self) -> float:
        """Bytes this layer direction moves over DMA."""
        return self.cost.dma_bytes

    def as_dict(self) -> dict[str, Any]:
        v = self.verdict
        return {
            "layer": self.layer,
            "layer_type": self.layer_type,
            "direction": self.direction,
            "total_s": self.total_s,
            "flops": self.flops,
            "dma_bytes": self.dma_bytes,
            "bound": v.bound,
            "intensity": None if v.intensity == float("inf") else v.intensity,
            "ceiling_frac": v.ceiling_frac,
            "compute_frac": v.compute_frac,
            "dma_frac": v.dma_frac,
            "rlc_frac": v.rlc_frac,
        }


def net_roofline(net: Any, params: SW26010Params | None = None) -> list[LayerRoofline]:
    """Per-layer, per-direction roofline rows for a built net."""
    rows: list[LayerRoofline] = []
    for layer, cost in net.sw_layer_costs():
        for direction, c in (("fwd", cost.forward), ("bwd", cost.backward)):
            if c.total_s <= 0:
                continue  # data layers and other free directions
            rows.append(
                LayerRoofline(
                    layer=layer.name,
                    layer_type=layer.type,
                    direction=direction,
                    cost=c,
                    verdict=classify_cost(c, params),
                )
            )
    return rows


def bound_summary(rows: Iterable[LayerRoofline]) -> dict[str, float]:
    """Simulated seconds attributed to each binding resource."""
    out = {b: 0.0 for b in BOUNDS}
    for row in rows:
        out[row.verdict.bound] += row.total_s
    return out


def render_roofline(rows: list[LayerRoofline], title: str = "") -> str:
    """Text table of per-layer roofline classifications."""
    table = Table(
        headers=(
            "layer", "dir", "type", "time", "AI (F/B)",
            "bound", "% ceiling", "cpe%", "dma%",
        ),
        title=title or "roofline attribution (per layer, one core group)",
    )
    from repro.utils.units import format_time

    for row in rows:
        v = row.verdict
        ai = "-" if v.intensity == float("inf") else f"{v.intensity:.1f}"
        table.add_row(
            row.layer, row.direction, row.layer_type, format_time(row.total_s),
            ai, v.bound, f"{100 * v.ceiling_frac:.1f}",
            f"{100 * v.compute_frac:.0f}", f"{100 * v.dma_frac:.0f}",
        )
    summary = bound_summary(rows)
    total = sum(summary.values()) or 1.0
    footer = "  |  ".join(
        f"{b}: {100 * s / total:.0f}%" for b, s in summary.items() if s > 0
    )
    return table.render() + f"\ntime by binding resource: {footer}"
