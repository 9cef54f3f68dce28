"""Roofline attribution: classify every priced kernel against its ceiling.

:func:`net_roofline`'s rows are the one per-layer breakdown record: one
row per (layer, direction) with its :class:`~repro.kernels.plan.PlanCost`,
whose resource fields (:data:`~repro.trace.tracer.RESOURCES`) and
``overhead_s`` are the seconds the direction spent per resource class.
The ``profile`` command (:func:`render_profile`), the ``metrics`` report,
``experiment roofline`` (:func:`render_roofline`) and the harness golden's
``roofline`` section all read these rows; :func:`cost_totals` sums them.

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

from dataclasses import dataclass, fields
from typing import Any, Iterable

from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.kernels.plan import PlanCost
from repro.trace.tracer import RESOURCES
from repro.utils.tables import Table
from repro.utils.units import format_time

#: The ``PlanCost`` fields a plan's time splits into: the busy seconds of
#: each priced resource, then the fixed overhead.
_PARTS = (*(r.field for r in RESOURCES), "overhead_s")

#: What can bind a plan, one per :data:`_PARTS` field: each priced resource
#: under its label (``compute`` for ``compute_s``), then ``overhead``: fixed
#: costs (spawn, latency) dominate every stream, the small-kernel regime of
#: Table III.
BOUNDS = (*(r.label for r in RESOURCES), "overhead")

#: Every field :func:`cost_totals` sums.
_SUMMED = (*(f.name for f in fields(PlanCost)), "total_s")


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
    streams = {r.label: getattr(cost, r.field) for r in RESOURCES}
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

    def as_dict(self) -> dict[str, Any]:
        v = self.verdict
        return {
            "layer": self.layer,
            "layer_type": self.layer_type,
            "direction": self.direction,
            "total_s": self.total_s,
            "flops": self.cost.flops,
            "dma_bytes": self.cost.dma_bytes,
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


def cost_totals(rows: Iterable[LayerRoofline]) -> dict[str, float]:
    """Every ``PlanCost`` field, and ``total_s``, summed over ``rows``.

    Over a net's :func:`net_roofline` rows these are one iteration's
    seconds per resource on one core group, its FLOPs and its DMA bytes.
    """
    costs = [row.cost for row in rows]
    return {name: sum(getattr(c, name) for c in costs) for name in _SUMMED}


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


#: The cost of a direction :func:`net_roofline` skips.
_FREE = PlanCost()

#: Layers under this share of the iteration fold into one profile line.
_FOLD_BELOW = 0.005


def render_profile(net: Any, rows: list[LayerRoofline]) -> str:
    """The ``profile`` table: each layer's forward and backward time, its
    share of the iteration and the resource that binds it.

    ``rows`` are ``net``'s :func:`net_roofline` rows. They skip free
    directions, so the layer order, and the free layers, come from
    ``net.layers``. Layers under :data:`_FOLD_BELOW` of the iteration are
    folded into one line.
    """
    by_direction = {(row.layer, row.direction): row.cost for row in rows}
    totals = cost_totals(rows)
    total = totals["total_s"] or 1.0
    table = Table(
        headers=["layer", "type", "fwd", "bwd", "share", "bottleneck"],
        title=f"SW26010 profile of {net.name!r} (one CG per iteration)",
    )
    folded, n_folded = 0.0, 0
    for layer in net.layers:
        fwd = by_direction.get((layer.name, "fwd"), _FREE)
        bwd = by_direction.get((layer.name, "bwd"), _FREE)
        layer_s = fwd.total_s + bwd.total_s
        share = layer_s / total
        if share < _FOLD_BELOW:
            folded += layer_s
            n_folded += 1
            continue
        table.add_row(
            layer.name, layer.type,
            format_time(fwd.total_s), format_time(bwd.total_s),
            f"{100 * share:.1f}%", classify_cost(fwd + bwd).bound,
        )
    if folded:
        table.add_row(
            f"({n_folded} small layers)", "-", "-", "-",
            f"{100 * folded / total:.1f}%", "-",
        )
    parts = ", ".join(f"{b}={format_time(totals[p])}" for b, p in zip(BOUNDS, _PARTS))
    iteration = format_time(totals["total_s"])
    return f"{table.render()}\ntotals: {parts} | iteration={iteration}"
