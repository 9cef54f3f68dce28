"""Net profiling: the ``caffe time`` equivalent for the simulated SW26010.

Aggregates each layer's simulated cost breakdown (compute / DMA / RLC /
overhead) across a net, identifies the bottleneck resource per layer, and
renders a profile table — the tool you'd use to decide where the next
kernel optimization goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frame.net import Net
from repro.kernels.plan import PlanCost
from repro.metrics.roofline import classify_cost
from repro.utils.tables import Table
from repro.utils.units import format_time


@dataclass(frozen=True)
class LayerProfile:
    """One layer's simulated cost decomposition (forward + backward)."""

    name: str
    type: str
    forward: PlanCost
    backward: PlanCost

    @property
    def total_s(self) -> float:
        return self.forward.total_s + self.backward.total_s

    @property
    def bottleneck(self) -> str:
        """Which resource bounds this layer's time (the roofline rule)."""
        return classify_cost(self.forward + self.backward).bound


class NetProfiler:
    """Profiles a net's simulated per-layer costs on one core group."""

    def __init__(self, net: Net) -> None:
        self.net = net

    def profile(self) -> list[LayerProfile]:
        """Collect every layer's cost breakdown."""
        return [
            LayerProfile(layer.name, layer.type, cost.forward, cost.backward)
            for layer, cost in self.net.sw_layer_costs()
        ]

    def totals(self, profiles: list[LayerProfile] | None = None) -> dict[str, float]:
        """Whole-net resource totals in seconds."""
        profiles = profiles if profiles is not None else self.profile()
        agg = {"compute": 0.0, "dma": 0.0, "rlc": 0.0, "overhead": 0.0, "total": 0.0}
        for p in profiles:
            for cost in (p.forward, p.backward):
                agg["compute"] += cost.compute_s
                agg["dma"] += cost.dma_s
                agg["rlc"] += cost.rlc_s
                agg["overhead"] += cost.overhead_s
                agg["total"] += cost.total_s
        return agg

    def top_layers(self, n: int = 5, profiles: list[LayerProfile] | None = None) -> list[LayerProfile]:
        """The n most expensive layers."""
        profiles = profiles if profiles is not None else self.profile()
        return sorted(profiles, key=lambda p: p.total_s, reverse=True)[:n]

    def render(self, min_fraction: float = 0.005) -> str:
        """Profile table; layers under ``min_fraction`` of total are folded."""
        profiles = self.profile()
        agg = self.totals(profiles)
        total = agg["total"] or 1.0
        table = Table(
            headers=["layer", "type", "fwd", "bwd", "share", "bottleneck"],
            title=f"SW26010 profile of {self.net.name!r} (one CG per iteration)",
        )
        folded = 0.0
        for p in profiles:
            share = p.total_s / total
            if share < min_fraction:
                folded += p.total_s
                continue
            table.add_row(
                p.name, p.type,
                format_time(p.forward.total_s), format_time(p.backward.total_s),
                f"{100 * share:.1f}%", p.bottleneck,
            )
        if folded:
            table.add_row(
                f"({sum(1 for p in profiles if p.total_s / total < min_fraction)} small layers)",
                "-", "-", "-", f"{100 * folded / total:.1f}%", "-",
            )
        lines = [table.render()]
        lines.append(
            "totals: "
            + ", ".join(
                f"{k}={format_time(v)}" for k, v in agg.items() if k != "total"
            )
            + f" | iteration={format_time(agg['total'])}"
        )
        return "\n".join(lines)
