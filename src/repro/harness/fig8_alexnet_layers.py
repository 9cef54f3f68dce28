"""Fig. 8: per-layer forward/backward time of AlexNet, GPU vs SW26010."""

from __future__ import annotations

from dataclasses import dataclass

from repro.frame.model_zoo import alexnet
from repro.perf.layer_cost import LayerTiming, net_record

#: Fig. 8 uses the Table III AlexNet batch size.
BATCH = 256

#: Layer types that carry no device time and are omitted from the figure.
_SKIP_TYPES = {"Data", "Accuracy", "SoftmaxWithLoss"}


@dataclass(frozen=True)
class LayerComparison:
    """One layer's time on both devices, both directions."""

    name: str
    type: str
    gpu_forward_s: float
    gpu_backward_s: float
    sw_forward_s: float
    sw_backward_s: float


def _merge(
    gpu: tuple[LayerTiming, ...], sw: tuple[LayerTiming, ...]
) -> list[LayerComparison]:
    out = []
    for g, s in zip(gpu, sw):
        assert g.layer_name == s.layer_name
        if g.layer_type in _SKIP_TYPES:
            continue
        out.append(
            LayerComparison(
                name=g.layer_name,
                type=g.layer_type,
                gpu_forward_s=g.forward_s,
                gpu_backward_s=g.backward_s,
                sw_forward_s=s.forward_s,
                sw_backward_s=s.backward_s,
            )
        )
    return out


def generate(batch: int = BATCH, builder=alexnet.build) -> list[LayerComparison]:
    """Per-layer GPU-vs-SW comparison for one network, from its priced record."""
    timings = net_record(builder, batch).timings
    return _merge(timings["k40m"], timings["sw26010"])


def render(
    rows: list[LayerComparison] | None = None,
    title: str = "Fig. 8: AlexNet",
    batch: int = BATCH,
) -> str:
    from repro.utils.tables import Table

    rows = rows if rows is not None else generate()
    table = Table(
        headers=["layer", "type", "GPU fwd(s)", "SW fwd(s)", "GPU bwd(s)", "SW bwd(s)"],
        title=f"{title} per-layer time, GPU K40m vs SW26010 (batch={batch})",
    )
    for r in rows:
        table.add_row(
            r.name, r.type,
            f"{r.gpu_forward_s:.2e}", f"{r.sw_forward_s:.2e}",
            f"{r.gpu_backward_s:.2e}", f"{r.sw_backward_s:.2e}",
        )
    return table.render()


def main() -> None:  # pragma: no cover
    print(render())


if __name__ == "__main__":  # pragma: no cover
    main()
