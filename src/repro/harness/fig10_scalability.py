"""Fig. 10: weak-scaling speedup of swCaffe to 1024 nodes.

Configurations follow the paper: AlexNet with sub-mini-batch 64/128/256 and
ResNet-50 with 32/64. Node-local compute time comes from the SW26010 layer
plans (the same engine behind Table III), the gradient payload from the
actual nets, and the allreduce from the topology-aware stepwise cost over
the calibrated collective network curve.
"""

from __future__ import annotations

from repro.frame.model_zoo import alexnet, resnet
from repro.parallel.scaling import PAPER_NODE_COUNTS, ScalingPoint, ScalingStudy
from repro.parallel.ssgd import SSGDIterationModel
from repro.perf.layer_cost import net_record
from repro.utils.tables import Table

#: (label, builder, sub-mini-batch) for every curve in the figure.
CONFIGS = (
    ("AlexNet, B=64", alexnet.build, 64),
    ("AlexNet, B=128", alexnet.build, 128),
    ("AlexNet, B=256", alexnet.build, 256),
    ("ResNet50, B=32", resnet.build_resnet50, 32),
    ("ResNet50, B=64", resnet.build_resnet50, 64),
)


def build_study(bucket_mb: float | None = None) -> ScalingStudy:
    """The full Fig. 10/11 study object.

    Each config's compute time and gradient payload come from its net's
    priced record. ``bucket_mb`` switches every config to the
    overlap-aware bucketed allreduce model (``None`` keeps the fused
    path — the paper's numbers).
    """
    study = ScalingStudy()
    for label, builder, batch in CONFIGS:
        record = net_record(builder, batch)
        model = SSGDIterationModel(
            compute_s=record.iteration_s("sw26010"),
            model_bytes=record.param_bytes,
            bucket_mb=bucket_mb,
        )
        study.add_config(label, model)
    return study


def generate(bucket_mb: float | None = None) -> list[ScalingPoint]:
    """All (config, node-count) speedup/comm-fraction samples."""
    return build_study(bucket_mb=bucket_mb).run()


def render(points: list[ScalingPoint] | None = None) -> str:
    points = points if points is not None else generate()
    labels = [c[0] for c in CONFIGS]
    table = Table(
        headers=["nodes"] + labels,
        title="Fig. 10: weak-scaling speedup vs number of nodes",
    )
    for n in PAPER_NODE_COUNTS:
        row = [n]
        for label in labels:
            (pt,) = [p for p in points if p.label == label and p.n_nodes == n]
            row.append(round(pt.speedup, 2))
        table.add_row(*row)
    from repro.utils.ascii_plot import PlotSeries, ascii_plot

    series = [
        PlotSeries(
            label=label,
            x=tuple(p.n_nodes for p in points if p.label == label),
            y=tuple(p.speedup for p in points if p.label == label),
        )
        for label in labels
    ]
    plot = ascii_plot(
        series,
        logx=True,
        logy=True,
        title="(log-log, like the paper's axes)",
        xlabel="nodes",
        ylabel="speedup",
    )
    return table.render() + "\n\n" + plot


def main() -> None:
    """CLI entry: print the scaling table and plot."""
    print(render())


if __name__ == "__main__":  # pragma: no cover
    main()
