"""Fig. 10: weak-scaling speedup of swCaffe to 1024 nodes.

Configurations follow the paper: AlexNet with sub-mini-batch 64/128/256 and
ResNet-50 with 32/64. Node-local compute time comes from the SW26010 layer
plans (the same engine behind Table III), the gradient payload from the
actual nets, and the allreduce from the topology-aware stepwise cost over
the calibrated collective network curve.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from repro.frame.model_zoo import alexnet, resnet
from repro.parallel.scaling import PAPER_NODE_COUNTS, ScalingPoint, ScalingStudy
from repro.parallel.ssgd import SSGDIterationModel
from repro.perf.layer_cost import net_iteration_time
from repro.utils.tables import Table

#: (label, builder, sub-mini-batch) for every curve in the figure.
CONFIGS = (
    ("AlexNet, B=64", alexnet.build, 64),
    ("AlexNet, B=128", alexnet.build, 128),
    ("AlexNet, B=256", alexnet.build, 256),
    ("ResNet50, B=32", resnet.build_resnet50, 32),
    ("ResNet50, B=64", resnet.build_resnet50, 64),
)


@lru_cache(maxsize=None)
def _iteration_model(label: str) -> SSGDIterationModel:
    for name, builder, batch in CONFIGS:
        if name == label:
            net = builder(batch_size=batch)
            return SSGDIterationModel(
                compute_s=net_iteration_time(net, "sw26010"),
                model_bytes=net.param_bytes(),
            )
    raise KeyError(label)


def build_study(
    bucket_mb: float | None = None, backward_frac: float = 2.0 / 3.0
) -> ScalingStudy:
    """The full Fig. 10/11 study object.

    ``bucket_mb`` switches every config to the overlap-aware bucketed
    allreduce model (``None`` keeps the fused path — the paper's
    numbers). The cached base models are never mutated.
    """
    study = ScalingStudy()
    for label, _, _ in CONFIGS:
        model = _iteration_model(label)
        if bucket_mb is not None:
            model = dataclasses.replace(
                model, bucket_mb=bucket_mb, backward_frac=backward_frac
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


def whatif_tracer(
    label: str, n_nodes: int, bucket_mb: float | None = None
):
    """One config's iteration as a critical-path-ready trace.

    Builds a minimal tracer straight from the analytic
    :class:`~repro.parallel.ssgd.OverlapSchedule`: one node-compute span
    over ``[0, barrier]`` plus one ``collective_service`` span per
    allreduce launch (serially chained, floored at its ``ready_s``), each
    carrying the same hidden/exposed split the trainer's nonblocking
    queue reports through ``comm.overlap_hidden_s`` /
    ``comm.overlap_exposed_s``. The critical-path walk over this trace
    therefore attributes *exactly* the schedule's exposed collective
    time. Returns ``(tracer, schedule)``.
    """
    from repro.hw.clock import SerialResource
    from repro.trace.tracer import Tracer

    model = _iteration_model(label)
    if bucket_mb is not None:
        model = dataclasses.replace(model, bucket_mb=bucket_mb)
    node = model.runner.iteration_time(model.compute_s, model.model_bytes)
    compute = node.compute_s + node.sync_s
    sched = model.overlap_schedule(n_nodes, compute)
    tracer = Tracer()
    tracer.emit(
        "forward+backward", "cpe_compute", track="node/cpe",
        start=0.0, dur=compute, args={"config": label, "nodes": n_nodes},
    )
    # The schedule already booked the windows; this resource only chains
    # their spans.
    fabric = SerialResource()
    for idx, (launch, merged) in enumerate(zip(sched.launches, sched.merged)):
        fabric.emit(
            tracer, launch, f"allreduce launch{idx}", "collective_service",
            track="comm/fabric", args={"merged": merged},
            barrier_s=sched.barrier_s,
        )
    return tracer, sched


def render_whatif(
    label: str,
    n_nodes: int,
    scales: list[str] | None = None,
    bucket_mb: float | None = None,
) -> str:
    """The ``--whatif`` summary: critical path + projections of one config."""
    from repro.trace.critpath import build_graph, critical_path, render_critpath
    from repro.trace.whatif import parse_scales, project
    from repro.utils.units import format_time

    tracer, sched = whatif_tracer(label, n_nodes, bucket_mb=bucket_mb)
    graph = build_graph(tracer)
    report = critical_path(graph)
    lines = [
        f"critical path of {label!r} at {n_nodes} nodes "
        f"({sched.n_buckets} bucket(s), {sched.n_launches} launch(es)):",
        render_critpath(report),
        f"schedule exposed collective: {format_time(sched.exposed_s)} "
        f"(hidden {format_time(sched.hidden_s)}) — the on-path attribution "
        f"above matches it by construction",
    ]
    # Launch floors are recorded release times (they do not scale), so
    # the collective class is the meaningful default knob here.
    for item in scales or ("collective=0.5", "collective=2.0"):
        factors = parse_scales([item] if isinstance(item, str) else item)
        proj = project(graph, factors)
        lines.append(
            f"what-if {item}: {format_time(proj.baseline_s)} -> "
            f"{format_time(proj.projected_s)} ({proj.speedup:.3f}x)"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """CLI entry; ``--trace FILE`` exports a per-rank timeline of one config.

    The scaling table itself is analytic; the trace drills into one
    configuration (``--config``, default "AlexNet, B=128") at a small rank
    count (``--ranks``), emitting every rank's layer/DMA/RLC spans and the
    gradient allreduce steps. ``--whatif`` prints the critical-path
    attribution of one config at ``--nodes`` nodes (built from the same
    overlap schedule that prices the figure) plus projected end-to-end
    times under ``--scale CLASS=FACTOR`` cost scalings.
    """
    import argparse

    parser = argparse.ArgumentParser(description="Fig. 10 weak-scaling study")
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write Chrome trace-event JSON of one config's iteration",
    )
    parser.add_argument(
        "--config", default="AlexNet, B=128", choices=[c[0] for c in CONFIGS],
        help="which curve to trace",
    )
    parser.add_argument("--ranks", type=int, default=8, help="ranks to trace")
    parser.add_argument(
        "--whatif", action="store_true",
        help="print the critical-path / what-if summary of --config",
    )
    parser.add_argument(
        "--nodes", type=int, default=16,
        help="node count for the --whatif critical path (default 16)",
    )
    parser.add_argument(
        "--bucket-mb", type=float, default=None, metavar="MB",
        help="overlap-aware bucketed allreduce for --whatif (default fused)",
    )
    parser.add_argument(
        "--scale", action="append", default=[], metavar="CLASS=FACTOR",
        help="what-if cost scaling (repeatable; default collective=0.5, 2.0)",
    )
    ns = parser.parse_args(argv)
    print(render())
    if ns.whatif:
        print()
        print(
            render_whatif(
                ns.config, ns.nodes,
                scales=ns.scale or None, bucket_mb=ns.bucket_mb,
            )
        )
    if ns.trace:
        from repro import trace
        from repro.trace.session import trace_training_step

        (builder, batch) = next(
            (b, n) for label, b, n in CONFIGS if label == ns.config
        )
        net = builder(batch_size=batch)
        tracer, summary = trace_training_step(net, ranks=ns.ranks)
        trace.write_chrome_json(tracer, ns.trace)
        print(
            f"traced {ns.config!r} on {summary.ranks} ranks: wrote "
            f"{len(tracer.spans)} spans to {ns.trace} (load in ui.perfetto.dev)"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
