"""Command-line interface: ``python -m repro <command>``.

The command set lives in :data:`REGISTRY` — one :class:`Command` per
subcommand, each carrying its own usage/description lines — and the help
text is *generated* from it, so ``python -m repro --help`` can never drift
from the commands that actually dispatch (pinned by
``tests/test_cli_and_multiloss.py``).

Commands
--------
report
    Regenerate every paper table/figure (about a second; builds the model zoo).
experiment NAME
    Run one harness by name (``table2``, ``fig10``, ``serving``, ...).
profile NET [BATCH]
    Print the simulated SW26010 profile of a model-zoo network.
trace NET [options]
    Trace a simulated data-parallel training step; export Chrome
    trace-event JSON for ui.perfetto.dev (see docs/observability.md).
whatif NET [options]
    Critical-path what-if projection: scale any resource class or layer
    cost and project the new end-to-end time from the dependency graph;
    ``--validate`` re-runs the simulator under the same scaling and
    checks projection == simulation (see docs/observability.md).
metrics NET [options]
    Measure the same step: per-resource utilization counters and the
    per-layer roofline classification (text, ``--json``, or a Perfetto
    trace with counter tracks via ``--trace``).
chaos NET [options]
    Train data-parallel under a seeded fault plan (DMA/RLC/link faults,
    stragglers, rank crashes) with elastic recovery, then verify the
    final weights bit-for-bit against a fault-free reference run
    (see docs/robustness.md).
serve NET [options]
    Replay a seeded request-arrival stream through the batched-inference
    engine: dynamic batching, per-request latency percentiles, SLO
    attainment, and a Perfetto-loadable serving trace
    (see docs/serving.md).
pipeline NET [options]
    Partition a net into balanced pipeline stages, walk a microbatch
    schedule (GPipe fill-drain or 1F1B), and compare the priced
    iteration against data-parallel SGD at the same node count; the
    node count, stages x replicas, must be a power of two
    (see docs/parallelism.md).
train [ITERS]
    Run the LeNet quickstart training loop.
list
    Show available experiments and networks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

#: Experiment name -> harness module path.
EXPERIMENTS = {
    "table1": "repro.harness.table1_specs",
    "fig2": "repro.harness.fig2_dma",
    "fig6": "repro.harness.fig6_network",
    "fig7": "repro.harness.fig7_allreduce",
    "table2": "repro.harness.table2_vgg_conv",
    "fig8": "repro.harness.fig8_alexnet_layers",
    "fig9": "repro.harness.fig9_vgg_layers",
    "table3": "repro.harness.table3_throughput",
    "fig10": "repro.harness.fig10_scalability",
    "fig11": "repro.harness.fig11_comm_ratio",
    "ablations": "repro.harness.ablations",
    "naive-port": "repro.harness.naive_port",
    "inference": "repro.harness.inference_throughput",
    "memory": "repro.harness.memory_budget",
    "straggler": "repro.harness.straggler_study",
    "allreduce-sweep": "repro.harness.allreduce_sweep",
    "roofline": "repro.harness.roofline_report",
    "serving": "repro.harness.serving_latency",
    "pipeline": "repro.harness.pipeline_compare",
}

#: Network name -> (builder path, default batch).
NETWORKS = {
    "lenet": ("repro.frame.model_zoo.lenet", "build", 16),
    "alexnet": ("repro.frame.model_zoo.alexnet", "build", 256),
    "vgg16": ("repro.frame.model_zoo.vgg", "build_vgg16", 64),
    "vgg19": ("repro.frame.model_zoo.vgg", "build_vgg19", 64),
    "resnet18": ("repro.frame.model_zoo.resnet_small", "build_resnet18", 32),
    "resnet34": ("repro.frame.model_zoo.resnet_small", "build_resnet34", 32),
    "resnet50": ("repro.frame.model_zoo.resnet", "build_resnet50", 32),
    "googlenet": ("repro.frame.model_zoo.googlenet", "build", 128),
}


def _load_builder(net: str):
    """Resolve a network name to its model-zoo build function."""
    import importlib

    mod_path, fn_name, default_batch = NETWORKS[net]
    return getattr(importlib.import_module(mod_path), fn_name), default_batch


def _fail(what: str, got: str, known: dict) -> int:
    """Exit-2 path for an unknown command/experiment/network name."""
    print(
        f"error: unknown {what} {got!r} (choose from: {', '.join(sorted(known))})",
        file=sys.stderr,
    )
    print("run `python -m repro --help` for usage", file=sys.stderr)
    return 2


class _BadArgument(Exception):
    """A parsed argument outside its valid range: :func:`main` prints one
    ``error:`` line and exits 2."""


def _require_positive(**flags: int | None) -> None:
    """Reject the first ``--flag`` set below 1 (``None`` means unset)."""
    for flag, value in flags.items():
        if value is not None and value < 1:
            raise _BadArgument(
                f"--{flag.replace('_', '-')} must be >= 1, got {value}"
            )


def _no_more(args: list[str], n: int) -> None:
    """Reject anything past a hand-parsed command's ``n`` arguments."""
    if len(args) > n:
        raise _BadArgument(f"unexpected argument {args[n]!r}")


def _step_parser(command: str, description: str):
    """Argument parser for a command that simulates the training step.

    ``trace``, ``whatif`` and ``metrics`` all run
    :func:`repro.trace.session.trace_training_step`; they share its net,
    rank, iteration, batch, placement-scheme and supernode arguments.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}", description=description
    )
    parser.add_argument("net", choices=sorted(NETWORKS), help="model-zoo network")
    parser.add_argument("--ranks", type=int, default=4, help="simulated nodes (default 4)")
    parser.add_argument("--iters", type=int, default=1, help="iterations to simulate")
    parser.add_argument("--batch", type=int, default=None, help="mini-batch size")
    parser.add_argument(
        "--scheme", choices=("improved", "original"), default="improved",
        help="allreduce rank placement (round-robin vs block)",
    )
    parser.add_argument(
        "--supernode", type=int, default=None,
        help="nodes per supernode (default: ranks/2 when even)",
    )
    return parser


def _step_session(ns):
    """Check the shared step arguments, build the parsed net, and return
    it with the four step-session arguments."""
    _require_positive(
        ranks=ns.ranks, iters=ns.iters, batch=ns.batch, supernode=ns.supernode
    )
    if ns.supernode is not None and ns.ranks % ns.supernode:
        raise _BadArgument(
            f"--ranks {ns.ranks} must be a multiple of --supernode {ns.supernode}"
        )
    builder, default_batch = _load_builder(ns.net)
    net = builder(batch_size=ns.batch if ns.batch is not None else default_batch)
    return net, {
        "ranks": ns.ranks,
        "iterations": ns.iters,
        "scheme": ns.scheme,
        "nodes_per_supernode": ns.supernode,
    }


def cmd_report(args: list[str]) -> int:
    """``report``: regenerate every paper table and figure."""
    _no_more(args, 0)
    from repro.harness import report

    report.run()
    return 0


def cmd_experiment(args: list[str]) -> int:
    """``experiment NAME``: run one paper harness and print its output."""
    _no_more(args, 1)
    if not args:
        print("error: experiment needs a name", file=sys.stderr)
        print(f"known experiments: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    if args[0] not in EXPERIMENTS:
        return _fail("experiment", args[0], EXPERIMENTS)
    import importlib

    module = importlib.import_module(EXPERIMENTS[args[0]])
    print(module.render())
    return 0


def cmd_profile(args: list[str]) -> int:
    """``profile NET [BATCH]``: per-layer simulated profile of one net."""
    _no_more(args, 2)
    if not args:
        print("error: profile needs a network name", file=sys.stderr)
        print(f"known networks: {', '.join(sorted(NETWORKS))}", file=sys.stderr)
        return 2
    if args[0] not in NETWORKS:
        return _fail("network", args[0], NETWORKS)
    from repro.metrics.roofline import net_roofline, render_profile

    builder, default_batch = _load_builder(args[0])
    try:
        batch = int(args[1]) if len(args) > 1 else default_batch
    except ValueError:
        raise _BadArgument(f"batch must be an integer, got {args[1]!r}") from None
    if batch < 1:
        raise _BadArgument(f"batch must be >= 1, got {batch}")
    net = builder(batch_size=batch)
    print(render_profile(net, net_roofline(net)))
    return 0


def cmd_trace(args: list[str]) -> int:
    """``trace NET``: trace one simulated training step to Perfetto JSON."""
    parser = _step_parser(
        "trace", "Trace one simulated data-parallel training step."
    )
    parser.add_argument("--out", default="trace.json", help="Chrome trace-event output path")
    parser.add_argument("--timeline", action="store_true", help="print the text timeline")
    ns = parser.parse_args(args)

    from repro.trace.attribution import render_attribution
    from repro.trace.timeline import render_timeline
    from repro.trace.export import write_chrome_json
    from repro.trace.critpath import (
        build_graph,
        critical_path,
        path_spans,
        render_critpath,
    )
    from repro.trace.session import trace_training_step
    from repro.utils.units import format_bytes, format_time

    net, session = _step_session(ns)
    tracer, summary = trace_training_step(net, **session)
    write_chrome_json(tracer, ns.out)
    print(
        f"traced {summary.iterations} iteration(s) of {summary.model!r} on "
        f"{summary.ranks} rank(s) in {format_time(summary.total_s)}: compute "
        f"{format_time(summary.compute_s)}, local reduce "
        f"{format_time(summary.local_reduce_s)}, allreduce "
        f"{format_time(summary.allreduce_s)} ({summary.allreduce_steps} steps, "
        f"{format_bytes(summary.payload_bytes)} gradients, {summary.scheme}), "
        f"update {format_time(summary.update_s)}"
    )
    print(f"wrote {len(tracer.spans)} spans to {ns.out} (load in ui.perfetto.dev)")
    print()
    print(render_attribution(tracer))
    print()
    graph = build_graph(tracer)
    print(render_critpath(critical_path(graph)))
    if ns.timeline:
        print()
        print(render_timeline(tracer, highlight=path_spans(graph)))
    return 0


def cmd_whatif(args: list[str]) -> int:
    """``whatif NET``: project the traced step under scaled costs."""
    import json

    parser = _step_parser(
        "whatif",
        "Project the effect of scaling a resource class or layer cost "
        "by re-walking the critical-path graph of one traced training "
        "step; --validate re-runs the simulator under the same scaling "
        "and checks projection == simulation.",
    )
    parser.add_argument(
        "--scale", action="append", default=[], metavar="CLASS=FACTOR",
        help="cost scaling, e.g. dma=0.5, rlc=2.0, layer:conv1=0.25 "
             "(repeatable)",
    )
    parser.add_argument("--validate", action="store_true",
                        help="re-run the simulator under the scaling and "
                             "check the projection against it")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the machine-readable report")
    ns = parser.parse_args(args)

    from repro.trace.whatif import (
        check_layers,
        parse_scales,
        render_whatif,
        whatif_training,
    )

    net, session = _step_session(ns)
    try:
        factors = parse_scales(ns.scale)
        check_layers(net, factors)
    except ValueError as exc:
        raise _BadArgument(exc) from None
    result = whatif_training(net, factors, validate=ns.validate, **session)
    if ns.json:
        print(json.dumps(result.to_json(), indent=1, sort_keys=True))
    else:
        print(render_whatif(result))
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        if not ns.json:
            print(f"\nwrote what-if report to {ns.out}")
    if ns.validate and result.validation is not None and not result.validation.ok:
        print(
            f"error: projection {result.validation.projected_s!r} != "
            f"simulation {result.validation.simulated_s!r} "
            f"(rel err {result.validation.rel_error:.3e})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_metrics(args: list[str]) -> int:
    """``metrics NET``: per-resource utilization and per-layer roofline."""
    parser = _step_parser(
        "metrics",
        "Measure one simulated data-parallel training step: per-resource "
        "utilization counters and per-layer roofline classification.",
    )
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the machine-readable report")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="also write Chrome trace-event JSON with counter tracks")
    ns = parser.parse_args(args)

    from repro.metrics.export import write_chrome_json_with_metrics
    from repro.metrics.session import collect_training_step
    from repro.trace.tracer import Tracer

    net, session = _step_session(ns)
    tracer = Tracer() if ns.trace else None
    report = collect_training_step(net, tracer=tracer, **session)
    print(report.render())
    if ns.json:
        report.write_json(ns.json)
        print(f"\nwrote metrics report to {ns.json}")
    if ns.trace:
        write_chrome_json_with_metrics(tracer, ns.trace)
        print(f"wrote {len(tracer.spans)} spans + counter tracks to {ns.trace}")
    return 0


def cmd_chaos(args: list[str]) -> int:
    """``chaos NET``: fault-injected training, checked against a fault-free run."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Train data-parallel under a seeded fault plan with elastic "
            "recovery; verify final weights against a fault-free reference."
        ),
    )
    parser.add_argument("net", choices=sorted(NETWORKS), help="model-zoo network")
    parser.add_argument("--ranks", type=int, default=4, help="simulated nodes (default 4)")
    parser.add_argument("--iters", type=int, default=8, help="training iterations")
    parser.add_argument("--batch", type=int, default=None, help="mini-batch size")
    parser.add_argument(
        "--faults", default="chaos:0x5caffe:0", metavar="SEED",
        help="fault seed string '<profile>:<hex>:<index>' "
             "(profiles: transient, degrade, crash, chaos)",
    )
    parser.add_argument(
        "--algorithm", choices=("rhd", "ring", "topo-aware"), default="rhd",
        help="allreduce algorithm; it also picks the rank placement, block "
             "for rhd and ring, round-robin across supernodes for "
             "topo-aware (default rhd)",
    )
    parser.add_argument(
        "--supernode", type=int, default=4, help="nodes per supernode (default 4)"
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=2, help="snapshot cadence (iterations)"
    )
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="also export Chrome trace-event JSON with fault spans")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the fault-free reference run")
    ns = parser.parse_args(args)

    from repro.faults.plan import parse_seed_string
    from repro.faults.session import run_chaos
    from repro.trace.export import write_chrome_json
    from repro.trace.tracer import Tracer

    _require_positive(
        ranks=ns.ranks, iters=ns.iters, batch=ns.batch, supernode=ns.supernode,
        snapshot_every=ns.snapshot_every,
    )
    try:
        parse_seed_string(ns.faults)
    except ValueError as exc:
        raise _BadArgument(exc) from None
    builder, default_batch = _load_builder(ns.net)
    batch = ns.batch if ns.batch is not None else default_batch

    def net_factory(rank: int):
        return builder(batch_size=batch)

    tracer = Tracer() if ns.trace else None
    report = run_chaos(
        net_factory,
        ranks=ns.ranks,
        iterations=ns.iters,
        seed=ns.faults,
        algorithm=ns.algorithm,
        nodes_per_supernode=ns.supernode,
        snapshot_every=ns.snapshot_every,
        tracer=tracer,
        verify=not ns.no_verify,
    )
    print(report.render())
    if ns.trace:
        write_chrome_json(tracer, ns.trace)
        print(f"wrote {len(tracer.spans)} spans to {ns.trace} (load in ui.perfetto.dev)")
    return 0 if report.weights_match in (True, None) else 1


def cmd_serve(args: list[str]) -> int:
    """``serve NET``: replay an arrival stream through the serving engine."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Replay a seeded request-arrival stream through the batched-"
            "inference engine on the simulated clock: dynamic batching, "
            "per-request latency percentiles, SLO attainment."
        ),
    )
    parser.add_argument("net", choices=sorted(NETWORKS), help="model-zoo network")
    parser.add_argument(
        "--arrivals", default="poisson:0xc0ffee:0", metavar="SEED",
        help="arrival seed string '<profile>:<hex>:<index>' "
             "(profiles: poisson, bursty, steady; default poisson:0xc0ffee:0)",
    )
    parser.add_argument("--requests", type=int, default=200,
                        help="requests to replay (default 200)")
    parser.add_argument("--rate", type=float, default=None, metavar="RPS",
                        help="offered load in requests/s (default: 60%% of "
                             "batched capacity)")
    parser.add_argument("--slo-ms", type=float, default=50.0,
                        help="latency SLO in milliseconds (default 50)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="dynamic batching: max batch size (default 8)")
    parser.add_argument("--max-wait-ms", type=float, default=10.0,
                        help="dynamic batching: max queue wait before a "
                             "partial batch dispatches (default 10)")
    parser.add_argument("--queue-bound", type=int, default=64,
                        help="admission queue depth before shedding (default 64)")
    parser.add_argument("--faults", default=None, metavar="SEED",
                        help="also run under a fault seed (docs/robustness.md)")
    parser.add_argument("--trace", default="serve-trace.json", metavar="FILE",
                        help="Chrome trace-event output path (default "
                             "serve-trace.json)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip trace collection and export")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the machine-readable report")
    parser.add_argument("--timeline", action="store_true",
                        help="print the text timeline of the serving trace")
    parser.add_argument("--explain-plans", action="store_true",
                        help="show per-conv-layer plan choice vs batch size")
    ns = parser.parse_args(args)

    from repro.serve.costmodel import NetForwardCostModel
    from repro.serve.arrivals import PROFILES, parse_seed_string
    from repro.serve.engine import ServeConfig
    from repro.serve.session import run_serving
    from repro.trace.timeline import render_timeline
    from repro.trace.export import write_chrome_json
    from repro.trace.tracer import Tracer

    _require_positive(requests=ns.requests)
    if ns.rate is not None and not ns.rate > 0:
        raise _BadArgument(f"--rate must be > 0, got {ns.rate}")
    try:
        profile, _, _ = parse_seed_string(ns.arrivals)
        if profile not in PROFILES:
            raise ValueError(
                f"unknown arrival profile {profile!r} (choose from {PROFILES})"
            )
        if ns.faults is not None:
            from repro.faults.plan import parse_seed_string as parse_fault_seed

            parse_fault_seed(ns.faults)
        config = ServeConfig(
            max_batch=ns.max_batch,
            max_wait_s=ns.max_wait_ms / 1e3,
            queue_bound=ns.queue_bound,
            slo_s=ns.slo_ms / 1e3,
        )
    except ValueError as exc:
        raise _BadArgument(exc) from None

    builder, _ = _load_builder(ns.net)
    tracer = None if ns.no_trace else Tracer()
    report = run_serving(
        builder,
        arrivals_seed=ns.arrivals,
        n_requests=ns.requests,
        rate_rps=ns.rate,
        config=config,
        fault_seed=ns.faults,
        model=ns.net,
        tracer=tracer,
    )
    print(report.render())
    if ns.json:
        report.write_json(ns.json)
        print(f"\nwrote serving report to {ns.json}")
    if tracer is not None:
        write_chrome_json(tracer, ns.trace)
        print(f"wrote {len(tracer.spans)} spans to {ns.trace} (load in ui.perfetto.dev)")
        if ns.timeline:
            print()
            print(render_timeline(tracer))
    if ns.explain_plans:
        cost_model = NetForwardCostModel(builder, name=ns.net)
        batches = tuple(sorted({1, 4, ns.max_batch}))
        print()
        print(f"forward plan choice vs batch size ({ns.net}):")
        print(f"  {'batch':>5}  {'layer':<12} {'plan':<22} {'forward_s':>10}")
        for row in cost_model.plan_table(batches):
            print(
                f"  {row['batch']:>5}  {row['layer']:<12} "
                f"{row['plan']:<22} {row['forward_s']:>10.6f}"
            )
    return 0


def cmd_pipeline(args: list[str]) -> int:
    """``pipeline NET``: stage plan, microbatch schedule and DP comparison."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro pipeline",
        description=(
            "Partition a net into balanced pipeline stages, walk a "
            "microbatch schedule, and compare the priced iteration "
            "against data-parallel SGD at the same node count. The "
            "allreduces are recursive halving/doubling, so stages x "
            "replicas must be a power of two."
        ),
    )
    parser.add_argument("net", choices=sorted(NETWORKS), help="model-zoo network")
    parser.add_argument("--stages", type=int, default=4, help="pipeline stages S")
    parser.add_argument(
        "--microbatches", type=int, default=8, help="microbatches per iteration M"
    )
    parser.add_argument(
        "--replicas", type=int, default=1,
        help="data-parallel replicas per stage (hybrid mode when > 1)",
    )
    parser.add_argument(
        "--schedule", choices=("1f1b", "fill_drain"), default="1f1b",
        help="microbatch schedule",
    )
    parser.add_argument(
        "--method", choices=("dp", "greedy"), default="dp",
        help="stage partitioner",
    )
    parser.add_argument("--batch", type=int, default=None, help="sub-mini-batch size")
    parser.add_argument(
        "--bucket-mb", type=float, default=32.0,
        help="hybrid per-stage-group allreduce bucket bound (MB)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="export the walked schedule as Chrome trace-event JSON",
    )
    ns = parser.parse_args(args)
    _require_positive(
        stages=ns.stages, microbatches=ns.microbatches, replicas=ns.replicas,
        batch=ns.batch,
    )
    if not ns.bucket_mb > 0:
        raise _BadArgument(f"--bucket-mb must be > 0, got {ns.bucket_mb}")

    from repro.parallel.ssgd import SSGDIterationModel
    from repro.perf.layer_cost import net_iteration_time
    from repro.pipeline.model import PipelineIterationModel
    from repro.pipeline.partition import plan_stages
    from repro.utils.units import format_bytes, format_time

    builder, default_batch = _load_builder(ns.net)
    net = builder(batch_size=ns.batch if ns.batch is not None else default_batch)
    if ns.stages > len(net.layers):
        raise _BadArgument(
            f"--stages {ns.stages} exceeds {ns.net}'s {len(net.layers)} layers"
        )
    # S x R is a power of two only when S and R both are: one check covers
    # the DP reference's allreduce over S x R nodes and the hybrid groups'.
    n_nodes = ns.stages * ns.replicas
    if n_nodes & (n_nodes - 1):
        raise _BadArgument(
            f"--stages x --replicas must be a power of two, got "
            f"{ns.stages} x {ns.replicas} = {n_nodes}"
        )
    plan = plan_stages(net, ns.stages, method=ns.method)
    model = PipelineIterationModel(
        plan,
        n_microbatches=ns.microbatches,
        schedule=ns.schedule,
        replicas=ns.replicas,
        bucket_mb=ns.bucket_mb,
    )
    bd = model.breakdown()
    n = model.n_nodes
    print(
        f"{ns.net}: {ns.stages} stage(s) x {ns.replicas} replica(s) = "
        f"{n} node(s), {ns.microbatches} microbatch(es), {ns.schedule} "
        f"({ns.method} partition)"
    )
    print(f"  stage imbalance {100 * plan.stage_imbalance:.1f}% (max/mean - 1)")
    for s in range(plan.n_stages):
        layers = ", ".join(
            net.layers[i].name for i in plan.layer_range(s)
        )
        print(
            f"  stage {s}: {format_time(plan.stage_cost_s[s])} "
            f"[{layers}]"
        )
    for i, (blobs, nbytes) in enumerate(zip(plan.cut_blobs, plan.cut_bytes)):
        print(
            f"  cut {i}->{i + 1}: {format_bytes(nbytes)} "
            f"({', '.join(blobs)})"
        )
    print(
        f"  pipeline {format_time(bd.pipeline_s)} "
        f"(bubble {100 * bd.bubble_frac:.1f}%), allreduce exposed "
        f"{format_time(bd.allreduce_s)} / hidden "
        f"{format_time(bd.allreduce_hidden_s)}, update "
        f"{format_time(bd.update_s)}"
    )
    print(
        f"  iteration {format_time(bd.total_s)}, exposed comm "
        f"{100 * bd.comm_fraction:.1f}%"
    )
    dp = SSGDIterationModel(
        compute_s=net_iteration_time(net, "sw26010"),
        model_bytes=net.param_bytes(),
        bucket_mb=ns.bucket_mb,
    )
    dp_bd = dp.breakdown(n)
    print(
        f"  DP reference at {n} node(s): {format_time(dp_bd.total_s)}, "
        f"exposed comm {100 * dp_bd.comm_fraction:.1f}%"
    )
    if ns.trace:
        from repro.pipeline.schedule import emit_pipeline_trace
        from repro.trace.export import write_chrome_json
        from repro.trace.tracer import Tracer

        tracer = Tracer()
        emit_pipeline_trace(tracer, model.timeline())
        write_chrome_json(tracer, ns.trace)
        print(
            f"wrote {len(tracer.spans)} spans to {ns.trace} "
            "(load in ui.perfetto.dev)"
        )
    return 0


def cmd_train(args: list[str]) -> int:
    """``train [ITERS]``: the quickstart LeNet training loop."""
    from repro.frame.model_zoo import lenet
    from repro.frame.solver import SGDSolver
    from repro.utils.units import format_time

    _no_more(args, 1)
    try:
        iters = int(args[0]) if args else 50
    except ValueError:
        raise _BadArgument(f"ITERS must be an integer, got {args[0]!r}") from None
    if iters < 1:
        raise _BadArgument(f"ITERS must be >= 1, got {iters}")
    net = lenet.build(batch_size=16)
    solver = SGDSolver(net, base_lr=0.005, momentum=0.9)
    stats = solver.step(iters)
    print(
        f"trained LeNet for {iters} iterations: loss "
        f"{stats.losses[0]:.3f} -> {stats.losses[-1]:.3f} "
        f"(simulated SW26010 time {format_time(stats.simulated_time_s)})"
    )
    return 0


def cmd_list(args: list[str]) -> int:
    """``list``: print the runnable experiments and networks."""
    _no_more(args, 0)
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("networks:", ", ".join(sorted(NETWORKS)))
    return 0


@dataclass(frozen=True)
class Command:
    """One CLI subcommand: dispatch target plus its own help lines.

    ``usage`` is the invocation synopsis — the first element starts with the
    command name; extra elements render as 8-space continuation lines.
    ``help`` lines render in the 24-column description field. The generated
    help can therefore never list a command that does not dispatch, nor
    dispatch a command the help omits.
    """

    name: str
    handler: Callable[[list[str]], int]
    usage: tuple[str, ...]
    help: tuple[str, ...]


#: The single source of truth for the command set. ``--help`` output and
#: dispatch both derive from it (pinned by the help == registry test).
REGISTRY: dict[str, Command] = {
    cmd.name: cmd
    for cmd in (
        Command(
            "report", cmd_report,
            ("report",),
            ("regenerate every paper table/figure",),
        ),
        Command(
            "experiment", cmd_experiment,
            ("experiment NAME",),
            (f"one of: {', '.join(sorted(EXPERIMENTS))}",),
        ),
        Command(
            "profile", cmd_profile,
            ("profile NET [BATCH]",),
            (f"one of: {', '.join(sorted(NETWORKS))}",),
        ),
        Command(
            "trace", cmd_trace,
            (
                "trace NET [--ranks N] [--iters K] [--batch B] [--out FILE]",
                "[--scheme improved|original] [--timeline]",
            ),
            (
                "trace one simulated training step and",
                "export Perfetto-loadable JSON",
            ),
        ),
        Command(
            "whatif", cmd_whatif,
            (
                "whatif NET [--ranks N] [--iters K] [--batch B]",
                "[--scale CLASS=FACTOR ...] [--scheme improved|original]",
                "[--validate] [--json] [--out FILE]",
            ),
            (
                "critical-path what-if: project end-to-end",
                "time under scaled resource/layer costs;",
                "--validate pins projection == simulation",
            ),
        ),
        Command(
            "metrics", cmd_metrics,
            (
                "metrics NET [--ranks N] [--iters K] [--batch B] [--json FILE]",
                "[--trace FILE] [--scheme improved|original] [--supernode Q]",
            ),
            (
                "per-resource utilization + per-layer",
                "roofline of the same simulated step",
            ),
        ),
        Command(
            "chaos", cmd_chaos,
            (
                "chaos NET [--ranks N] [--iters K] [--batch B] [--faults SEED]",
                "[--algorithm rhd|ring|topo-aware] [--supernode Q]",
                "[--snapshot-every K] [--trace FILE] [--no-verify]",
            ),
            (
                "fault-injected training with elastic",
                "recovery, verified against a fault-free",
                "reference (docs/robustness.md)",
            ),
        ),
        Command(
            "serve", cmd_serve,
            (
                "serve NET [--arrivals SEED] [--requests N] [--rate RPS]",
                "[--slo-ms MS] [--max-batch B] [--max-wait-ms MS]",
                "[--queue-bound N] [--faults SEED] [--trace FILE]",
                "[--json FILE] [--timeline] [--explain-plans]",
            ),
            (
                "replay a seeded arrival stream through",
                "the batched-inference engine: latency",
                "percentiles, SLO attainment, Perfetto",
                "trace (docs/serving.md)",
            ),
        ),
        Command(
            "pipeline", cmd_pipeline,
            (
                "pipeline NET [--stages S] [--microbatches M] [--replicas R]",
                "[--schedule 1f1b|fill_drain] [--method dp|greedy]",
                "[--batch B] [--bucket-mb MB] [--trace FILE]",
            ),
            (
                "partition into balanced stages, walk a",
                "microbatch schedule, and compare against",
                "data-parallel SGD (docs/parallelism.md);",
                "S x R must be a power of two",
            ),
        ),
        Command(
            "train", cmd_train,
            ("train [ITERS]",),
            ("quickstart LeNet training",),
        ),
        Command(
            "list", cmd_list,
            ("list",),
            ("show experiments and networks",),
        ),
    )
}

#: Name -> handler view of :data:`REGISTRY` (kept for importers/tests).
COMMANDS = {name: cmd.handler for name, cmd in REGISTRY.items()}


def _usage() -> str:
    """Render the help text from :data:`REGISTRY` (never hand-written)."""
    lines = ["usage: python -m repro <command>", "", "commands:"]
    for cmd in REGISTRY.values():
        first = f"  {cmd.usage[0]}"
        descriptions = list(cmd.help)
        if len(cmd.usage) == 1 and len(first) < 24 and descriptions:
            lines.append(f"{first:<24}{descriptions.pop(0)}")
        else:
            lines.append(first)
            lines.extend(f"        {u}" for u in cmd.usage[1:])
        lines.extend(f"{' ' * 24}{d}" for d in descriptions)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``argv`` to its subcommand; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    if argv[0] not in COMMANDS:
        return _fail("command", argv[0], COMMANDS)
    try:
        return COMMANDS[argv[0]](argv[1:])
    except _BadArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
