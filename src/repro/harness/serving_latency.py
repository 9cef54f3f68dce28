"""Extension: dynamic batching vs batch=1 serving at a fixed SLO.

Clipper's core claim, replayed on the simulated SW26010: under an offered
load above the single-request service rate, a dynamic batcher rides the
hardware's batch efficiency (here the four core groups make batches 1-4
cost the *same* forward time, so batching the queue is nearly free) while a
batch=1 server falls behind, sheds, and blows through the latency SLO.

The harness serves one seeded Poisson arrival stream twice through
:func:`repro.serve.session.run_serving` — once with ``max_batch=1``, once
with the default dynamic batcher — and compares percentiles, goodput and
SLO attainment. ``tests/test_harness_goldens.py`` pins this operating
point's numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frame.model_zoo import lenet
from repro.serve.engine import ServeConfig
from repro.serve.report import ServeReport
from repro.serve.session import run_serving
from repro.utils.tables import Table
from repro.utils.units import format_time

#: The fixed operating point: offered load between the batch=1 capacity
#: (~19 req/s for LeNet's 52 ms forward) and the dynamic capacity at
#: ``max_batch=8`` (~77 req/s), with an SLO both *could* meet if they kept
#: up — exactly the regime where batching is the difference between an
#: attained SLO and a shedding meltdown.
ARRIVALS_SEED = "poisson:0xc0ffee:0"
RATE_RPS = 40.0
N_REQUESTS = 120
SLO_S = 0.400
MAX_BATCH = 8
MAX_WAIT_S = 0.010
QUEUE_BOUND = 32


@dataclass(frozen=True)
class ServingComparison:
    """The two sessions at the shared operating point."""

    batch1: ServeReport
    dynamic: ServeReport


def _config(max_batch: int) -> ServeConfig:
    return ServeConfig(
        max_batch=max_batch,
        max_wait_s=MAX_WAIT_S if max_batch > 1 else 0.0,
        queue_bound=QUEUE_BOUND,
        slo_s=SLO_S,
    )


def generate() -> ServingComparison:
    """Serve the same arrival stream with and without dynamic batching."""
    reports = {}
    for key, max_batch in (("batch1", 1), ("dynamic", MAX_BATCH)):
        reports[key] = run_serving(
            lenet.build,
            arrivals_seed=ARRIVALS_SEED,
            n_requests=N_REQUESTS,
            rate_rps=RATE_RPS,
            config=_config(max_batch),
            model="lenet",
        )
    return ServingComparison(**reports)


def render(comparison: ServingComparison | None = None) -> str:
    comparison = comparison if comparison is not None else generate()
    table = Table(
        headers=("metric", "batch=1", f"dynamic (max {MAX_BATCH})"),
        title=(
            f"Serving LeNet at {RATE_RPS:g} req/s "
            f"({ARRIVALS_SEED}, SLO {format_time(SLO_S)})"
        ),
    )
    b1, dy = comparison.batch1, comparison.dynamic
    for q in (50, 95, 99):
        table.add_row(
            f"p{q} latency",
            format_time(b1.latency_percentile(q)),
            format_time(dy.latency_percentile(q)),
        )
    table.add_row("mean batch size", f"{b1.mean_batch_size:.2f}", f"{dy.mean_batch_size:.2f}")
    table.add_row("shed requests", str(b1.n_shed), str(dy.n_shed))
    table.add_row(
        "throughput", f"{b1.throughput_rps:.2f} req/s", f"{dy.throughput_rps:.2f} req/s"
    )
    table.add_row(
        "goodput (within SLO)",
        f"{b1.goodput_rps:.2f} req/s",
        f"{dy.goodput_rps:.2f} req/s",
    )
    table.add_row(
        "SLO attainment",
        f"{100 * b1.slo_attainment:.1f}%",
        f"{100 * dy.slo_attainment:.1f}%",
    )
    note = (
        "Same seeded arrivals, same engine; only the batcher differs. "
        "Batches of up to 4 share the four core groups and cost one "
        "forward pass, so dynamic batching converts queueing delay into "
        "throughput (docs/serving.md)."
    )
    return "\n".join([table.render(), "", note])


def render_whatif(scales: list[str] | None = None) -> str:
    """The ``--whatif`` summary: critical path + projections of the
    dynamic-batching session at the harness operating point.

    Re-serves the same seeded arrival stream under a tracer, walks the
    request/batch dependency graph, and projects the makespan and the
    worst request completion under each ``CLASS=FACTOR`` scaling
    (default: batch compute halved / doubled — the engine knob).
    """
    from repro.trace.critpath import (
        build_graph,
        critical_path,
        render_critpath,
        request_completions,
        schedule,
    )
    from repro.trace.tracer import Tracer
    from repro.trace.whatif import parse_scales, project
    from repro.utils.units import format_time

    tracer = Tracer()
    run_serving(
        lenet.build,
        arrivals_seed=ARRIVALS_SEED,
        n_requests=N_REQUESTS,
        rate_rps=RATE_RPS,
        config=_config(MAX_BATCH),
        model="lenet",
        tracer=tracer,
    )
    graph = build_graph(tracer)
    lines = [
        f"critical path of the dynamic session ({ARRIVALS_SEED}, "
        f"{N_REQUESTS} requests at {RATE_RPS:g} req/s):",
        render_critpath(critical_path(graph)),
    ]
    for item in scales or ("batch=0.5", "batch=2.0"):
        factors = parse_scales([item] if isinstance(item, str) else item)
        proj = project(graph, factors)
        done = request_completions(graph, schedule(graph, factors))
        slowest = max(done.items(), key=lambda kv: kv[1])
        lines.append(
            f"what-if {item}: makespan {format_time(proj.baseline_s)} -> "
            f"{format_time(proj.projected_s)} ({proj.speedup:.3f}x); "
            f"last completion req{slowest[0]} at {format_time(slowest[1])}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """CLI entry; ``--whatif`` adds the critical-path projection summary."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Dynamic batching vs batch=1 at a fixed SLO"
    )
    parser.add_argument(
        "--whatif", action="store_true",
        help="print the critical-path / what-if summary of the dynamic session",
    )
    parser.add_argument(
        "--scale", action="append", default=[], metavar="CLASS=FACTOR",
        help="what-if cost scaling (repeatable; default batch=0.5, 2.0)",
    )
    ns = parser.parse_args(argv)
    print(render())
    if ns.whatif:
        print()
        print(render_whatif(scales=ns.scale or None))


if __name__ == "__main__":  # pragma: no cover
    main()
