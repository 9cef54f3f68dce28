"""Serving sessions: the workload behind ``python -m repro serve``.

Glues the pieces together for the CLI and the harness: build the
batch-size-sensitive cost model from a model-zoo builder, realize the
seeded arrival stream, optionally install a fault plan, and run the
engine — emitting trace spans onto the caller's tracer.
"""

from __future__ import annotations

from contextlib import ExitStack

from repro.faults.injector import FaultInjector, injecting
from repro.faults.plan import FaultPlan
from repro.serve.arrivals import ArrivalPlan
from repro.serve.costmodel import NetForwardCostModel
from repro.serve.engine import ServeConfig, ServingEngine
from repro.serve.report import ServeReport
from repro.trace.tracer import Tracer, tracing

#: Target engine utilization the auto-derived arrival rate aims at: busy
#: enough that dynamic batching forms real batches, slack enough that the
#: queue stays bounded.
AUTO_RATE_UTILIZATION = 0.6


def auto_rate(cost_model, config: ServeConfig) -> float:
    """Default offered load: ~60% of the batched engine's capacity.

    The engine serves at most ``max_batch / compute_s(max_batch)`` requests
    per second; driving it at a fraction of that keeps the session in the
    regime where batching wins but latency stays finite — the "default
    operating point" of the serving benchmarks.
    """
    capacity = config.max_batch / cost_model.compute_s(config.max_batch)
    return AUTO_RATE_UTILIZATION * capacity


def run_serving(
    builder,
    *,
    arrivals_seed: str,
    n_requests: int = 200,
    rate_rps: float | None = None,
    config: ServeConfig | None = None,
    fault_seed: str | None = None,
    model: str = "",
    tracer: Tracer | None = None,
) -> ServeReport:
    """Serve a seeded arrival stream through one model-zoo network.

    ``rate_rps=None`` derives the default operating point with
    :func:`auto_rate`. The cost model is primed for every batch share up to
    ``max_batch`` *before* ``tracer`` is installed, so the
    trace holds only serving spans — never the plan search's churn. When
    ``fault_seed`` is given, the engine runs under that fault plan.
    """
    cfg = config or ServeConfig()
    cost_model = NetForwardCostModel(builder, name=model)
    for share in range(1, cost_model._share(cfg.max_batch) + 1):
        cost_model.cost(share * cost_model._n_core_groups)
    rate = rate_rps if rate_rps is not None else auto_rate(cost_model, cfg)
    plan = ArrivalPlan.from_seed(
        arrivals_seed, rate_rps=rate, n_requests=n_requests
    )
    engine = ServingEngine(cost_model, cfg)

    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing(tracer))
        if fault_seed is not None:
            fault_plan = FaultPlan.from_seed(fault_seed, ranks=1, iterations=1)
            stack.enter_context(injecting(FaultInjector(fault_plan)))
        return engine.run(
            plan.generate(), model=cost_model.name, arrivals=plan.describe()
        )
