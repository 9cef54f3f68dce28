"""repro.serve: batched-inference serving on the simulated clock.

The first inference-side subsystem: seeded replayable arrival streams
(:mod:`repro.serve.arrivals`), a bounded admission queue with Clipper-style
dynamic batching and load shedding, a discrete-event engine dispatching
forward-only batches priced by the kernel cost models
(:mod:`repro.serve.engine`), batch-size-sensitive plan selection
(:mod:`repro.serve.costmodel`), and per-request latency accounting with
p50/p95/p99 and SLO attainment (:mod:`repro.serve.report`).

Entry points: ``python -m repro serve <net> --arrivals <seed> --slo-ms N``
and :func:`repro.serve.session.run_serving`. See ``docs/serving.md``.
"""

from repro.serve.arrivals import (
    ArrivalPlan,
    PROFILES,
    Request,
    parse_seed_string,
    seed_string,
)
from repro.serve.costmodel import NetForwardCostModel
from repro.serve.engine import ServeConfig, ServingEngine
from repro.serve.report import RequestRecord, ServeReport, SERVE_SCHEMA
from repro.serve.session import auto_rate, run_serving

__all__ = [
    "ArrivalPlan",
    "PROFILES",
    "Request",
    "parse_seed_string",
    "seed_string",
    "NetForwardCostModel",
    "ServeConfig",
    "ServingEngine",
    "RequestRecord",
    "ServeReport",
    "SERVE_SCHEMA",
    "auto_rate",
    "run_serving",
]
