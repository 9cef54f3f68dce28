"""Digests of the traces the wall-clock benchmark emits, at its sizes.

The byte-for-byte trace goldens (``trace_serve.json``,
``trace_pipeline.json``) pin small traces, and
``tests/test_critpath_oracle.py`` checks the analyses against whatever
trace was emitted. This golden pins the traces of every operation kind of
the ``trace_timelines`` workload (``perfbench/workloads.py``) at the
workload's sizes, with fixed seeds:

* four serving streams of 6,000 requests, poisson and bursty arrivals at
  0.6 and 1.5 times the engine's batched capacity, priced by a
  :class:`~repro.testing.stubs.TableCostModel`;
* the traced LeNet B=64 data-parallel step at 16, 64 and 256 ranks;
* an 8-stage x 256-microbatch pipeline walk with uneven stages and
  transfers, under both schedules.

``tests/golden/trace_digests.json`` holds, per case, the span and edge
counts and one SHA-256 over every span (all fields, floats as
``float.hex``, ``args`` with sorted keys), every edge (as span indices and
kind), ``critical_path(...).to_json()`` and ``project(...)`` under fixed
factors (baseline, projected end and the projected report).

Regenerate with ``PYTHONPATH=src python -m tests.test_trace_digests``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.trace.critpath import build_graph, critical_path
from repro.trace.tracer import Tracer, tracing
from repro.trace.whatif import project

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_digests.json"

SERVE_REQUESTS = 6000
SERVE_LOADS = (0.6, 1.5)
DP_RANKS = (16, 64, 256)
PIPE_STAGES, PIPE_MICROBATCHES = 8, 256

#: What-if factors per trace kind: the classes each kind responds to.
FACTORS = {
    "serve": {"batch": 0.625},
    "dp": {"cpe": 0.5, "dma": 2.0, "rlc": 0.5, "collective": 2.0},
    "pipeline": {"stage": 0.5, "p2p": 2.0},
}


def _enc(value) -> str:
    """Canonical text of a span field, an ``args`` value or a report entry:
    floats as ``float.hex``, mappings with sorted keys."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{_enc(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_enc, value)) + "]"
    return repr(value)


def served_trace(profile: str, load: float) -> Tracer:
    """One traced serving stream at ``load`` times the batched capacity."""
    from repro.serve.arrivals import ArrivalPlan, seed_string
    from repro.serve.engine import ServeConfig, ServingEngine
    from repro.testing.stubs import TableCostModel

    config = ServeConfig()
    cost_model = TableCostModel({b: 0.001 + 0.0007 * b for b in range(1, 9)})
    capacity = config.max_batch / cost_model.compute_s(config.max_batch)
    requests = ArrivalPlan.from_seed(
        seed_string(profile, 7), rate_rps=load * capacity, n_requests=SERVE_REQUESTS
    ).generate()
    with tracing() as tr:
        ServingEngine(cost_model, config).run(requests)
    return tr


def data_parallel_trace(ranks: int) -> Tracer:
    """One traced LeNet B=64 data-parallel step."""
    from repro.frame.model_zoo import lenet
    from repro.trace.session import trace_training_step

    tr, _ = trace_training_step(lenet.build(batch_size=64), ranks=ranks)
    return tr


def pipeline_trace(schedule: str) -> Tracer:
    """A walked pipeline iteration with uneven stages, links and payloads."""
    from repro.pipeline.schedule import emit_pipeline_trace, simulate_pipeline

    S = PIPE_STAGES
    timeline = simulate_pipeline(
        [0.5 + 0.25 * (s % 3) for s in range(S)],
        [1.0 + 0.375 * ((2 * s) % 3) for s in range(S)],
        n_microbatches=PIPE_MICROBATCHES,
        schedule=schedule,
        fwd_xfer_s=[0.125 + 0.0625 * (i % 2) for i in range(S - 1)],
        bwd_xfer_s=[0.3 - 0.05 * (i % 3) for i in range(S - 1)],
        xfer_bytes=[4096.0 * (i + 1) for i in range(S - 1)],
    )
    tr = Tracer()
    emit_pipeline_trace(tr, timeline)
    return tr


#: case name -> (trace kind, trace builder, its arguments).
CASES = {
    **{
        f"serve/{profile}/{load}": ("serve", served_trace, (profile, load))
        for profile in ("poisson", "bursty")
        for load in SERVE_LOADS
    },
    **{f"dp/{r}": ("dp", data_parallel_trace, (r,)) for r in DP_RANKS},
    **{f"pipeline/{s}": ("pipeline", pipeline_trace, (s,)) for s in ("1f1b", "fill_drain")},
}


def trace_digest(tr: Tracer, factors: dict[str, float]) -> dict:
    """Span and edge counts and the SHA-256 of one trace and its analyses."""
    h = hashlib.sha256()
    index = {id(span): i for i, span in enumerate(tr.spans)}
    for span in tr.spans:
        h.update(("span " + "|".join(map(_enc, span)) + "\n").encode())
    for src, dst, kind in tr.edges:
        h.update(f"edge {index[id(src)]} {index[id(dst)]} {kind}\n".encode())
    graph = build_graph(tr)
    h.update(("critpath " + _enc(critical_path(graph).to_json()) + "\n").encode())
    projection = project(graph, factors)
    h.update((
        f"project {_enc(projection.baseline_s)} {_enc(projection.projected_s)} "
        + _enc(projection.report.to_json()) + "\n"
    ).encode())
    return {"spans": len(tr.spans), "edges": len(tr.edges), "sha256": h.hexdigest()}


def case_digest(name: str) -> dict:
    kind, build, args = CASES[name]
    return trace_digest(build(*args), FACTORS[kind])


def trace_digests() -> str:
    """Every case's digest as one JSON document."""
    doc = {name: case_digest(name) for name in CASES}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", list(CASES))
def test_trace_digest_matches_golden(name):
    assert GOLDEN.is_file(), (
        f"golden file missing: {GOLDEN}; regenerate with "
        "`python -m tests.test_trace_digests`"
    )
    assert case_digest(name) == json.loads(GOLDEN.read_text())[name]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.write_text(trace_digests())
    print(f"wrote {GOLDEN}")
