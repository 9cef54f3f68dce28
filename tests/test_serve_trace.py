"""Serving trace spans and the golden Chrome export.

A serving session with a table cost model and ``steady`` arrivals is fully
deterministic, so the exported Chrome trace-event JSON is pinned
byte-for-byte (``tests/golden/trace_serve.json``) — the serving analogue of
the training goldens. Structure tests assert the span taxonomy lands on the
``serve/*`` tracks the docs promise.
"""

from __future__ import annotations

import json
import pathlib

from repro.serve.arrivals import ArrivalPlan, Request
from repro.testing.stubs import TableCostModel
from repro.serve.engine import ServeConfig, ServingEngine
from repro.testing.chrome import validate_chrome
from repro.trace.export import to_chrome
from repro.trace.tracer import Tracer, tracing

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_serve.json"


def serve_traced() -> Tracer:
    """Six steady requests through a 10 ms table model, batches of two.

    4 ms arrival gaps against a 5 ms batching deadline: the second request
    of each pair arrives before the first one's deadline, so every dispatch
    carries a full batch of two.
    """
    requests = ArrivalPlan.from_seed(
        "steady:0xc0ffee:0", rate_rps=250.0, n_requests=6
    ).generate()
    engine = ServingEngine(
        TableCostModel({b: 0.010 for b in range(1, 3)}),
        ServeConfig(max_batch=2, max_wait_s=0.005, queue_bound=4, slo_s=0.05),
    )
    with tracing() as tr:
        engine.run(requests, model="table", arrivals="steady")
    return tr


def render(tracer: Tracer) -> str:
    return json.dumps(to_chrome(tracer), indent=1, sort_keys=True) + "\n"


class TestGolden:
    def test_matches_checked_in_golden_file(self):
        assert GOLDEN.is_file(), (
            f"golden file missing: {GOLDEN}; regenerate with "
            "`python -m tests.test_serve_trace`"
        )
        assert render(serve_traced()) == GOLDEN.read_text()

    def test_golden_file_is_valid_chrome_format(self):
        assert validate_chrome(json.loads(GOLDEN.read_text())) == []


class TestStructure:
    def test_spans_land_on_the_serve_tracks(self):
        tr = serve_traced()
        assert {s.track for s in tr.spans} == {
            "serve/requests", "serve/scheduler", "serve/engine"
        }

    def test_span_taxonomy(self):
        tr = serve_traced()
        queued = [s for s in tr.spans if s.cat == "request_queued"]
        dispatch = [s for s in tr.spans if s.cat == "batch_dispatch"]
        compute = [s for s in tr.spans if s.cat == "batch_compute"]
        assert len(queued) == 6
        assert len(dispatch) == len(compute) == 3
        assert all(s.instant for s in queued + dispatch)
        assert all(not s.instant and s.dur_s == 0.010 for s in compute)

    def test_compute_spans_never_overlap(self):
        """One engine: batch k+1 starts at or after batch k ends."""
        compute = [s for s in serve_traced().spans if s.cat == "batch_compute"]
        for a, b in zip(compute, compute[1:]):
            assert b.start_s >= a.end_s - 1e-12

    def test_shed_requests_emit_instants(self):
        burst = tuple(Request(rid=i, arrival_s=0.001) for i in range(8))
        engine = ServingEngine(
            TableCostModel({1: 0.010, 2: 0.010}),
            ServeConfig(max_batch=2, max_wait_s=0.0, queue_bound=2, slo_s=0.05),
        )
        with tracing() as tr:
            report = engine.run(burst)
        shed = [s for s in tr.spans if s.cat == "request_shed"]
        assert report.n_shed > 0
        assert len(shed) == report.n_shed
        assert all(s.track == "serve/requests" and s.instant for s in shed)


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(serve_traced()))
    print(f"wrote {GOLDEN}")
