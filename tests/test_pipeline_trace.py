"""Pipeline trace emission (:func:`repro.pipeline.emit_pipeline_trace`).

Pins three contracts:

* the exact Chrome JSON emitted for a small fixed timeline
  (``tests/golden/trace_pipeline.json`` — byte-for-byte, simulated time
  is deterministic; regenerate with ``python -m tests.test_pipeline_trace``);
* the critical-path identity — scheduling the emitted span graph with no
  factors reproduces the walked makespan bitwise, both for a standalone
  model timeline and for a full :class:`~repro.pipeline.PipelineTrainer`
  trace (which mixes p2p transfers and collective spans into the same
  graph);
* what-if scaling — ``stage`` and ``p2p`` factors reprice the projection
  in the expected direction, and a pure-compute uniform pipeline scales
  exactly linearly under a ``stage`` factor.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.frame.model_zoo import lenet
from repro.pipeline.schedule import emit_pipeline_trace, simulate_pipeline
from repro.pipeline.trainer import PipelineTrainer
from repro.testing.chrome import validate_chrome
from repro.trace.critpath import build_graph, schedule
from repro.trace.export import to_chrome
from repro.trace.tracer import Tracer, tracing

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_pipeline.json"


def fixed_timeline():
    """A 2-stage, 2-microbatch 1F1B walk with decimal-exact durations."""
    return simulate_pipeline(
        [0.5, 1.0],
        [1.0, 2.0],
        n_microbatches=2,
        schedule="1f1b",
        fwd_xfer_s=[0.25],
        bwd_xfer_s=[0.25],
        xfer_bytes=[1024.0],
    )


def emit_fixed(tracer: Tracer | None = None) -> Tracer:
    tracer = tracer if tracer is not None else Tracer()
    emit_pipeline_trace(tracer, fixed_timeline())
    return tracer


def render(tracer: Tracer) -> str:
    return json.dumps(to_chrome(tracer), indent=1, sort_keys=True) + "\n"


class TestGolden:
    def test_matches_checked_in_golden_file(self):
        assert GOLDEN.is_file(), (
            f"golden file missing: {GOLDEN}; regenerate with "
            "`python -m tests.test_pipeline_trace`"
        )
        assert render(emit_fixed()) == GOLDEN.read_text()

    def test_golden_file_is_valid_chrome_format(self):
        assert validate_chrome(json.loads(GOLDEN.read_text())) == []

    def test_emission_is_deterministic(self):
        assert render(emit_fixed()) == render(emit_fixed())


class TestSpans:
    @pytest.fixture()
    def tracer(self):
        return emit_fixed()

    def test_span_categories(self, tracer):
        cats = {s.cat for s in tracer.spans}
        assert {"stage_fwd", "stage_bwd", "activation_xfer"} <= cats

    def test_op_spans_match_timeline(self, tracer):
        timeline = fixed_timeline()
        ops = sorted(
            (s for s in tracer.spans if s.cat in ("stage_fwd", "stage_bwd")),
            key=lambda s: (s.track, s.start_s),
        )
        recs = sorted(timeline.ops, key=lambda o: (o.stage, o.start_s))
        assert len(ops) == len(recs)
        for span, rec in zip(ops, recs):
            assert span.start_s == rec.start_s
            assert span.dur_s == rec.dur_s

    def test_xfer_spans_carry_ready_floor(self, tracer):
        xfers = [s for s in tracer.spans if s.cat == "activation_xfer"]
        assert xfers and all("ready_s" in s.args for s in xfers)
        assert all(s.start_s >= s.args["ready_s"] for s in xfers)

    def test_bubble_spans_cover_stage_gaps(self, tracer):
        timeline = fixed_timeline()
        total_gap = sum(
            dur for s in range(timeline.n_stages)
            for _start, dur in timeline.stage_gaps(s)
        )
        bubbles = [s for s in tracer.spans if s.cat == "pipeline_bubble"]
        assert sum(s.dur_s for s in bubbles) == pytest.approx(total_gap)


class TestCritpathIdentity:
    def test_standalone_emit_reproduces_makespan(self):
        timeline = fixed_timeline()
        tracer = Tracer()
        emit_pipeline_trace(tracer, timeline)
        sched = schedule(build_graph(tracer))
        assert sched.end_to_end_s == tracer.end_time()
        assert sched.end_to_end_s == timeline.makespan_s

    def test_origin_offset_preserves_identity(self):
        tracer = Tracer()
        emit_pipeline_trace(tracer, fixed_timeline(), origin_s=3.25)
        assert schedule(build_graph(tracer)).end_to_end_s == tracer.end_time()

    def test_trainer_trace_reproduces_end_time(self):
        """Full trainer trace: stage/xfer spans mixed with p2p transfers
        and (in hybrid mode) collective spans still schedule to the
        recorded end time bitwise."""
        tracer = Tracer()
        with tracing(tracer):
            trainer = PipelineTrainer(
                lambda rank=0: lenet.build(batch_size=4,
                                           rng=np.random.default_rng(7)),
                2,
                n_microbatches=2,
                replicas=2,
            )
            trainer.step(2)
        sched = schedule(build_graph(tracer))
        assert sched.end_to_end_s == tracer.end_time()


class TestWhatIf:
    def test_stage_factor_scales_pure_compute_linearly(self):
        timeline = simulate_pipeline(
            [1.0] * 4, [1.0] * 4, n_microbatches=8, schedule="fill_drain"
        )
        tracer = Tracer()
        emit_pipeline_trace(tracer, timeline)
        graph = build_graph(tracer)
        base = schedule(graph).end_to_end_s
        doubled = schedule(graph, factors={"stage": 2.0}).end_to_end_s
        assert doubled == pytest.approx(2.0 * base)

    def test_p2p_factor_only_moves_transfer_bound_schedules(self):
        tracer = Tracer()
        emit_pipeline_trace(tracer, fixed_timeline())
        graph = build_graph(tracer)
        base = schedule(graph).end_to_end_s
        slower = schedule(graph, factors={"p2p": 50.0}).end_to_end_s
        faster = schedule(graph, factors={"p2p": 0.01}).end_to_end_s
        assert slower > base
        assert faster <= base


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(emit_fixed()))
    print(f"wrote {GOLDEN}")
