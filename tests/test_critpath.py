"""The critical-path graph builder (:mod:`repro.trace.critpath`).

Unit tests build tiny hand-made traces and pin the graph semantics
(member exclusion, release floors, binding-predecessor walks); the
integration tests pin the identity invariant — scheduling a real training
trace with no factors reproduces its recorded end time bitwise — plus
byte-identical determinism across repeated runs at several rank counts,
the hidden/exposed split of every Fig. 10 bucketed launch, and a golden
critical-path report of the traced data-parallel step
(``tests/golden/critpath_step.json``; regenerate with
``python -m tests.test_critpath``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import CritPathError
from repro.frame.model_zoo import lenet
from repro.harness.fig10_scalability import CONFIGS, build_study
from repro.parallel.scaling import PAPER_NODE_COUNTS
from repro.trace.critpath import (
    build_graph,
    critical_path,
    extract_path,
    path_spans,
    render_critpath,
    request_completions,
    schedule,
)
from repro.trace.session import trace_training_step
from repro.trace.tracer import Tracer

GOLDEN = pathlib.Path(__file__).parent / "golden" / "critpath_step.json"


def step_report():
    """The golden scenario, the CI what-if config: LeNet B=16 on 8 ranks,
    4 per supernode, one iteration."""
    tracer, summary = trace_training_step(
        lenet.build(batch_size=16), ranks=8, nodes_per_supernode=4
    )
    return critical_path(tracer), summary


def render(report) -> str:
    return json.dumps(report.to_json(), indent=1, sort_keys=True) + "\n"


class TestGraph:
    def test_member_edges_exclude_components_from_scheduling(self):
        tr = Tracer()
        parent = tr.emit("conv fwd", "layer_fwd", track="layers", dur=3.0)
        comp = tr.emit("conv fwd", "cpe_compute", track="cpe", start=0.0, dur=3.0)
        tr.edge(comp, parent, kind="member")
        graph = build_graph(tr)
        assert graph.n_scheduled == 1
        assert len(graph.member_nodes) == 1
        # The member still prices the container, but never schedules.
        sched = schedule(graph)
        report = critical_path(graph)
        assert report.end_to_end_s == sched.end_to_end_s == 3.0
        assert report.by_resource.get("cpe") == 3.0

    def test_ready_floor_delays_start(self):
        tr = Tracer()
        tr.emit(
            "svc", "collective_service", track="comm/fabric",
            start=5.0, dur=1.0, args={"ready_s": 5.0},
        )
        graph = build_graph(tr)
        sched = schedule(graph)
        idx = next(i for i, s in enumerate(graph.spans) if s.name == "svc")
        assert sched.start_s[idx] == 5.0 and sched.end_s[idx] == 6.0

    def test_markers_floor_at_recorded_start(self):
        tr = Tracer()
        mark = tr.instant_event("launch", "collective_launch",
                                track="comm/launch", start=2.0)
        svc = tr.emit("svc", "collective_service", track="comm/fabric",
                      start=2.0, dur=1.0)
        tr.edge(mark, svc)
        graph = build_graph(tr)
        sched = schedule(graph)
        assert sched.end_to_end_s == 3.0

    def test_same_track_spans_chain(self):
        tr = Tracer()
        tr.emit("a", "cpe_compute", track="cpe", dur=1.0)
        tr.emit("b", "cpe_compute", track="cpe", dur=2.0)
        graph = build_graph(tr)
        assert (0, 1) in graph.edges
        # Scaling a's class stretches b's start through the chain.
        sched = schedule(graph, {"cpe": 2.0})
        assert sched.end_to_end_s == 6.0

    def test_dep_edge_across_tracks(self):
        tr = Tracer()
        a = tr.emit("a", "cpe_compute", track="rank0/cpe", dur=2.0)
        b = tr.emit("b", "collective_step", track="comm", start=2.0, dur=1.0)
        tr.edge(a, b)
        graph = build_graph(tr)
        sched = schedule(graph, {"cpe": 3.0})
        assert sched.end_to_end_s == 7.0  # 6.0 compute + 1.0 collective

    def test_binding_predecessor_walk(self):
        """Diamond: the path goes through the slower arm."""
        tr = Tracer()
        src = tr.emit("src", "cpe_compute", track="a", dur=1.0)
        fast = tr.emit("fast", "dma_transfer", track="b", start=1.0, dur=1.0)
        slow = tr.emit("slow", "cpe_compute", track="c", start=1.0, dur=5.0)
        sink = tr.emit("sink", "collective_step", track="d", start=6.0, dur=1.0)
        tr.edge(src, fast)
        tr.edge(src, slow)
        tr.edge(fast, sink)
        tr.edge(slow, sink)
        graph = build_graph(tr)
        sched = schedule(graph)
        path_idx, terminal = extract_path(graph, sched)
        names = [graph.spans[i].name for i in path_idx]
        assert names == ["src", "slow", "sink"]
        assert graph.spans[terminal].name == "sink"
        # The fast arm has 4 seconds of slack.
        report = critical_path(graph)
        slack = {n: s for n, _, s in report.top_slack}
        assert slack["fast"] == pytest.approx(4.0)

    def test_cycle_raises_typed_error(self):
        tr = Tracer()
        a = tr.emit("a", "cpe_compute", track="a", dur=1.0)
        b = tr.emit("b", "cpe_compute", track="b", dur=1.0)
        tr.edge(a, b)
        tr.edge(b, a)
        with pytest.raises(CritPathError):
            schedule(build_graph(tr))

    def test_foreign_edges_ignored(self):
        """Edges whose spans belong to another tracer don't crash the build."""
        other = Tracer()
        o = other.emit("foreign", "cpe_compute", track="x", dur=1.0)
        tr = Tracer()
        a = tr.emit("a", "cpe_compute", track="a", dur=1.0)
        tr.edges.append((o, a, "dep"))
        graph = build_graph(tr)
        assert graph.edges == []


class TestTrainingIdentity:
    def test_identity_schedule_matches_recorded_end_time_bitwise(self):
        from repro.frame.model_zoo import lenet
        from repro.trace.session import trace_training_step

        net = lenet.build(batch_size=16)
        tracer, _ = trace_training_step(net, ranks=8)
        graph = build_graph(tracer)
        assert schedule(graph).end_to_end_s == tracer.end_time()

    def test_path_spans_are_real_spans(self):
        from repro.frame.model_zoo import lenet
        from repro.trace.session import trace_training_step

        net = lenet.build(batch_size=16)
        tracer, _ = trace_training_step(net, ranks=4)
        on_path = path_spans(tracer)
        assert on_path
        ids = {id(s) for s in tracer.spans}
        assert all(id(s) in ids for s in on_path)

    @pytest.mark.parametrize("ranks", [2, 5, 8, 13])
    def test_report_is_byte_deterministic(self, ranks):
        from repro.frame.model_zoo import lenet
        from repro.trace.session import trace_training_step

        reports = []
        for _ in range(2):
            net = lenet.build(batch_size=16)
            tracer, _ = trace_training_step(net, ranks=ranks)
            reports.append(render(critical_path(tracer)))
        assert reports[0] == reports[1]

    def test_render_names_terminal_and_resources(self):
        from repro.frame.model_zoo import lenet
        from repro.trace.session import trace_training_step

        net = lenet.build(batch_size=16)
        tracer, _ = trace_training_step(net, ranks=4)
        text = render_critpath(critical_path(tracer))
        assert "critical path" in text
        assert "cpe" in text and "end-to-end" in text


class TestServing:
    def test_request_completions_cover_every_served_request(self):
        from repro.serve.arrivals import ArrivalPlan
        from repro.serve.costmodel import TableCostModel
        from repro.serve.engine import ServeConfig, ServingEngine
        from repro.trace.tracer import tracing

        requests = ArrivalPlan.from_seed(
            "steady:0xc0ffee:0", rate_rps=250.0, n_requests=6
        ).generate()
        engine = ServingEngine(
            TableCostModel({b: 0.010 for b in range(1, 3)}),
            ServeConfig(max_batch=2, max_wait_s=0.005, queue_bound=4, slo_s=0.05),
        )
        with tracing() as tr:
            report = engine.run(requests, model="table", arrivals="steady")
        graph = build_graph(tr)
        done = request_completions(graph, schedule(graph))
        served = [r for r in report.records if not r.shed]
        assert set(done) == {r.rid for r in served}
        for rec in served:
            assert done[rec.rid] == pytest.approx(rec.arrival_s + rec.latency_s)


class TestFig10LaunchSplit:
    @pytest.mark.parametrize("bucket_mb", (8, 16, 32, 64, 96))
    @pytest.mark.parametrize("n_nodes", PAPER_NODE_COUNTS)
    @pytest.mark.parametrize("label", [c[0] for c in CONFIGS])
    def test_every_launch_splits_inside_its_window(self, label, n_nodes, bucket_mb):
        # A fully hidden launch whose end_s - start_s rounds one ulp above
        # its duration used to report a negative exposed time.
        model = build_study(bucket_mb=bucket_mb).configs[label]
        node = model.runner.iteration_time(model.compute_s, model.model_bytes)
        sched = model.overlap_schedule(n_nodes, node.compute_s + node.sync_s)
        assert sched.launches
        exposed = []
        for launch in sched.launches:
            hidden = launch.hidden_before(sched.barrier_s)
            assert 0.0 <= hidden <= launch.dur_s
            exposed.append(launch.dur_s - hidden)
            assert exposed[-1] >= 0.0
        # The schedule subtracts summed hidden time from summed occupancy;
        # this sums per-launch differences. Same quantity, different float
        # grouping.
        assert sched.exposed_s == pytest.approx(sum(exposed), rel=1e-12, abs=0.0)


class TestGolden:
    def test_exposed_collective_is_the_traced_allreduce(self):
        # The fused allreduce starts at the barrier, so every round is
        # exposed: the path sums the rounds in the order the summary does.
        report, summary = step_report()
        assert report.collective_exposed_s == summary.allreduce_s
        assert report.end_to_end_s == summary.total_s
        assert report.by_resource.get("collective", 0.0) > 0

    def test_matches_checked_in_golden_file(self):
        assert GOLDEN.is_file(), (
            f"golden file missing: {GOLDEN}; regenerate with "
            "`python -m tests.test_critpath`"
        )
        report, _ = step_report()
        assert render(report) == GOLDEN.read_text()


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(step_report()[0]))
    print(f"wrote {GOLDEN}")
