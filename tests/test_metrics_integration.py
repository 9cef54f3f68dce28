"""End-to-end metrics tests: the report, roofline, CLI and export.

Pins:

* collecting the metrics report changes no simulated-time result: its
  gradient allreduce is the plain traced step's, bitwise;
* the metrics report's DMA counters and the session trace's
  ``dma_transfer`` spans describe the same bytes;
* the roofline analyzer pins a stride-degraded/pure-movement plan as
  DMA-bound and a large GEMM as compute-bound;
* ``python -m repro`` exits 2 with a usable message on unknown input;
* the merged Chrome export with counter tracks still validates.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as repro_main
from repro.frame.model_zoo import lenet
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Im2colPlan
from repro.metrics.export import to_chrome_with_metrics
from repro.metrics.roofline import classify_cost, net_roofline
from repro.metrics.session import collect_training_step
from repro.trace.export import validate_chrome
from repro.trace.session import trace_training_step
from repro.trace.tracer import Tracer


class TestMetricsAreInert:
    """Collecting the metrics report never changes simulated-time results."""

    def test_allreduce_identical_with_metrics(self):
        _, bare = trace_training_step(lenet.build(batch_size=16), ranks=8)
        report = collect_training_step(lenet.build(batch_size=16), ranks=8)
        assert bare.allreduce_steps > 0
        assert report.allreduce_s == bare.allreduce_s
        assert report.allreduce_steps == bare.allreduce_steps
        assert report.wire_bytes_intra == bare.wire_bytes_intra
        assert report.wire_bytes_cross == bare.wire_bytes_cross
        assert report.wall_s == bare.total_s
        (steps,) = report.counters["comm.steps"]
        assert steps["labels"] == {"collective": "rhd"}
        assert steps["value"] == bare.allreduce_steps


class TestTraceMetricsConsistency:
    """The report's counters and its trace describe the same simulated work."""

    def test_session_dma_bytes_match_span_payloads(self):
        tracer = Tracer()
        report = collect_training_step(
            lenet.build(batch_size=16), ranks=2, tracer=tracer
        )
        spans = tracer.by_category("dma_transfer")
        assert spans, "session trace should contain dma_transfer spans"
        span_bytes = sum(s.args["bytes"] for s in spans)
        counted = sum(
            entry["value"]
            for entry in report.counters["dma.bytes"]
            if entry["labels"]["dir"] == "model"
        )
        assert span_bytes == pytest.approx(counted)


class TestRooflinePins:
    def test_pure_movement_plan_is_dma_bound(self):
        plan = Im2colPlan(channels=64, height=56, width=56, k=3)
        verdict = classify_cost(plan.cost(), plan.params)
        assert verdict.bound == "dma"
        assert verdict.intensity == 0.0  # no flops, pure data movement
        # Strided K*K line writes keep achieved bandwidth below peak.
        assert 0.0 < verdict.dma_frac < 1.0

    def test_large_gemm_is_compute_bound(self):
        plan = SWGemmPlan(2048, 2048, 2048)
        verdict = classify_cost(plan.cost(), plan.params)
        assert verdict.bound == "compute"
        assert verdict.intensity > 10  # flops per DMA byte

    def test_net_roofline_covers_priced_layers(self):
        net = lenet.build(batch_size=16)
        rows = net_roofline(net)
        assert rows
        names = {layer.name for layer in net.layers}
        assert {r.layer for r in rows} <= names
        assert all(r.verdict.bound in ("compute", "dma", "rlc", "overhead") for r in rows)


class TestCliHardening:
    def test_unknown_command_exits_2(self, capsys):
        assert repro_main(["bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "--help" in err

    def test_unknown_net_exits_2(self, capsys):
        assert repro_main(["profile", "nosuchnet"]) == 2
        assert "nosuchnet" in capsys.readouterr().err

    def test_unknown_experiment_exits_2(self, capsys):
        assert repro_main(["experiment", "nosuchexp"]) == 2
        assert "nosuchexp" in capsys.readouterr().err

    def test_metrics_command_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = repro_main(
            ["metrics", "lenet", "--ranks", "2", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-metrics/1"
        assert payload["layers"] and payload["resources"]
        stdout = capsys.readouterr().out
        assert "roofline" in stdout.lower()


class TestChromeCounterExport:
    def test_merged_export_validates_and_has_counters(self):
        tracer = Tracer()
        collect_training_step(lenet.build(batch_size=16), ranks=2, tracer=tracer)
        obj = to_chrome_with_metrics(tracer)
        assert validate_chrome(obj) == []
        counters = [ev for ev in obj["traceEvents"] if ev.get("ph") == "C"]
        assert counters, "expected counter ('C') events in merged export"
        # Counter samples are cumulative, hence monotonic per counter name.
        by_name: dict[str, list[float]] = {}
        for ev in counters:
            for value in ev["args"].values():
                by_name.setdefault(ev["name"], []).append(value)
        for series in by_name.values():
            assert series == sorted(series)
