"""End-to-end tracing tests: instrumentation, invariance, harness flags.

Pins the ISSUE acceptance criteria:

* the accounting replay used by trace sessions charges *exactly* what the
  executed recursive halving/doubling allreduce charges;
* enabling tracing changes no simulated-time results (the no-op guarantee);
* the fig7 harness ``--trace`` flag emits ranks x rounds collective spans;
* the ``python -m repro trace`` CLI produces valid Chrome trace JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import trace
from repro.simmpi import SimComm, block_placement, rhd_allreduce
from repro.topology import TaihuLightFabric
from repro.trace.session import replay_rhd, trace_training_step


def _comm(p: int, q: int | None = None) -> SimComm:
    q = q if q is not None else p
    fabric = TaihuLightFabric(n_nodes=p, nodes_per_supernode=q)
    return SimComm(fabric, block_placement(p, q))


class TestReplayEquivalence:
    """replay_rhd mirrors rhd_allreduce's accounting exactly."""

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("nbytes", [1 << 10, 1 << 20])
    def test_time_and_steps_match_executed(self, p, nbytes):
        bufs = [np.ones(nbytes // 8) for _ in range(p)]
        executed = rhd_allreduce(_comm(p), bufs)
        replayed = replay_rhd(_comm(p), nbytes, itemsize=8)
        assert replayed.steps == executed.steps
        assert replayed.time_s == pytest.approx(executed.time_s, rel=1e-12)

    def test_matches_with_supernode_crossing(self):
        # 8 nodes in 2 supernodes: cross-supernode hops cost differently.
        bufs = [np.ones(1 << 17) for _ in range(8)]
        executed = rhd_allreduce(_comm(8, 4), bufs)
        replayed = replay_rhd(_comm(8, 4), 1 << 20, itemsize=8)
        assert replayed.steps == executed.steps
        assert replayed.time_s == pytest.approx(executed.time_s, rel=1e-12)
        assert replayed.bytes_cross == pytest.approx(executed.bytes_cross)

    def test_single_rank_is_free(self):
        res = replay_rhd(_comm(1), 1 << 20)
        assert res.steps == 0 and res.time_s == 0.0


class TestTracingIsInert:
    """Enabling tracing never changes simulated-time results."""

    def test_fig7_results_identical_with_tracing(self):
        from repro.harness import fig7_allreduce

        baseline = fig7_allreduce.generate(nbytes=1 << 14)
        with trace.tracing() as tr:
            traced = fig7_allreduce.generate(nbytes=1 << 14)
        assert traced == baseline  # frozen dataclass: field-wise equality
        assert len(tr.spans) > 0  # ... but spans were collected

    def test_solver_time_identical_with_tracing(self):
        from repro.frame.model_zoo import lenet
        from repro.frame.solver import SGDSolver

        def run():
            net = lenet.build(batch_size=4)
            return SGDSolver(net, base_lr=0.01).step(2).simulated_time_s

        baseline = run()
        with trace.tracing() as tr:
            traced = run()
        assert traced == baseline
        assert tr.by_category("solver_iter")
        assert tr.by_category("layer_fwd") and tr.by_category("layer_bwd")

    def test_collective_time_identical_with_tracing(self):
        bufs = lambda: [np.ones(1 << 12) for _ in range(4)]  # noqa: E731
        baseline = rhd_allreduce(_comm(4, 2), bufs())
        with trace.tracing() as tr:
            traced = rhd_allreduce(_comm(4, 2), bufs())
        assert traced.time_s == baseline.time_s
        assert traced.steps == baseline.steps
        assert tr.by_category("collective_step")


class TestPlanCostSpans:
    def test_traced_cost_emits_breakdown(self):
        from repro.kernels.gemm import SWGemmPlan

        plan = SWGemmPlan(m=256, n=256, k=256)
        with trace.tracing() as tr:
            cost = plan.traced_cost()
        parent = next(s for s in tr.spans if s.cat == "plan_cost")
        assert parent.track == "plan" and parent.dur_s == cost.total_s
        cpe = next(s for s in tr.spans if s.cat == "cpe_compute")
        assert cpe.start_s == parent.start_s and cpe.dur_s == cost.compute_s

    def test_traced_cost_equals_cost_when_disabled(self):
        from repro.kernels.gemm import SWGemmPlan

        plan = SWGemmPlan(m=256, n=256, k=256)
        assert plan.traced_cost() == plan.cost()
        assert trace.active() is trace.NULL_TRACER


class TestFig7TraceFlag:
    def test_collective_spans_are_ranks_times_rounds(self, tmp_path, capsys):
        from repro.harness import fig7_allreduce as f7

        out = tmp_path / "fig7.json"
        f7.main(["--trace", str(out)])
        capsys.readouterr()
        obj = json.loads(out.read_text())
        assert trace.validate_chrome(obj) == []
        steps = [e for e in obj["traceEvents"]
                 if e.get("cat") == "collective_step" and e["ph"] == "X"]
        # 8 ranks, log2(8) halving + log2(8) doubling = 6 rounds, per scheme.
        rounds = 2 * int(np.log2(f7.P))
        per_scheme = f7.P * rounds
        assert len(steps) == 2 * per_scheme
        pids = {e["args"]["name"] for e in obj["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert pids == {"original", "improved"}

    def test_no_trace_flag_leaves_tracing_off(self, capsys):
        from repro.harness import fig7_allreduce as f7

        f7.main([])
        capsys.readouterr()
        assert trace.active() is trace.NULL_TRACER


class TestTraceSession:
    def test_all_ranks_get_all_resource_tracks(self):
        from repro.frame.model_zoo import lenet

        net = lenet.build(batch_size=4)
        tr, summary = trace_training_step(net, ranks=2)
        tracks = set(tr.tracks())
        for r in range(2):
            for res in ("layers", "cpe", "dma", "solver", "collective"):
                assert f"rank{r}/{res}" in tracks
        assert summary.ranks == 2
        assert summary.compute_s > 0 and summary.allreduce_s > 0
        assert summary.local_reduce_s > 0 and summary.update_s > 0
        assert summary.total_s == tr.end_time()

    def test_collective_follows_compute_on_timeline(self):
        from repro.frame.model_zoo import lenet

        net = lenet.build(batch_size=4)
        tr, summary = trace_training_step(net, ranks=2)
        first_step = min(s.start_s for s in tr.by_category("collective_step"))
        assert first_step == summary.compute_s + summary.local_reduce_s

    def test_scheme_and_supernode_validation(self):
        from repro.frame.model_zoo import lenet

        net = lenet.build(batch_size=4)
        with pytest.raises(ValueError):
            trace_training_step(net, ranks=4, scheme="bogus")
        with pytest.raises(ValueError):
            trace_training_step(net, ranks=4, nodes_per_supernode=3)

    def test_ambient_tracer_restored(self):
        from repro.frame.model_zoo import lenet

        trace_training_step(lenet.build(batch_size=4), ranks=2)
        assert trace.active() is trace.NULL_TRACER


class TestCLI:
    def test_trace_command_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "lenet.json"
        rc = main(["trace", "lenet", "--ranks", "2", "--batch", "4",
                   "--out", str(out), "--timeline"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed and "bottleneck" in printed
        obj = json.loads(out.read_text())
        assert trace.validate_chrome(obj) == []
        cats = {e.get("cat") for e in obj["traceEvents"] if e["ph"] in ("X", "i")}
        assert {"layer_fwd", "layer_bwd", "cpe_compute", "dma_transfer",
                "collective_step", "solver_iter"} <= cats
        pids = {e["args"]["name"] for e in obj["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert pids == {"rank0", "rank1"}
