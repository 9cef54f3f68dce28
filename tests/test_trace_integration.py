"""End-to-end tracing tests: instrumentation, invariance, harness flags.

Pins the ISSUE acceptance criteria:

* the accounting replay used by trace sessions and the allreduce sweep
  charges *exactly* what every executed allreduce charges;
* enabling tracing changes no simulated-time results (the no-op guarantee);
* the fig7 harness ``--trace`` flag emits ranks x rounds collective spans;
* the ``python -m repro trace`` CLI produces valid Chrome trace JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.simmpi.collectives.binomial import binomial_allreduce, binomial_schedule
from repro.simmpi.collectives.reduce_ops import replay
from repro.simmpi.collectives.rhd import rhd_allreduce, rhd_schedule
from repro.simmpi.collectives.ring import ring_allreduce, ring_schedule
from repro.simmpi.collectives.topo_aware import topo_aware_allreduce
from repro.simmpi.comm import SimComm
from repro.simmpi.reorder import block_placement, round_robin_placement
from repro.testing.chrome import validate_chrome
from repro.topology.fabric import TaihuLightFabric
from repro.trace.session import replay_rhd, trace_training_step
from repro.trace.tracer import NULL_TRACER, active, tracing


def _comm(p: int, q: int | None = None) -> SimComm:
    q = q if q is not None else p
    fabric = TaihuLightFabric(n_nodes=p, nodes_per_supernode=q)
    return SimComm(fabric, block_placement(p, q))


class TestReplayEquivalence:
    """Replaying a schedule charges exactly what executing it charges.

    Every executed allreduce charges its schedule's rounds through
    ``reduce_ops.replay`` before it moves data, so each
    :class:`~repro.simmpi.comm.CollectiveResult` field and the clock must
    match the data-free replay bit for bit, for every algorithm.
    """

    # (executed collective, schedule it runs, placement both sides use)
    ALGORITHMS = {
        "rhd": (rhd_allreduce, rhd_schedule, block_placement),
        "ring": (ring_allreduce, ring_schedule, block_placement),
        "binomial": (binomial_allreduce, binomial_schedule, block_placement),
        # Topo-aware is RHD on the round-robin communicator it is given.
        "topo_aware": (topo_aware_allreduce, rhd_schedule, round_robin_placement),
    }

    @staticmethod
    def _assert_same(replayed, replay_comm, executed, exec_comm):
        assert replayed == executed  # every field, step_times included
        assert replay_comm.clock.now == exec_comm.clock.now

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("nbytes", [1 << 10, 1 << 20])
    def test_time_and_steps_match_executed(self, p, nbytes):
        n = nbytes // 8
        q = 4 if p % 4 == 0 else p
        fabric = TaihuLightFabric(n_nodes=p, nodes_per_supernode=q)
        for name, (collective, schedule, placement) in self.ALGORITHMS.items():
            exec_comm = SimComm(fabric, placement(p, q))
            executed = collective(exec_comm, [np.ones(n) for _ in range(p)])
            replay_comm = SimComm(fabric, placement(p, q))
            replayed = replay(replay_comm, schedule(p, n, 8))
            assert replayed.steps > 0, name
            self._assert_same(replayed, replay_comm, executed, exec_comm)

    def test_matches_with_supernode_crossing(self):
        # 8 nodes in 2 supernodes: cross-supernode hops cost differently.
        exec_comm, replay_comm = _comm(8, 4), _comm(8, 4)
        executed = rhd_allreduce(exec_comm, [np.ones(1 << 17) for _ in range(8)])
        replayed = replay_rhd(replay_comm, 1 << 20, itemsize=8)
        assert replayed.bytes_cross > 0
        self._assert_same(replayed, replay_comm, executed, exec_comm)

    def test_single_rank_is_free(self):
        res = replay_rhd(_comm(1), 1 << 20)
        assert res.steps == 0 and res.time_s == 0.0

    @pytest.mark.parametrize("nbytes", [1 << 10, 1 << 20, 1 << 22])
    def test_allreduce_sweep_equals_executed(self, nbytes):
        from repro.harness import allreduce_sweep as sw

        executed = {
            "ring": ring_allreduce,
            "binomial": binomial_allreduce,
            "rhd (block)": rhd_allreduce,
            "rhd (round-robin)": rhd_allreduce,
        }
        fabric = TaihuLightFabric(n_nodes=sw.P, nodes_per_supernode=sw.Q)
        n = max(sw.P, nbytes // 8)
        bufs = [np.zeros(n) for _ in range(sw.P)]
        for point in sw.generate((nbytes,)):
            placement = (round_robin_placement if "round-robin" in point.algorithm
                         else block_placement)
            comm = SimComm(fabric, placement(sw.P, sw.Q), cost=sw.MODEL)
            result = executed[point.algorithm](comm, bufs)
            assert point.time_s == result.time_s, point


class TestTracingIsInert:
    """Enabling tracing never changes simulated-time results."""

    def test_fig7_results_identical_with_tracing(self):
        from repro.harness import fig7_allreduce

        baseline = fig7_allreduce.generate(nbytes=1 << 14)
        with tracing() as tr:
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
        with tracing() as tr:
            traced = run()
        assert traced == baseline
        assert {"solver_iter", "layer_fwd", "layer_bwd"} <= {s.cat for s in tr.spans}

    def test_collective_time_identical_with_tracing(self):
        bufs = lambda: [np.ones(1 << 12) for _ in range(4)]  # noqa: E731
        baseline = rhd_allreduce(_comm(4, 2), bufs())
        with tracing() as tr:
            traced = rhd_allreduce(_comm(4, 2), bufs())
        assert traced.time_s == baseline.time_s
        assert traced.steps == baseline.steps
        assert [s for s in tr.spans if s.cat == "collective_step"]


class TestFig7TraceFlag:
    def test_collective_spans_are_ranks_times_rounds(self, tmp_path, capsys):
        from repro.harness import fig7_allreduce as f7

        out = tmp_path / "fig7.json"
        f7.main(["--trace", str(out)])
        capsys.readouterr()
        obj = json.loads(out.read_text())
        assert validate_chrome(obj) == []
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
        assert active() is NULL_TRACER


class TestTraceSession:
    def test_all_ranks_get_all_resource_tracks(self):
        from repro.frame.model_zoo import lenet

        net = lenet.build(batch_size=4)
        tr, summary = trace_training_step(net, ranks=2)
        tracks = {s.track for s in tr.spans}
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
        first_step = min(s.start_s for s in tr.spans if s.cat == "collective_step")
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
        assert active() is NULL_TRACER

    def test_net_priced_once_per_step(self, monkeypatch):
        from repro.frame.model_zoo import lenet
        from repro.frame.net import Net

        priced = []
        price = Net.sw_layer_costs
        monkeypatch.setattr(Net, "sw_layer_costs", lambda net: priced.append(net) or price(net))
        net = lenet.build(batch_size=4)
        trace_training_step(net, ranks=16, iterations=2)
        assert priced == [net]


class TestCLI:
    def test_trace_command_end_to_end(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.trace import critpath

        builds = []
        build_graph = critpath.build_graph

        def counted_build(tracer):
            builds.append(tracer)
            return build_graph(tracer)

        monkeypatch.setattr(critpath, "build_graph", counted_build)
        out = tmp_path / "lenet.json"
        rc = main(["trace", "lenet", "--ranks", "2", "--batch", "4",
                   "--out", str(out), "--timeline"])
        assert rc == 0
        # The report and the timeline highlight share one compiled graph.
        assert len(builds) == 1
        printed = capsys.readouterr().out
        assert "wrote" in printed and "bottleneck" in printed
        obj = json.loads(out.read_text())
        assert validate_chrome(obj) == []
        cats = {e.get("cat") for e in obj["traceEvents"] if e["ph"] in ("X", "i")}
        assert {"layer_fwd", "layer_bwd", "cpe_compute", "dma_transfer",
                "collective_step", "solver_iter"} <= cats
        pids = {e["args"]["name"] for e in obj["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert pids == {"rank0", "rank1"}
