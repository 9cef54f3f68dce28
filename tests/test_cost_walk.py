"""One SW26010 per-layer cost walk and one training-step workload.

``Net.sw_layer_costs`` is the per-layer walk and
``trace.session.trace_training_step`` the training step. These tests pin
that the readers of each agree bit for bit: the iteration sum equals the
paper-table sum, the metrics session measures exactly the step the trace
session simulates, and the replayed allreduce accounts exactly what the
executed one does.
"""

import numpy as np
import pytest

from repro.__main__ import NETWORKS, _load_builder
from repro.frame.model_zoo import alexnet, lenet
from repro.metrics.session import collect_training_step
from repro.perf.layer_cost import net_iteration_time
from repro.simmpi import SimComm, block_placement, rhd_allreduce
from repro.topology import TaihuLightFabric
from repro.trace.critpath import critical_path
from repro.trace.session import replay_rhd, trace_training_step
from repro.trace.tracer import Tracer

#: Every CLI network at batch 1, 4, 16 and its CLI default.
NET_BATCHES = [
    (name, batch)
    for name, (_, _, default_batch) in sorted(NETWORKS.items())
    for batch in sorted({1, 4, 16, default_batch})
]


@pytest.mark.parametrize("name,batch", NET_BATCHES)
def test_sw_iteration_time_is_the_paper_table_sum(name, batch):
    builder, _ = _load_builder(name)
    net = builder(batch_size=batch)
    assert net.sw_iteration_time() == net_iteration_time(net, "sw26010")


def _assert_metrics_measure_traced_step(net, **session):
    tracer = Tracer()
    report = collect_training_step(net, tracer=tracer, **session)
    traced, summary = trace_training_step(net, **session)

    assert report.wall_s == summary.total_s
    assert (
        report.compute_s,
        report.local_reduce_s,
        report.allreduce_s,
        report.update_s,
        report.allreduce_steps,
        report.payload_bytes,
        report.wire_bytes_intra,
        report.wire_bytes_cross,
    ) == (
        summary.compute_s,
        summary.local_reduce_s,
        summary.allreduce_s,
        summary.update_s,
        summary.allreduce_steps,
        summary.payload_bytes,
        summary.wire_bytes_intra,
        summary.wire_bytes_cross,
    )
    measured, simulated = critical_path(tracer), critical_path(traced)
    assert (measured.end_to_end_s, measured.terminal, measured.terminal_track) == (
        simulated.end_to_end_s,
        simulated.terminal,
        simulated.terminal_track,
    )
    # The path runs through every barrier and sync edge to the last update.
    assert measured.end_to_end_s == report.wall_s


class TestMetricsMeasureTheTracedStep:
    @pytest.mark.parametrize("scheme", ["improved", "original"])
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    @pytest.mark.parametrize("ranks", [1, 2, 4, 6])
    def test_lenet(self, ranks, iterations, scheme):
        _assert_metrics_measure_traced_step(
            lenet.build(batch_size=16),
            ranks=ranks,
            iterations=iterations,
            scheme=scheme,
        )

    def test_alexnet(self):
        _assert_metrics_measure_traced_step(
            alexnet.build(batch_size=256), ranks=4, iterations=1
        )


def _accounting(result) -> tuple:
    return (
        result.steps,
        result.alpha_count,
        result.bytes_intra,
        result.bytes_cross,
        result.reduce_bytes,
        result.step_times,
    )


@pytest.mark.parametrize("p,q", [(2, 2), (5, 5), (6, 3), (8, 4)])
def test_replay_labels_counters_like_the_executed_allreduce(p, q):
    n = 3000

    def comm():
        return SimComm(TaihuLightFabric(n_nodes=p, nodes_per_supernode=q),
                       block_placement(p, q))

    bufs = [np.ones(n, dtype=np.float32) for _ in range(p)]
    executed = _accounting(rhd_allreduce(comm(), bufs))
    replayed = _accounting(replay_rhd(comm(), 4 * n))
    assert executed[0] > 0 and replayed == executed
