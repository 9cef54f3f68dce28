"""One place decides rank placement: :func:`repro.simmpi.reorder.supernode_comm`.

Every trainer communicator is built there, with the placement its
allreduce needs: block for ``ring`` and ``rhd``, round-robin across
supernodes for ``topo-aware`` (and for the hybrid pipeline's stage groups,
which sync with it). These tests pin that rule, that the topology-aware
placement itself did not move, and that a traced topology-aware call runs
on the caller's clock and carries its barrier edge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FaultError
from repro.frame.layers.data import DataLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.softmax import SoftmaxWithLossLayer
from repro.frame.model_zoo import lenet
from repro.frame.net import Net
from repro.parallel.trainer import DistributedTrainer
from repro.pipeline.trainer import PipelineTrainer
from repro.simmpi.collectives.topo_aware import topo_aware_allreduce
from repro.simmpi.reorder import round_robin_placement, supernode_comm
from repro.trace.tracer import tracing
from repro.utils.rng import seeded_rng


class ConstantSource:
    """The same two samples on every call."""

    sample_shape = (3,)

    def next_batch(self, batch_size):
        images = np.arange(batch_size * 3, dtype=np.float32).reshape(batch_size, 3)
        return images, np.arange(batch_size) % 2


def mlp(rank: int) -> Net:
    net = Net("mlp")
    net.add(DataLayer("data", ConstantSource(), 2), bottoms=[], tops=["data", "label"])
    net.add(InnerProductLayer("ip", 2, rng=seeded_rng(3)), ["data"], ["logits"])
    net.add(SoftmaxWithLossLayer("loss"), ["logits", "label"], ["loss"])
    return net


def old_topo_aware_q(p: int, nodes_per_supernode: int) -> int:
    """The supernode size the deleted per-call renumbered clone used."""
    q = min(nodes_per_supernode, p)
    if p % q != 0:
        q = 1
    return q


@pytest.mark.parametrize("nps", [1, 2, 3, 4, 8, 16, 256])
def test_round_robin_placement_did_not_move(nps):
    for p in range(1, 71):
        want = round_robin_placement(p, old_topo_aware_q(p, nps)).physical
        got = supernode_comm(p, nps, round_robin_placement).placement.physical
        assert got == want, (p, nps)


@pytest.mark.parametrize(
    "algorithm,placement",
    [("rhd", "block"), ("ring", "block"), ("topo-aware", "round-robin")],
)
def test_shrink_keeps_the_algorithm_placement(algorithm, placement):
    # 9 workers on supernodes of 4 do not tile; the 8 survivors do, which
    # is where block and round-robin numbering differ.
    trainer = DistributedTrainer(mlp, 9, algorithm=algorithm, nodes_per_supernode=4)
    assert trainer.comm.placement.name == placement
    trainer.shrink_to(range(8))
    assert trainer.comm.placement.name == placement
    physical = trainer.comm.placement.physical
    if placement == "block":
        assert physical == tuple(range(8))
    else:
        assert physical == (0, 4, 1, 5, 2, 6, 3, 7)


def test_hybrid_pipeline_groups_are_round_robin():
    trainer = PipelineTrainer(
        lambda rank: lenet.build(batch_size=1, rng=np.random.default_rng(5)),
        2, replicas=8, nodes_per_supernode=4,
    )
    assert trainer.comm.placement.name == "block"
    assert trainer.group_comm.placement.name == "round-robin"
    assert trainer.group_comm.placement.physical == (0, 4, 1, 5, 2, 6, 3, 7)


def test_zero_supernode_size_is_a_value_error():
    with pytest.raises(ValueError, match="nodes_per_supernode"):
        DistributedTrainer(mlp, 4, nodes_per_supernode=0)
    with pytest.raises(ValueError, match="nodes_per_supernode"):
        PipelineTrainer(mlp, 1, nodes_per_supernode=0)


def test_traced_topo_aware_call_runs_on_the_trainer_clock():
    trainer = DistributedTrainer(mlp, 8, algorithm="topo-aware", nodes_per_supernode=4)
    comm = trainer.comm
    t = 0.25
    comm.clock.advance(t, category="comm")
    with tracing() as tr:
        barrier = tr.emit("barrier", "collective_step", track="rank0/collective", start=t)
        comm.prev_step_span = barrier
        topo_aware_allreduce(comm, [np.ones(64) for _ in range(8)])
    first_round = [s for s in tr.by_category("collective_step") if s.name == "step0"]
    assert len(first_round) == 8
    assert all(s.start_s == t for s in first_round)
    assert sum(1 for src, _, _ in tr.edges if src is barrier) == 8
    assert comm.prev_step_span is not barrier
    assert comm.clock.now > t


class TestShrinkToValidation:
    @pytest.fixture
    def trainer(self):
        return DistributedTrainer(mlp, 4, algorithm="rhd")

    @pytest.mark.parametrize(
        "survivors,message",
        [
            ([], "zero survivors"),
            ([0, 7], "not active"),
            ([2, 2, 3], "order-preserving"),
            ([0, 0], "order-preserving"),
            ([3, 1], "order-preserving"),
        ],
    )
    def test_rejects(self, trainer, survivors, message):
        with pytest.raises(FaultError, match=message):
            trainer.shrink_to(survivors)
        assert trainer.active == [0, 1, 2, 3]
        assert trainer.n_workers == 4

    def test_accepts_an_ordered_subset(self, trainer):
        trainer.shrink_to([1, 3])
        assert trainer.active == [1, 3]
        trainer.step(1)
        assert trainer.replicas_in_sync()
