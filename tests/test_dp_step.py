"""One data-parallel step: traced, executed and modeled agree.

:class:`~repro.parallel.ssgd.SSGDIterationModel` prices the Fig. 10/11
iteration: node compute and CG sync, CG0's local reduce, the RHD
allreduce on the collective curve, the SGD update. These tests pin that
the traced step (behind ``trace``, ``metrics`` and ``whatif``) and the
executed ``DistributedTrainer`` collective describe that iteration.

Bounds: the model prices the allreduce with
:func:`~repro.simmpi.collectives.analysis.stepwise_rhd_cost`, which halves
the payload exactly at every step; the simulated collective splits it into
MPICH's integer element blocks. Where the element count divides by the
rank count (here up to 8 ranks) the two differ only by float grouping, so
they agree to 1e-12 relative; above that the block split moves a few
hundred bytes per step, 2e-6 relative at most up to 64 ranks.
"""

from __future__ import annotations

import pytest

from repro.frame.model_zoo import alexnet, lenet
from repro.parallel.ssgd import SSGDIterationModel
from repro.parallel.trainer import DistributedTrainer
from repro.perf.layer_cost import net_iteration_time
from repro.trace.critpath import critical_path
from repro.trace.session import trace_training_step
from repro.trace.whatif import whatif_training

#: Supernode size of every case (clamped to the rank count).
Q = 4
SCHEMES = {"improved": "round-robin", "original": "block"}


def rel_bound(ranks: int) -> float:
    """Model agreement bound; see the module docstring."""
    return 1e-12 if ranks <= 8 else 2e-6


@pytest.fixture(scope="module")
def nets():
    return {"lenet": lenet.build(batch_size=16), "alexnet": alexnet.build(batch_size=64)}


@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize(
    "name,ranks",
    [("lenet", 2), ("lenet", 4), ("lenet", 8), ("lenet", 16), ("lenet", 64),
     ("alexnet", 8)],
)
def test_traced_step_is_the_model_step(nets, name, ranks, scheme, iterations):
    net = nets[name]
    q = min(Q, ranks)
    tracer, summary = trace_training_step(
        net, ranks=ranks, iterations=iterations, scheme=scheme,
        nodes_per_supernode=q,
    )
    assert summary.total_s == tracer.end_time() == critical_path(tracer).end_to_end_s
    model = SSGDIterationModel(
        compute_s=net_iteration_time(net, "sw26010"),
        model_bytes=net.param_bytes(),
        nodes_per_supernode=q,
        placement=SCHEMES[scheme],
    )
    expected = model.breakdown(ranks)
    bound = rel_bound(ranks)
    assert summary.total_s == pytest.approx(iterations * expected.total_s, rel=bound)
    assert summary.local_reduce_s == pytest.approx(
        iterations * expected.local_reduce_s, rel=1e-12
    )
    assert summary.update_s == pytest.approx(iterations * expected.update_s, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
@pytest.mark.parametrize("algorithm,placement", [("topo-aware", "round-robin"),
                                                 ("rhd", "block")])
def test_executed_allreduce_is_the_model_allreduce(n, algorithm, placement):
    iterations = 2
    dp = DistributedTrainer(
        lambda rank: lenet.build(batch_size=2), n, algorithm=algorithm,
        nodes_per_supernode=Q,
    )
    stats = dp.step(iterations)
    model = SSGDIterationModel(
        compute_s=0.0,
        model_bytes=dp.nets[0].param_bytes(),
        nodes_per_supernode=Q,
        placement=placement,
    )
    assert stats.comm_time_s / iterations == pytest.approx(
        model.breakdown(n).allreduce_s, rel=rel_bound(n)
    )


@pytest.mark.parametrize("ranks", [6, 8])
def test_whatif_moves_the_barrier_with_compute(ranks):
    # The first allreduce round waits on every rank through the barrier;
    # without its edges the allreduce stays anchored where the unscaled
    # compute put it, and the projection misses the simulation.
    result = whatif_training(
        lenet.build(batch_size=16), {"cpe": 0.5}, ranks=ranks, iterations=2,
        validate=True,
    )
    assert result.projection.speedup > 1.0
    assert result.validation.abs_error_s == 0.0
