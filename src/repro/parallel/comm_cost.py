"""Shared gradient-synchronization pricing for the iteration timing models.

Both the data-parallel model (:class:`~repro.parallel.ssgd.SSGDIterationModel`,
figs. 10/11) and the pipeline/hybrid model
(:class:`~repro.pipeline.model.PipelineIterationModel`) price an allreduce
of a gradient payload across a node group here. Keeping it in one place
means the models cannot drift apart — the fig10/fig11 pins gate the
hybrid model's within-stage allreduce pricing too.
"""

from __future__ import annotations

from repro.simmpi.collectives.analysis import stepwise_rhd_cost
from repro.simmpi.comm import reduce_gamma
from repro.topology.cost_model import SW_COLLECTIVE_NETWORK


def allreduce_cost(
    nbytes: float,
    n_nodes: int,
    *,
    nodes_per_supernode: int,
    placement: str = "round-robin",
) -> float:
    """Stepwise recursive-halving/doubling allreduce seconds.

    The single source of truth for gradient-synchronization pricing:
    MPICH's RHD step structure over the supernode topology on the
    calibrated collective curve, with the local reduction on the CPE
    clusters (:func:`~repro.simmpi.comm.reduce_gamma`). Returns 0 for a
    single node.
    """
    if n_nodes <= 1:
        return 0.0
    gamma = reduce_gamma("cpe")
    return stepwise_rhd_cost(
        nbytes,
        n_nodes,
        nodes_per_supernode,
        SW_COLLECTIVE_NETWORK,
        gamma,
        placement=placement,
    )
