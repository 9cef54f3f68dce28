"""swCaffe's topology-aware allreduce (paper Sec. V-A, Fig. 7).

The algorithm *is* recursive halving/doubling — the improvement is purely
in the logical-to-physical rank numbering. Round-robin renumbering across
supernodes makes every step whose logical distance is a multiple of the
supernode count stay inside a supernode, so the heavy early halving steps
(and heavy late doubling steps) ride the full-bandwidth bottom network,
and only the log(p/q) small-message steps cross the over-subscribed
central switch. This reduces the beta2 coefficient from ``p - q`` to
``p/q - 1`` (Eqs. 3/4 -> 5/6).
"""

from __future__ import annotations

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import execute
from repro.simmpi.collectives.rhd import rhd_schedule
from repro.simmpi.reorder import round_robin_placement
from repro.topology.fabric import TaihuLightFabric
from repro.topology.cost_model import LinearCostModel


def make_topo_aware_comm(
    fabric: TaihuLightFabric,
    p: int,
    cost: LinearCostModel | None = None,
    gamma: float | None = None,
) -> SimComm:
    """Build a communicator with the round-robin renumbering applied.

    When ``p`` does not span multiple full supernodes (p <= q, or p not a
    multiple of q), the renumbering degenerates gracefully: ranks within a
    single supernode need no reordering, so the effective supernode size is
    clamped to ``p``.
    """
    q = min(fabric.nodes_per_supernode, p)
    if p % q != 0:
        # Partial trailing supernode: fall back to packing by supernode of
        # size gcd so the mapping stays a permutation.
        q = 1
    placement = round_robin_placement(p, q)
    return SimComm(fabric, placement, cost=cost, gamma=gamma)


def topo_aware_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """RHD allreduce over a round-robin placement.

    If ``comm`` already carries a round-robin placement it is used as-is;
    otherwise a renumbered clone (same fabric, same cost model) is created,
    matching how swCaffe installs its communicator once at startup. The
    clone's simulated time is folded back into ``comm.clock``. It executes
    the RHD schedule itself, so it stays one collective call.
    """
    if comm.placement.name == "round-robin":
        return execute(comm, buffers, rhd_schedule, average=average)
    renumbered = make_topo_aware_comm(
        comm.fabric, comm.p, cost=comm.cost, gamma=comm.gamma
    )
    result = execute(renumbered, buffers, rhd_schedule, average=average)
    comm.clock.advance(renumbered.clock.now, category="comm")
    return result
