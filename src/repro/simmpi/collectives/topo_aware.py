"""swCaffe's topology-aware allreduce (paper Sec. V-A, Fig. 7).

The algorithm *is* recursive halving/doubling — the improvement is purely
in the logical-to-physical rank numbering. Round-robin renumbering across
supernodes makes every step whose logical distance is a multiple of the
supernode count stay inside a supernode, so the heavy early halving steps
(and heavy late doubling steps) ride the full-bandwidth bottom network,
and only the log(p/q) small-message steps cross the over-subscribed
central switch. This reduces the beta2 coefficient from ``p - q`` to
``p/q - 1`` (Eqs. 3/4 -> 5/6).
As in swCaffe, the renumbering is installed once, when the communicator is
built (:func:`~repro.simmpi.reorder.supernode_comm`), not per call.
"""

from __future__ import annotations

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import execute
from repro.simmpi.collectives.rhd import rhd_schedule


def topo_aware_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """RHD allreduce on ``comm``; the paper's algorithm when ``comm`` is
    round-robin placed.

    It executes the RHD schedule itself, so it counts as one collective
    call, and its rounds, trace spans and timeouts land on ``comm``.
    """
    return execute(comm, buffers, rhd_schedule, average=average)
