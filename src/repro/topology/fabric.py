"""The TaihuLight fabric: node layout and pairwise message pricing.

The fabric knows which physical node lives in which supernode and prices a
message between any two nodes: intra-supernode messages get full bandwidth,
inter-supernode messages cross the central switching network, which is
provisioned at 1/4 bandwidth and therefore over-subscribed whenever many
pairs cross simultaneously (the situation the paper's allreduce avoids).

Messages are priced on the collective network curve the Fig. 10/11
iteration models use, so every simulated communicator — traced, executed
or recovered — synchronizes gradients at the modeled rate.
"""

from __future__ import annotations

from repro.topology.cost_model import SW_COLLECTIVE_NETWORK

#: Nodes per supernode on TaihuLight (Sec. II-B).
NODES_PER_SUPERNODE = 256


class TaihuLightFabric:
    """Node/supernode layout plus message pricing.

    Parameters
    ----------
    n_nodes:
        Number of nodes in the allocation (the full machine has 40,960).
    nodes_per_supernode:
        Supernode size (256 on TaihuLight).
    """

    def __init__(
        self, n_nodes: int, nodes_per_supernode: int = NODES_PER_SUPERNODE
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if nodes_per_supernode <= 0:
            raise ValueError("nodes_per_supernode must be positive")
        self.n_nodes = int(n_nodes)
        self.nodes_per_supernode = int(nodes_per_supernode)

    def supernode_of(self, node_id: int) -> int:
        """Supernode index of a physical node."""
        self._check(node_id)
        return node_id // self.nodes_per_supernode

    def same_supernode(self, a: int, b: int) -> bool:
        """Whether two physical nodes share a supernode."""
        return self.supernode_of(a) == self.supernode_of(b)

    def ptp_time(self, src: int, dst: int, nbytes: float, *, oversubscribed: bool | None = None) -> float:
        """Price one message between physical nodes.

        ``oversubscribed`` defaults to "the pair crosses supernodes": the
        conservative assumption that cross-supernode traffic in a dense
        collective step contends for the quarter-provisioned central
        network, which is how the paper models its Fig. 7 costs.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0.0
        cross = not self.same_supernode(src, dst)
        over = cross if oversubscribed is None else oversubscribed
        return SW_COLLECTIVE_NETWORK.ptp_time(nbytes, oversubscribed=over)

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node {node_id} outside fabric of {self.n_nodes} nodes")
