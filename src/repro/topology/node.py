"""A TaihuLight compute node: one SW26010 processor plus one NIC.

Each node has a single FDR network port (the reason the paper rejects the
parameter-server scheme: one port cannot absorb gradients from thousands of
workers simultaneously). The fabric only needs a node's place in the
two-level network; the processor is modelled per core group by
:mod:`repro.hw` and priced through :mod:`repro.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ComputeNode:
    """One node of the TaihuLight system."""

    node_id: int
    supernode_id: int

    def __post_init__(self) -> None:
        if self.node_id < 0 or self.supernode_id < 0:
            raise ValueError("node and supernode ids must be non-negative")
