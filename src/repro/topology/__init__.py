"""TaihuLight interconnect model.

The Sunway TaihuLight network is two-level (paper Sec. II-B): supernodes of
256 nodes with full intra-supernode bandwidth at the bottom, and a central
switching network between supernodes provisioned at only a quarter of full
bandwidth at the top. MPI point-to-point traffic reaches ~12 GB/s with
microsecond-level latency inside a supernode, and about 1/4 of that when the
central network is over-subscribed (Fig. 6).

This subpackage provides:

* :class:`~repro.topology.cost_model.LinearCostModel` — the alpha-beta-gamma
  model of Thakur et al. the paper uses for Eqs. 2-6;
* :class:`~repro.topology.cost_model.NetworkModel` — a size-dependent
  bandwidth/latency curve calibrated against Fig. 6;
* :class:`~repro.topology.fabric.TaihuLightFabric` — node/supernode layout
  and pairwise message pricing on the collective curve;
* :mod:`~repro.topology.infiniband` — the Infiniband FDR reference curve
  plotted alongside the Sunway network in Fig. 6.
"""

from repro.topology.cost_model import (
    LinearCostModel,
    NetworkModel,
    SW_NETWORK,
    SW_LINEAR,
    SW_COLLECTIVE_NETWORK,
)
from repro.topology.fabric import TaihuLightFabric
from repro.topology.infiniband import INFINIBAND_FDR
from repro.topology.node import ComputeNode
from repro.topology.routing import ContentionModel, Flow
from repro.topology.supernode import Supernode

__all__ = [
    "LinearCostModel",
    "NetworkModel",
    "SW_NETWORK",
    "SW_LINEAR",
    "SW_COLLECTIVE_NETWORK",
    "TaihuLightFabric",
    "INFINIBAND_FDR",
    "ComputeNode",
    "ContentionModel",
    "Flow",
    "Supernode",
]
