"""Core group (CG) model: the 8x8 CPE mesh and its memory controller.

The core group is the scheduling unit for swCaffe kernels: a kernel plan is
"spawned" onto the 64 CPEs (athread model), moves data via the CG's DMA
engine, exchanges tiles via register communication, and computes on the CPE
pipelines. The model prices those three streams: the cluster's peak rate
and its DMA and RLC time formulas, not CPE by CPE. Kernel plans combine
them in their ``cost()`` (:mod:`repro.kernels.plan`).
"""

from __future__ import annotations

from repro.hw.dma import DMAEngine
from repro.hw.rlc import RegisterComm
from repro.hw.spec import SW26010Params, SW_PARAMS


class CoreGroup:
    """One of the four SW26010 core groups."""

    def __init__(self, params: SW26010Params | None = None) -> None:
        self.params = params or SW_PARAMS
        self.dma = DMAEngine(params=self.params)
        self.rlc = RegisterComm(params=self.params)

    @property
    def peak_flops(self) -> float:
        """CPE-cluster peak double-precision FLOP/s (742.4 GFlops)."""
        return self.params.cg_cpe_peak_flops
