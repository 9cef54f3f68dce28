"""Core group (CG) model: MPE + 8x8 CPE mesh + memory controller.

The core group is the scheduling unit for swCaffe kernels: a kernel plan is
"spawned" onto the 64 CPEs (athread model), moves data via the CG's DMA
engine, exchanges tiles via register communication, and computes on the CPE
pipelines. :meth:`CoreGroup.run_phase` prices one such phase with the
overlap rule the dual pipelines allow: compute and DMA overlap, so phase
time is the max of the two (plus serialized RLC when it cannot be hidden).
The mesh is modeled by its peak rate and its DMA and RLC engines, not CPE
by CPE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.clock import SimClock
from repro.hw.dma import DMAEngine
from repro.hw.mpe import MPE
from repro.hw.rlc import RegisterComm
from repro.hw.spec import SW26010Params, SW_PARAMS


@dataclass(frozen=True)
class PhaseCost:
    """Time breakdown of one kernel phase on a core group."""

    compute_s: float
    dma_s: float
    rlc_s: float
    total_s: float


class CoreGroup:
    """One of the four SW26010 core groups."""

    def __init__(
        self,
        params: SW26010Params | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.params = params or SW_PARAMS
        self.clock = clock or SimClock()
        self.mpe = MPE(params=self.params, clock=self.clock)
        self.dma = DMAEngine(params=self.params, clock=self.clock)
        self.rlc = RegisterComm(params=self.params, clock=self.clock)

    @property
    def n_cpes(self) -> int:
        """Number of CPEs in the mesh (64)."""
        return self.params.n_cpes_per_cg

    @property
    def peak_flops(self) -> float:
        """CPE-cluster peak double-precision FLOP/s (742.4 GFlops)."""
        return self.params.cg_cpe_peak_flops

    def compute_time(self, flops: float, efficiency: float = 1.0) -> float:
        """Seconds for ``flops`` spread across the full CPE cluster."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        if not 0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        return flops / (self.peak_flops * efficiency)

    def phase_cost(
        self,
        *,
        flops: float = 0.0,
        compute_efficiency: float = 1.0,
        dma_bytes: float = 0.0,
        dma_block_bytes: float | None = None,
        n_cpes: int | None = None,
        rlc_bytes: float = 0.0,
        rlc_broadcast: bool = True,
        rlc_overlapped: bool = True,
    ) -> PhaseCost:
        """Price one kernel phase without advancing the clock.

        Parameters
        ----------
        flops:
            Floating-point work in the phase (whole cluster).
        compute_efficiency:
            Fraction of peak the compute kernel sustains.
        dma_bytes:
            Total bytes moved between memory and LDMs in the phase.
        dma_block_bytes:
            Contiguous block size for strided DMA, or ``None``.
        n_cpes:
            CPEs participating in the DMA (default: all 64).
        rlc_bytes:
            Bytes exchanged over register communication.
        rlc_broadcast:
            Whether RLC uses broadcast (vs P2P) bandwidth.
        rlc_overlapped:
            Fully pipelined RLC hides under compute (the GEMM inner loop);
            otherwise it serializes.
        """
        cpes = self.n_cpes if n_cpes is None else n_cpes
        compute_s = self.compute_time(flops, compute_efficiency) if flops else 0.0
        dma_s = 0.0
        if dma_bytes > 0:
            dma_s = self.dma.transfer_time(
                dma_bytes / cpes, cpes, block_bytes=dma_block_bytes
            )
        rlc_s = 0.0
        if rlc_bytes > 0:
            rlc_s = (
                self.rlc.broadcast_time(rlc_bytes)
                if rlc_broadcast
                else self.rlc.p2p_time(rlc_bytes)
            )
        # Compute and DMA issue on different pipelines and overlap; RLC
        # either pipelines under compute or serializes after it.
        overlapped = max(compute_s, dma_s)
        if rlc_overlapped:
            overlapped = max(overlapped, rlc_s)
            total = overlapped
        else:
            total = overlapped + rlc_s
        return PhaseCost(compute_s=compute_s, dma_s=dma_s, rlc_s=rlc_s, total_s=total)

    def run_phase(self, **kwargs: float | bool | None) -> PhaseCost:
        """Price a phase and advance the clock by its total time."""
        cost = self.phase_cost(**kwargs)  # type: ignore[arg-type]
        self.clock.advance(cost.total_s, category="kernel")
        return cost
