"""Register-level communication (RLC) between CPEs.

SW26010's unique feature (the paper's Principle 4): CPEs in the same row or
column of the 8x8 mesh exchange 256-bit messages through register buses in
an anonymous producer-consumer pattern. Fully pipelined, the mesh reaches
2549 GB/s aggregate P2P and 4461 GB/s aggregate broadcast bandwidth
(Xu et al., IPDPSW'17, the paper's [7]).

Only 256-bit (4 x double) transfers exist; there is no single-precision RLC
instruction, which is why swCaffe performs RLC in double precision and
converts inline with SIMD shuffles (``SW26010Params.rlc_word_bytes``).

The GEMM plan prices its row/column panel broadcasts with
:meth:`RegisterComm.broadcast_time`. Like the DMA model, it also prices a
NumPy array of positive byte counts elementwise, with the scalar call's
operations.
"""

from __future__ import annotations

import numpy as np

from repro.hw.spec import SW26010Params, SW_PARAMS


class RegisterComm:
    """Cost model for row/column register communication on one CPE mesh."""

    def __init__(self, params: SW26010Params | None = None) -> None:
        self.params = params or SW_PARAMS

    def broadcast_time(
        self, nbytes: float | np.ndarray, n_concurrent: int = 1
    ) -> float | np.ndarray:
        """Seconds for ``n_concurrent`` simultaneous row/col broadcasts of
        ``nbytes``: pipeline-fill latency plus the transfer at the per-lane
        share of the aggregate broadcast bandwidth."""
        if not isinstance(nbytes, np.ndarray) and nbytes <= 0:
            return 0.0
        startup = self.params.rlc_startup_cycles / self.params.clock_hz
        lane_bw = self.params.rlc_bcast_bw / max(1, n_concurrent) * n_concurrent
        # With n_concurrent lanes active the *aggregate* moves n*nbytes bytes;
        # per-lane completion time is total bytes / aggregate bandwidth.
        return startup + (nbytes * n_concurrent) / lane_bw
