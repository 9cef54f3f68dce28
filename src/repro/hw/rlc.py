"""Register-level communication (RLC) between CPEs.

SW26010's unique feature (the paper's Principle 4): CPEs in the same row or
column of the 8x8 mesh exchange 256-bit messages through register buses in
an anonymous producer-consumer pattern. Fully pipelined, the mesh reaches
2549 GB/s aggregate P2P and 4461 GB/s aggregate broadcast bandwidth
(Xu et al., IPDPSW'17, the paper's [7]).

Only 256-bit (4 x double) transfers exist; there is no single-precision RLC
instruction, which is why swCaffe performs RLC in double precision and
converts inline with SIMD shuffles — the model exposes that constraint via
:attr:`RegisterComm.word_bytes`.

Like the DMA model, the transfer times also price a NumPy array of
positive byte counts elementwise, with the scalar call's operations.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import active as _faults, charge_transient
from repro.hw.clock import SimClock
from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.trace.tracer import active as _tracer


class RegisterComm:
    """Cost model for row/column register communication on one CPE mesh."""

    def __init__(self, params: SW26010Params | None = None, clock: SimClock | None = None) -> None:
        self.params = params or SW_PARAMS
        self.clock = clock or SimClock()
        #: Most recent traced span on this engine; operations on one
        #: engine are serial, so each depends on the one before it.
        self._last_span = None

    @property
    def word_bytes(self) -> int:
        """Granularity of a single RLC transfer (256 bits)."""
        return self.params.rlc_word_bytes

    def validate_pair(self, src: tuple[int, int], dst: tuple[int, int]) -> None:
        """Check that a P2P transfer is legal (same row or same column)."""
        rows, cols = self.params.cpe_rows, self.params.cpe_cols
        for r, c in (src, dst):
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"CPE coordinate {(r, c)} outside {rows}x{cols} mesh")
        if src == dst:
            raise ValueError("RLC P2P requires distinct CPEs")
        if src[0] != dst[0] and src[1] != dst[1]:
            raise ValueError(
                f"RLC only connects CPEs in the same row or column: {src} -> {dst}"
            )

    def _message_time(
        self, nbytes: float | np.ndarray, aggregate_bw: float, n_concurrent: int
    ) -> float | np.ndarray:
        """Pipeline-fill latency plus transfer at the per-lane share of bandwidth."""
        if not isinstance(nbytes, np.ndarray) and nbytes <= 0:
            return 0.0
        startup = self.params.rlc_startup_cycles / self.params.clock_hz
        lane_bw = aggregate_bw / max(1, n_concurrent) * n_concurrent
        # With n_concurrent lanes active the *aggregate* moves n*nbytes bytes;
        # per-lane completion time is total bytes / aggregate bandwidth.
        return startup + (nbytes * n_concurrent) / lane_bw

    def p2p_time(self, nbytes: float | np.ndarray, n_concurrent: int = 1) -> float | np.ndarray:
        """Seconds for ``n_concurrent`` simultaneous P2P transfers of ``nbytes``."""
        return self._message_time(nbytes, self.params.rlc_p2p_bw, n_concurrent)

    def broadcast_time(
        self, nbytes: float | np.ndarray, n_concurrent: int = 1
    ) -> float | np.ndarray:
        """Seconds for ``n_concurrent`` simultaneous row/col broadcasts of ``nbytes``."""
        return self._message_time(nbytes, self.params.rlc_bcast_bw, n_concurrent)

    def charge_p2p(self, nbytes: float, n_concurrent: int = 1) -> None:
        """Advance the clock by a P2P transfer."""
        dt = self.p2p_time(nbytes, n_concurrent)
        tr = _tracer()
        if tr.enabled:
            span = tr.emit(
                "rlc_p2p", "rlc_exchange", track="rlc",
                start=self.clock.now, dur=dt,
                args={"bytes": nbytes, "n_concurrent": n_concurrent},
            )
            if self._last_span is not None:
                tr.edge(self._last_span, span)
            self._last_span = span
        self.clock.advance(dt, category="rlc")
        if _faults().enabled:
            # A lost register-bus message is simply re-sent.
            charge_transient("rlc", self.clock, dt, track="rlc")

    def charge_broadcast(self, nbytes: float, n_concurrent: int = 1) -> None:
        """Advance the clock by a broadcast transfer."""
        dt = self.broadcast_time(nbytes, n_concurrent)
        tr = _tracer()
        if tr.enabled:
            span = tr.emit(
                "rlc_bcast", "rlc_exchange", track="rlc",
                start=self.clock.now, dur=dt,
                args={"bytes": nbytes, "n_concurrent": n_concurrent},
            )
            if self._last_span is not None:
                tr.edge(self._last_span, span)
            self._last_span = span
        self.clock.advance(dt, category="rlc")
        if _faults().enabled:
            charge_transient("rlc", self.clock, dt, track="rlc")
