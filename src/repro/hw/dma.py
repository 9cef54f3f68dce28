"""DMA engine model between DDR3 memory and CPE LDMs.

Reproduces the behaviour the paper measures in Fig. 2 and turns into design
Principles 2 and 3:

* aggregate bandwidth saturates around 28 GB/s per core group;
* a single CPE cannot saturate the memory controller — transfers should be
  issued from all 64 CPEs together;
* per-CPE transfers should be >= 2 KB to hide the hundreds-of-cycles LDM
  transfer latency;
* strided access needs blocks >= 256 B, below which bandwidth collapses.

The model is multiplicative-efficiency: ``bw = peak * f_size * f_cpes *
f_stride`` with saturating half-max curves. The constants live in
:class:`~repro.hw.spec.SW26010Params` and are calibrated so the quoted
operating points hold (see ``tests/test_hw_dma.py``).

The pricing methods also take NumPy arrays of byte counts and block sizes
and price them elementwise, with the same floating-point operations as
the scalar call, so a kernel can score a whole blocking space in one pass.
Array entries must be positive: the ``<= 0`` guards apply to scalars only.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import active as _faults, charge_transient
from repro.hw.clock import SimClock
from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.trace.tracer import active as _tracer


def _real(x: float | np.ndarray) -> float | np.ndarray:
    """A scalar as a Python ``float``; an array as float64, priced elementwise."""
    return x.astype(np.float64, copy=False) if isinstance(x, np.ndarray) else float(x)


class DMAEngine:
    """Per-core-group DMA bandwidth/latency model.

    The engine both *prices* transfers (:meth:`transfer_time`,
    :meth:`aggregate_bandwidth`) and *executes* them on NumPy buffers while
    charging a :class:`SimClock` (:meth:`get`, :meth:`put`), so functional
    kernels and the cost model can never drift apart.
    """

    def __init__(self, params: SW26010Params | None = None, clock: SimClock | None = None) -> None:
        self.params = params or SW_PARAMS
        self.clock = clock or SimClock()
        #: Most recent traced span on this engine; operations on one
        #: engine are serial, so each depends on the one before it.
        self._last_span = None

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def _size_efficiency(self, bytes_per_cpe: float | np.ndarray) -> float | np.ndarray:
        """Saturating efficiency in the per-CPE transfer size."""
        n = _real(bytes_per_cpe)
        if isinstance(n, float) and n <= 0:
            return 0.0
        return n / (n + self.params.dma_size_half_bytes)

    def _cpe_efficiency(self, n_cpes: int) -> float:
        """Saturating efficiency in the number of CPEs issuing the transfer."""
        c = float(n_cpes)
        if c <= 0:
            return 0.0
        return c / (c + self.params.dma_cpe_half)

    def _stride_efficiency(self, block_bytes: float | np.ndarray | None) -> float | np.ndarray:
        """Efficiency of strided access as a function of the block size.

        ``None`` means fully continuous access (efficiency 1). The paper's
        guidance that blocks should be >= 256 B corresponds to the point
        where this factor crosses ~0.73.
        """
        if block_bytes is None:
            return 1.0
        b = _real(block_bytes)
        if isinstance(b, float) and b <= 0:
            return 0.0
        return b / (b + self.params.dma_stride_overhead_bytes)

    def aggregate_bandwidth(
        self,
        bytes_per_cpe: float | np.ndarray,
        n_cpes: int = 64,
        *,
        block_bytes: float | np.ndarray | None = None,
    ) -> float | np.ndarray:
        """Achieved aggregate bandwidth (bytes/s) across ``n_cpes`` CPEs.

        Parameters
        ----------
        bytes_per_cpe:
            Bytes transferred by each participating CPE.
        n_cpes:
            Number of CPEs issuing DMA simultaneously (1..64).
        block_bytes:
            For strided access, the contiguous block size; ``None`` for a
            fully continuous transfer.
        """
        if not 1 <= n_cpes <= self.params.n_cpes_per_cg:
            raise ValueError(f"n_cpes must be in [1, 64], got {n_cpes}")
        peak = self.params.dma_peak_bw
        # Normalise so the calibration point (64 CPEs, large continuous
        # transfers) reaches the measured 28 GB/s exactly.
        norm = self._cpe_efficiency(self.params.n_cpes_per_cg)
        eff = (
            self._size_efficiency(bytes_per_cpe)
            * self._cpe_efficiency(n_cpes)
            / norm
            * self._stride_efficiency(block_bytes)
        )
        return peak * eff

    def transfer_time(
        self,
        bytes_per_cpe: float | np.ndarray,
        n_cpes: int = 64,
        *,
        block_bytes: float | np.ndarray | None = None,
    ) -> float | np.ndarray:
        """Seconds to move ``bytes_per_cpe`` on each of ``n_cpes`` CPEs.

        Includes one LDM-transfer latency (the transfers are issued
        concurrently, so latency is paid once, not per CPE).
        """
        total = _real(bytes_per_cpe) * n_cpes
        if isinstance(total, float) and total <= 0:
            return 0.0
        bw = self.aggregate_bandwidth(bytes_per_cpe, n_cpes, block_bytes=block_bytes)
        return self.params.dma_latency_s + total / bw

    def bulk_time(
        self,
        total_bytes: float | np.ndarray,
        *,
        block_bytes: float | np.ndarray | None = None,
    ) -> float | np.ndarray:
        """Seconds for a full-cluster (64-CPE) transfer of ``total_bytes``."""
        per_cpe = _real(total_bytes) / self.params.n_cpes_per_cg
        return self.transfer_time(per_cpe, self.params.n_cpes_per_cg, block_bytes=block_bytes)

    # ------------------------------------------------------------------ #
    # functional transfers
    # ------------------------------------------------------------------ #
    def get(
        self,
        src: np.ndarray,
        n_cpes: int = 64,
        *,
        block_bytes: float | None = None,
    ) -> np.ndarray:
        """Simulate ``dma_get``: copy ``src`` into "LDM" and charge the clock.

        Returns a contiguous copy, standing in for the LDM-resident buffer.
        """
        out = np.ascontiguousarray(src).copy()
        per_cpe = out.nbytes / n_cpes
        dt = self.transfer_time(per_cpe, n_cpes, block_bytes=block_bytes)
        tr = _tracer()
        if tr.enabled:
            span = tr.emit(
                "dma_get", "dma_transfer", track="dma",
                start=self.clock.now, dur=dt,
                args={"bytes": int(out.nbytes), "n_cpes": n_cpes},
            )
            if self._last_span is not None:
                tr.edge(self._last_span, span)
            self._last_span = span
        self.clock.advance(dt, category="dma")
        if _faults().enabled:
            # Corrupted transfers are re-issued; data is re-copied intact.
            charge_transient("dma", self.clock, dt, track="dma")
        return out

    def put(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        n_cpes: int = 64,
        *,
        block_bytes: float | None = None,
    ) -> None:
        """Simulate ``dma_put``: copy "LDM" data back to memory, charge clock."""
        if dst.shape != src.shape:
            raise ValueError(f"dma_put shape mismatch: {src.shape} -> {dst.shape}")
        np.copyto(dst, src)
        per_cpe = src.nbytes / n_cpes
        dt = self.transfer_time(per_cpe, n_cpes, block_bytes=block_bytes)
        tr = _tracer()
        if tr.enabled:
            span = tr.emit(
                "dma_put", "dma_transfer", track="dma",
                start=self.clock.now, dur=dt,
                args={"bytes": int(src.nbytes), "n_cpes": n_cpes},
            )
            if self._last_span is not None:
                tr.edge(self._last_span, span)
            self._last_span = span
        self.clock.advance(dt, category="dma")
        if _faults().enabled:
            charge_transient("dma", self.clock, dt, track="dma")
