"""Processor specifications (paper Table I) and SW26010 model parameters.

Two kinds of data live here:

* :class:`ProcessorSpec` — the coarse spec sheet the paper tabulates in
  Table I for SW26010, NVIDIA K40m and Intel KNL (we add the 12-core
  E5-2680 v3 host CPU used as the third baseline in Table III).
* :class:`SW26010Params` — the microarchitectural constants the simulator
  needs beyond the spec sheet: CPE mesh geometry, LDM capacity, DMA
  saturation points, register-communication bandwidths, and so on. Each
  constant cites where in the paper it comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB, KiB


@dataclass(frozen=True)
class ProcessorSpec:
    """Coarse per-processor spec sheet (paper Table I).

    Attributes
    ----------
    name:
        Marketing name.
    release_year:
        Year of release.
    mem_bandwidth:
        Peak memory bandwidth in bytes/s.
    peak_single:
        Peak single-precision throughput in FLOP/s.
    peak_double:
        Peak double-precision throughput in FLOP/s.
    """

    name: str
    release_year: int
    mem_bandwidth: float
    peak_single: float
    peak_double: float

    @property
    def flop_per_byte_single(self) -> float:
        """Machine balance (single precision FLOPs per byte of DRAM traffic)."""
        return self.peak_single / self.mem_bandwidth


#: Table I row: SW26010. The paper quotes 128 GB/s in Table I (136 GB/s
#: theoretical across the 4 memory controllers elsewhere in the text).
SW26010_SPEC = ProcessorSpec(
    name="SW26010",
    release_year=2014,
    mem_bandwidth=128 * GB,
    peak_single=3.02e12,
    peak_double=3.02e12,
)

#: Table I row: NVIDIA K40m.
K40M_SPEC = ProcessorSpec(
    name="NVIDIA K40m",
    release_year=2013,
    mem_bandwidth=288 * GB,
    peak_single=4.29e12,
    peak_double=1.43e12,
)

#: Table I row: Intel Knights Landing.
KNL_SPEC = ProcessorSpec(
    name="Intel KNL",
    release_year=2016,
    mem_bandwidth=475 * GB,
    peak_single=6.92e12,
    peak_double=3.46e12,
)

#: The 12-core Intel E5-2680 v3 host CPU used for the "Caffe on CPU"
#: baseline (footnote 2 in the paper: 68 GB/s, 1.28 TFlops peak).
E5_2680V3_SPEC = ProcessorSpec(
    name="Intel E5-2680 v3 (12 cores)",
    release_year=2014,
    mem_bandwidth=68 * GB,
    peak_single=1.28e12,
    peak_double=0.64e12,
)


@dataclass(frozen=True)
class SW26010Params:
    """Microarchitectural constants for the SW26010 simulator.

    Every field is sourced from the paper (section given in the comment) or
    from the SW26010 benchmarking literature it cites.
    """

    # --- geometry (Sec. II-A) ---
    n_core_groups: int = 4
    cpe_rows: int = 8
    cpe_cols: int = 8
    ldm_bytes: int = 64 * KiB  # per-CPE local directive memory
    mem_per_cg_bytes: int = 8 * 1024**3  # 8 GB DDR3 per CG

    # --- clocks and pipelines (Sec. II-A) ---
    clock_hz: float = 1.45e9
    simd_width_double: int = 4  # 256-bit vectors = 4 doubles

    # --- compute peaks (Principle 1) ---
    cg_cpe_peak_flops: float = 742.4e9  # CPE cluster per CG
    cg_mpe_peak_flops: float = 11.6e9  # MPE per CG

    # --- DMA model (Principle 2/3, Fig. 2) ---
    dma_peak_bw: float = 28 * GB  # measured saturation, Fig. 2
    dma_theoretical_bw: float = 32 * GB  # per-CG MC theoretical
    mpe_copy_bw: float = 9.9 * GB  # memory-to-MPE-to-memory copy path
    dma_latency_cycles: float = 278.0  # "hundreds of cycles" LDM transfer latency
    dma_size_half_bytes: float = 900.0  # per-CPE size at 50% efficiency
    dma_cpe_half: float = 3.5  # CPE count at 50% concurrency efficiency
    dma_stride_overhead_bytes: float = 96.0  # per strided block fixed cost

    # --- register-level communication (Principle 4, [7]) ---
    rlc_p2p_bw: float = 2549 * GB  # aggregate, fully pipelined
    rlc_bcast_bw: float = 4461 * GB  # aggregate, fully pipelined
    rlc_word_bytes: int = 32  # 256-bit transfers
    rlc_startup_cycles: float = 11.0  # per-message pipeline fill

    @property
    def n_cpes_per_cg(self) -> int:
        """Number of CPEs in one core group (8x8 mesh)."""
        return self.cpe_rows * self.cpe_cols

    @property
    def dma_latency_s(self) -> float:
        """DMA transaction latency in seconds."""
        return self.dma_latency_cycles / self.clock_hz

    @property
    def flop_per_byte(self) -> float:
        """Per-CG machine balance using the measured DMA bandwidth.

        The paper computes 742.4 GFlops / 28 GB/s = 26.5 (Principle 3).
        """
        return self.cg_cpe_peak_flops / self.dma_peak_bw


#: Default SW26010 parameter set used throughout the package.
SW_PARAMS = SW26010Params()
