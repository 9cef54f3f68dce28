"""Computing Processing Element (CPE) model.

A CPE is a 64-bit in-order RISC core at 1.45 GHz with 256-bit SIMD, a
floating-point pipeline and a memory-access pipeline that dual-issue
independent instructions (the paper's Principle 1), plus 64 KiB of LDM.

We model compute time as a peak-throughput/efficiency calculation: the
kernel plan declares how well it fills the SIMD lanes and pipelines, and
the CPE converts FLOPs into seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.clock import SimClock
from repro.hw.ldm import LDMAllocator
from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.trace.tracer import active as _tracer


@dataclass
class CPE:
    """One computing processing element in the 8x8 mesh.

    Attributes
    ----------
    row, col:
        Position in the mesh; register communication partners are the CPEs
        sharing ``row`` or ``col``.
    """

    row: int
    col: int
    params: SW26010Params = field(default_factory=lambda: SW_PARAMS)
    clock: SimClock = field(default_factory=SimClock)

    def __post_init__(self) -> None:
        if not (0 <= self.row < self.params.cpe_rows and 0 <= self.col < self.params.cpe_cols):
            raise ValueError(f"CPE position {(self.row, self.col)} outside mesh")
        self.ldm = LDMAllocator(self.params.ldm_bytes)

    @property
    def peak_flops(self) -> float:
        """Peak double-precision FLOP/s (742.4 GFlops / 64 CPEs = 11.6)."""
        return self.params.cpe_peak_flops

    def compute_time(self, flops: float, efficiency: float = 1.0) -> float:
        """Seconds to retire ``flops`` at the given pipeline/SIMD efficiency."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        if not 0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        return flops / (self.peak_flops * efficiency)

    def charge_compute(self, flops: float, efficiency: float = 1.0) -> None:
        """Advance the clock by a compute phase."""
        dt = self.compute_time(flops, efficiency)
        tr = _tracer()
        if tr.enabled:
            tr.emit(
                "cpe_compute", "cpe_compute", track="cpe",
                start=self.clock.now, dur=dt,
                args={"flops": flops, "efficiency": efficiency,
                      "cpe": f"({self.row},{self.col})"},
            )
        self.clock.advance(dt, category="compute")

    def simd_efficiency(self, vector_len: int, dtype_bytes: int = 8) -> float:
        """Fraction of SIMD lanes useful for a given inner vector length.

        256-bit registers hold 4 doubles or 8 singles; short trip counts
        leave lanes idle. This captures the paper's observation that small
        channel counts (< 64) starve the SIMD/RLC path.
        """
        lanes = self.params.rlc_word_bytes * 8 // (dtype_bytes * 8)
        if vector_len <= 0:
            return 1.0 / lanes
        full, rem = divmod(vector_len, lanes)
        issued = full + (1 if rem else 0)
        return vector_len / (issued * lanes)
