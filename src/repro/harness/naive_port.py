"""Motivation table for Sec. III: naive port vs swCaffe's redesign.

The paper's premise: "straight-forward migrations or implementations of
these frameworks to the brand new architecture can not achieve satisfactory
performance", and each design principle quantifies why. This harness prices
representative kernels three ways:

* **naive port** — run on the MPE like a CPU core (Principle 1 violated):
  scalar compute at MPE peak, memory through the 9.9 GB/s copy path;
* **CPE offload, no LDM discipline** — CPE compute but per-element strided
  DMA (Principles 2/3 violated);
* **swCaffe plan** — the full redesign (LDM blocking, bulk DMA, register
  communication).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.core_group import CoreGroup
from repro.kernels.gemm import SWGemmPlan
from repro.utils.tables import Table


@dataclass(frozen=True)
class PortComparison:
    """One kernel priced under the three implementation styles."""

    kernel: str
    naive_mpe_s: float
    cpe_no_ldm_s: float
    swcaffe_s: float

    @property
    def speedup_vs_naive(self) -> float:
        return self.naive_mpe_s / self.swcaffe_s

    @property
    def speedup_vs_no_ldm(self) -> float:
        return self.cpe_no_ldm_s / self.swcaffe_s


#: Representative kernels: a VGG-style GEMM and a streaming layer.
GEMM_SHAPE = (512, 3136, 2304)  # conv3-class lowered GEMM
STREAM_BYTES = 64e6  # a large activation tensor pass


def compare_gemm(shape: tuple[int, int, int] = GEMM_SHAPE) -> PortComparison:
    """The three ports of one conv-sized single-precision GEMM."""
    m, n, k = shape
    cg = CoreGroup()
    flops = 2.0 * m * n * k
    traffic = 4.0 * (m * k + k * n + 2 * m * n)
    # Naive: MPE scalar/SSE-ish compute, memory via the MPE copy path.
    naive = max(
        flops / (cg.params.cg_mpe_peak_flops * 0.8),
        traffic / cg.params.mpe_copy_bw,
    )
    # CPE offload without LDM staging: compute is there, but with no
    # scratchpad reuse every multiply-accumulate fetches both operands from
    # DRAM as fine-grained strided DMA (8-byte blocks, Fig. 2 right).
    bw_no_ldm = cg.dma.aggregate_bandwidth(32 * 1024, 64, block_bytes=8)
    no_reuse_traffic = flops / 2.0 * 2 * 4.0  # 2 x 4-byte loads per MAC
    cpe_no_ldm = max(flops / (cg.peak_flops * 0.5), no_reuse_traffic / bw_no_ldm)
    # swCaffe: the actual plan.
    plan_s = SWGemmPlan(m, n, k, dtype_bytes=4).cost().total_s
    return PortComparison(
        kernel=f"GEMM {m}x{n}x{k}",
        naive_mpe_s=naive,
        cpe_no_ldm_s=cpe_no_ldm,
        swcaffe_s=plan_s,
    )


def compare_streaming(nbytes: float = STREAM_BYTES) -> PortComparison:
    """The three ports of a bandwidth-bound elementwise pass."""
    cg = CoreGroup()
    traffic = 2.0 * nbytes  # read + write
    naive = traffic / cg.params.mpe_copy_bw
    bw_no_ldm = cg.dma.aggregate_bandwidth(32 * 1024, 64, block_bytes=8)
    cpe_no_ldm = traffic / bw_no_ldm
    swcaffe = cg.dma.bulk_time(traffic)
    return PortComparison(
        kernel=f"streaming {int(nbytes / 1e6)} MB",
        naive_mpe_s=naive,
        cpe_no_ldm_s=cpe_no_ldm,
        swcaffe_s=swcaffe,
    )


def generate() -> list[PortComparison]:
    """Both representative kernels."""
    return [compare_gemm(), compare_streaming()]


def render(rows: list[PortComparison] | None = None) -> str:
    rows = rows if rows is not None else generate()
    table = Table(
        headers=["kernel", "naive MPE (s)", "CPE w/o LDM (s)", "swCaffe (s)",
                 "vs naive", "vs no-LDM"],
        title="Sec. III motivation: why a straight-forward port fails",
    )
    for r in rows:
        table.add_row(
            r.kernel, r.naive_mpe_s, r.cpe_no_ldm_s, r.swcaffe_s,
            f"{r.speedup_vs_naive:.0f}x", f"{r.speedup_vs_no_ldm:.1f}x",
        )
    return table.render()


def main() -> None:  # pragma: no cover
    print(render())


if __name__ == "__main__":  # pragma: no cover
    main()
