"""im2col / col2im DMA plans (Sec. IV-B1, Fig. 4).

The explicit GEMM lowering of convolution: im2col unrolls a (Ni, Ri, Ci)
image into a (Ni*K*K, Ro*Co) matrix so convolution becomes GEMM with the
(No, Ni*K*K) filter matrix; col2im scatters the matrix back (with overlap
accumulation) for the backward pass.

On SW26010 both are pure data-movement kernels with irregular access, so
the paper implements them with per-CPE DMA: each CPE reads whole input rows
into LDM (contiguous, length Ci), applies padding, and writes K*K shifted
copies back (strided, block length ~Co). The plans below price that
pattern against the Fig. 2 DMA model, and :meth:`~_TransformPlanBase.tile_walk`
walks it row wave by row wave.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import PlanError, ShapeError
from repro.kernels.plan import KernelPlan, PlanCost, Transfer
from repro.hw.spec import SW26010Params


def conv_out_dim(size: int, k: int, stride: int, pad: int) -> int:
    """Output spatial size of a convolution/pooling window sweep."""
    out = (size + 2 * pad - k) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output dim for size={size}, k={k}, "
            f"stride={stride}, pad={pad}"
        )
    return out


class _TransformPlanBase(KernelPlan):
    """Shared cost logic of the im2col/col2im DMA plans."""

    def __init__(
        self,
        channels: int,
        height: int,
        width: int,
        k: int,
        stride: int = 1,
        pad: int = 0,
        dtype_bytes: int = 4,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(params)
        if min(channels, height, width, k, stride) <= 0:
            raise PlanError("im2col/col2im dims must be positive")
        self.channels = int(channels)
        self.height = int(height)
        self.width = int(width)
        self.k = int(k)
        self.stride = int(stride)
        self.pad = int(pad)
        self.dtype_bytes = int(dtype_bytes)
        self.out_h = conv_out_dim(height, k, stride, pad)
        self.out_w = conv_out_dim(width, k, stride, pad)

    @property
    def image_bytes(self) -> float:
        """Bytes of the (C, H, W) tensor."""
        return float(self.channels * self.height * self.width * self.dtype_bytes)

    @property
    def matrix_bytes(self) -> float:
        """Bytes of the unrolled (C*K*K, Ho*Wo) matrix."""
        return float(
            self.channels * self.k * self.k * self.out_h * self.out_w * self.dtype_bytes
        )

    def _movement_cost(self) -> PlanCost:
        """Price: image side moves in whole rows, matrix side in ~Wo blocks."""
        row_block = self.width * self.dtype_bytes
        line_block = self.out_w * self.dtype_bytes
        image_s = self._cg.dma.bulk_time(self.image_bytes, block_bytes=row_block)
        matrix_s = self._cg.dma.bulk_time(self.matrix_bytes, block_bytes=line_block)
        total_bytes = self.image_bytes + self.matrix_bytes
        return PlanCost(dma_s=image_s + matrix_s, dma_bytes=total_bytes)

    def tile_walk(self) -> Iterator[Transfer]:
        """The Fig. 4 pattern's DMA transfers, moving no data.

        The image's C*H rows go to the CPEs in waves of 64, one row each.
        Every CPE of a wave reads its row and writes each matrix line that
        row feeds: line (c, ki, kj, oy), of Wo elements, comes from input
        row oy*s + ki - p. A line whose window row lies in the padding is
        written as zeros by the CPE holding the nearest edge row. Each CPE
        keeps its padded row resident. col2im moves the same bytes the
        other way: it reads the lines and writes the folded rows.
        """
        d, h, wave = self.dtype_bytes, self.height, self.params.n_cpes_per_cg
        feeds = [0] * h  # matrix lines each row of one channel writes
        for ki in range(self.k):
            for oy in range(self.out_h):
                feeds[min(max(oy * self.stride + ki - self.pad, 0), h - 1)] += self.k
        before = [0]  # lines written by the first r rows of a channel
        for n in feeds:
            before.append(before[-1] + n)

        def lines(row: int) -> int:
            """Lines written by the first ``row`` rows of the image."""
            return row // h * before[h] + before[row % h]

        row_buf = (self.width + 2 * self.pad) * d
        n_rows = self.channels * h
        for r0 in range(0, n_rows, wave):
            cpes = min(wave, n_rows - r0)
            yield Transfer(cpes * self.width * d, self.width * d, cpes, row_buf)
            written = lines(r0 + cpes) - lines(r0)
            if written:
                yield Transfer(written * self.out_w * d, self.out_w * d, cpes, row_buf)


class Im2colPlan(_TransformPlanBase):
    """DMA plan for the forward unroll (read rows, write K*K lines)."""

    name = "im2col"

    def cost(self) -> PlanCost:
        return self._movement_cost()


class Col2imPlan(_TransformPlanBase):
    """DMA plan for the backward scatter (read lines, accumulate rows)."""

    name = "col2im"

    def cost(self) -> PlanCost:
        move = self._movement_cost()
        # Overlap accumulation: one add per matrix element.
        flops = float(self.channels * self.k * self.k * self.out_h * self.out_w)
        compute_s = flops / (self._cg.peak_flops * 0.25)
        return PlanCost(
            compute_s=compute_s,
            dma_s=move.dma_s,
            dma_bytes=move.dma_bytes,
            flops=flops,
        )
