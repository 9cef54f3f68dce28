"""im2col / col2im transformations and their DMA plans (Sec. IV-B1, Fig. 4).

The explicit GEMM lowering of convolution: ``im2col`` unrolls a
(Ni, Ri, Ci) image into a (Ni*K*K, Ro*Co) matrix so convolution becomes
GEMM with the (No, Ni*K*K) filter matrix; ``col2im`` scatters the matrix
back (with overlap accumulation) for the backward pass.

On SW26010 both are pure data-movement kernels with irregular access, so
the paper implements them with per-CPE DMA: each CPE reads whole input rows
into LDM (contiguous, length Ci), applies padding, and writes K*K shifted
copies back (strided, block length ~Co). The plans below price exactly that
pattern against the Fig. 2 DMA model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError, ShapeError
from repro.kernels.plan import KernelPlan, PlanCost
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


def im2col(x: np.ndarray, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Unroll one multi-channel image into the GEMM operand matrix.

    Parameters
    ----------
    x:
        Input of shape ``(C, H, W)``.
    k:
        Square filter size.
    stride, pad:
        Convolution stride and zero padding.

    Returns
    -------
    Matrix of shape ``(C * k * k, Ho * Wo)`` where row ``c*k*k + i*k + j``
    holds the input pixel at offset ``(i, j)`` inside each window (the
    Caffe layout).
    """
    if x.ndim != 3:
        raise ShapeError(f"im2col expects (C, H, W), got {x.shape}")
    c, h, w = x.shape
    ho = conv_out_dim(h, k, stride, pad)
    wo = conv_out_dim(w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    # windows: (C, H', W', k, k); subsample by stride, then reorder to
    # (C, k, k, Ho, Wo).
    windows = windows[:, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * k * k, ho * wo)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    shape: tuple[int, int, int],
    k: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col` with overlap accumulation.

    Entries that came from the same input pixel (overlapping windows) are
    summed — the adjoint operation needed by convolution backward.
    """
    c, h, w = shape
    ho = conv_out_dim(h, k, stride, pad)
    wo = conv_out_dim(w, k, stride, pad)
    if cols.shape != (c * k * k, ho * wo):
        raise ShapeError(
            f"col2im input {cols.shape} does not match expected "
            f"({c * k * k}, {ho * wo})"
        )
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    blocks = cols.reshape(c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += blocks[
                :, i, j
            ]
    if pad:
        return np.ascontiguousarray(xp[:, pad : pad + h, pad : pad + w])
    return xp


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


class Im2colPlan(_TransformPlanBase):
    """DMA plan for the forward unroll (read rows, write K*K lines)."""

    name = "im2col"

    def cost(self) -> PlanCost:
        return self._movement_cost()

    def run(self, x: np.ndarray) -> np.ndarray:
        """Functional im2col for a single image."""
        return im2col(x, self.k, self.stride, self.pad)

    def run_staged(self, x: np.ndarray) -> np.ndarray:
        """Execute the Fig. 4 per-row DMA schedule against the model.

        Each CPE reads one input row into its LDM buffer (DMA get), applies
        padding, and writes the K*K shifted line segments back (strided DMA
        put) — exactly the paper's plan. Numerically identical to
        :func:`im2col`; charges the core group's clock and enforces the
        LDM row-buffer budget. Used by fidelity tests.
        """
        if x.shape != (self.channels, self.height, self.width):
            raise ShapeError(
                f"input {x.shape} != ({self.channels}, {self.height}, {self.width})"
            )
        k, s, p = self.k, self.stride, self.pad
        out = np.zeros(
            (self.channels * k * k, self.out_h * self.out_w), dtype=x.dtype
        )
        dma = self.core_group.dma
        ldm = self.core_group.cpes[0].ldm
        padded_w = self.width + 2 * p
        row_buf_bytes = padded_w * self.dtype_bytes
        ldm.require("im2col/row", row_buf_bytes)
        try:
            # Rows are distributed over the 64 CPEs; we execute them
            # sequentially but charge concurrent 64-CPE transfers per wave.
            for c in range(self.channels):
                for r in range(self.height):
                    row = dma.get(x[c, r], n_cpes=64, block_bytes=row_buf_bytes)
                    padded = np.zeros(padded_w, dtype=x.dtype)
                    padded[p : p + self.width] = row
                    # This input row lands in output rows (c, ki, kj) at the
                    # window positions whose ki-th row is r.
                    for ki in range(k):
                        oy, rem = divmod(r + p - ki, s)
                        if rem or not (0 <= oy < self.out_h):
                            continue
                        for kj in range(k):
                            cols = padded[kj : kj + s * self.out_w : s]
                            dst_row = (c * k + ki) * k + kj
                            dst = out[dst_row, oy * self.out_w : (oy + 1) * self.out_w]
                            dma.put(
                                cols, dst, n_cpes=64,
                                block_bytes=self.out_w * self.dtype_bytes,
                            )
        finally:
            ldm.free_buffer("im2col/row")
        return out


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

    def run(self, cols: np.ndarray) -> np.ndarray:
        """Functional col2im for a single image."""
        return col2im(
            cols,
            (self.channels, self.height, self.width),
            self.k,
            self.stride,
            self.pad,
        )
