"""Explicit-GEMM convolution plan (Sec. IV-B1).

The original Caffe lowering, re-tuned for SW26010: per image, ``im2col``
unrolls the input, a register-communication GEMM multiplies the filter
matrix against it, and (backward) ``col2im`` folds gradients back. This is
the only plan available when channel counts are too small for the implicit
scheme (e.g. VGG's conv1_1 with Ni=3), and it wins when the unrolled GEMM
gets large well-shaped operands (large images *and* large channels).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError, ShapeError
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Col2imPlan, Im2colPlan, conv_out_dim, im2col, col2im
from repro.kernels.plan import KernelPlan, PlanCost, combine_sequential, work_saturation
from repro.hw.spec import SW26010Params


class ExplicitConvPlan(KernelPlan):
    """im2col + GEMM convolution on one core group.

    Parameters
    ----------
    batch:
        Images processed per invocation (the per-core-group share).
    ni, no:
        Input/output channel counts.
    height, width:
        Input spatial dims.
    k, stride, pad:
        Square filter size, stride, zero padding.
    """

    name = "explicit"

    #: Extra cost factor of the input-gradient direction: col2im's
    #: overlap accumulation is read-modify-write over K*K shifted copies,
    #: and the (K2Ni x HoWo) = W^T dY GEMM runs with a transposed operand.
    #: Table II shows explicit in-diff consistently ~2x the forward time.
    input_grad_penalty = 2.0

    #: Per-image kernel invocation overhead: the explicit plan loops the
    #: batch, and each image pays an athread spawn + LDM/plan setup on the
    #: CPE cluster. Negligible for VGG-sized layers, but it compounds for
    #: networks made of many small convolutions over small feature maps
    #: (ResNet-50, GoogLeNet) — part of why Table III shows them at ~0.2x
    #: of the GPU while VGG reaches ~0.45x.
    spawn_overhead_s = 3.5e-4

    def __init__(
        self,
        batch: int,
        ni: int,
        no: int,
        height: int,
        width: int,
        k: int,
        stride: int = 1,
        pad: int = 0,
        dtype_bytes: int = 4,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(params)
        if min(batch, ni, no, height, width, k, stride) <= 0:
            raise PlanError("conv dims must be positive")
        if pad < 0:
            raise PlanError(f"conv pad must be >= 0, got {pad}")
        self.batch = int(batch)
        self.ni = int(ni)
        self.no = int(no)
        self.height = int(height)
        self.width = int(width)
        self.k = int(k)
        self.stride = int(stride)
        self.pad = int(pad)
        self.dtype_bytes = int(dtype_bytes)
        self.out_h = conv_out_dim(height, k, stride, pad)
        self.out_w = conv_out_dim(width, k, stride, pad)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @property
    def is_1x1(self) -> bool:
        """1x1/stride-1 convolutions skip im2col entirely (Caffe fast path)."""
        return self.k == 1 and self.stride == 1 and self.pad == 0

    @property
    def gemm_k(self) -> int:
        """Contraction dim of the lowered GEMM (K*K*Ni)."""
        return self.k * self.k * self.ni

    @property
    def spatial(self) -> int:
        """Output pixels per image (the GEMM n dimension)."""
        return self.out_h * self.out_w

    def _im2col_plan(self) -> Im2colPlan:
        return Im2colPlan(
            self.ni, self.height, self.width, self.k, self.stride, self.pad,
            self.dtype_bytes, self.params,
        )

    def _col2im_plan(self) -> Col2imPlan:
        return Col2imPlan(
            self.ni, self.height, self.width, self.k, self.stride, self.pad,
            self.dtype_bytes, self.params,
        )

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #
    def _spawn_cost(self) -> PlanCost:
        """Per-image athread spawn/setup overhead for the whole batch."""
        return PlanCost(overhead_s=self.batch * self.spawn_overhead_s)

    @staticmethod
    def _saturate(cost: PlanCost) -> PlanCost:
        """Apply the small-invocation work-saturation penalty to compute."""
        f = work_saturation(cost.flops)
        return PlanCost(
            compute_s=cost.compute_s / f,
            dma_s=cost.dma_s,
            rlc_s=cost.rlc_s,
            overhead_s=cost.overhead_s,
            flops=cost.flops,
            dma_bytes=cost.dma_bytes,
        )

    def cost_forward(self) -> PlanCost:
        """Forward: per image, im2col then (No x K2Ni) @ (K2Ni x HoWo)."""
        gemm = SWGemmPlan(
            self.no, self.spatial, self.gemm_k, self.dtype_bytes, self.params
        )
        phases = [gemm.cost()]
        if not self.is_1x1:
            phases.insert(0, self._im2col_plan().cost())
        per_image = combine_sequential(phases)
        total = combine_sequential([per_image] * self.batch) + self._spawn_cost()
        return self._saturate(total)

    def cost_backward_weight(self) -> PlanCost:
        """dW: per image, im2col (recomputed) then dY @ cols^T."""
        gemm = SWGemmPlan(
            self.no, self.gemm_k, self.spatial, self.dtype_bytes, self.params
        )
        phases = [gemm.cost()]
        if not self.is_1x1:
            phases.insert(0, self._im2col_plan().cost())
        per_image = combine_sequential(phases)
        total = combine_sequential([per_image] * self.batch) + self._spawn_cost()
        return self._saturate(total)

    def cost_backward_input(self) -> PlanCost:
        """dX: per image, W^T @ dY then col2im."""
        gemm = SWGemmPlan(
            self.gemm_k, self.spatial, self.no, self.dtype_bytes, self.params
        )
        phases = [gemm.cost()]
        if not self.is_1x1:
            phases.append(self._col2im_plan().cost())
        per_image = combine_sequential(phases)
        total = self._saturate(
            combine_sequential([per_image] * self.batch) + self._spawn_cost()
        )
        return PlanCost(
            compute_s=total.compute_s * self.input_grad_penalty,
            dma_s=total.dma_s * self.input_grad_penalty,
            rlc_s=total.rlc_s * self.input_grad_penalty,
            overhead_s=total.overhead_s * self.input_grad_penalty,
            flops=total.flops,
            dma_bytes=total.dma_bytes,
        )

    def cost(self) -> PlanCost:
        """Forward cost (the autotuner prices directions separately)."""
        return self.cost_forward()

    # ------------------------------------------------------------------ #
    # functional
    # ------------------------------------------------------------------ #
    def _check_input(self, x: np.ndarray) -> None:
        expected = (self.batch, self.ni, self.height, self.width)
        if x.shape != expected:
            raise ShapeError(f"input shape {x.shape} != {expected}")

    def forward(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
    ) -> np.ndarray:
        """Convolution forward: returns (B, No, Ho, Wo)."""
        self._check_input(x)
        if weight.shape != (self.no, self.ni, self.k, self.k):
            raise ShapeError(
                f"weight shape {weight.shape} != "
                f"{(self.no, self.ni, self.k, self.k)}"
            )
        w_mat = weight.reshape(self.no, self.gemm_k)
        out = np.empty((self.batch, self.no, self.out_h, self.out_w), dtype=x.dtype)
        for b in range(self.batch):
            cols = im2col(x[b], self.k, self.stride, self.pad)
            y = w_mat @ cols
            out[b] = y.reshape(self.no, self.out_h, self.out_w)
        if bias is not None:
            out += bias.reshape(1, self.no, 1, 1)
        return out

    def backward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        dy: np.ndarray,
        *,
        need_input_grad: bool = True,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """Convolution backward: returns (dx, dw, db)."""
        self._check_input(x)
        if dy.shape != (self.batch, self.no, self.out_h, self.out_w):
            raise ShapeError(
                f"dy shape {dy.shape} != "
                f"{(self.batch, self.no, self.out_h, self.out_w)}"
            )
        w_mat = weight.reshape(self.no, self.gemm_k)
        dw = np.zeros_like(w_mat)
        dx = np.zeros_like(x) if need_input_grad else None
        for b in range(self.batch):
            cols = im2col(x[b], self.k, self.stride, self.pad)
            dy_mat = dy[b].reshape(self.no, self.spatial)
            dw += dy_mat @ cols.T
            if need_input_grad:
                dcols = w_mat.T @ dy_mat
                dx[b] = col2im(
                    dcols,
                    (self.ni, self.height, self.width),
                    self.k,
                    self.stride,
                    self.pad,
                )
        db = dy.sum(axis=(0, 2, 3))
        return dx, dw.reshape(weight.shape), db
