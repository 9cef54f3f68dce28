"""Explicit-GEMM convolution plan (Sec. IV-B1).

The original Caffe lowering, re-tuned for SW26010: per image, ``im2col``
unrolls the input, a register-communication GEMM multiplies the filter
matrix against it, and (backward) ``col2im`` folds gradients back. This is
the only plan available when channel counts are too small for the implicit
scheme (e.g. VGG's conv1_1 with Ni=3), and it wins when the unrolled GEMM
gets large well-shaped operands (large images *and* large channels).
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Col2imPlan, Im2colPlan, conv_out_dim
from repro.kernels.plan import (
    KernelPlan,
    PlanCost,
    combine_sequential,
    repeat_sequential,
    work_saturation,
)
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
        total = repeat_sequential(per_image, self.batch) + self._spawn_cost()
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
        total = repeat_sequential(per_image, self.batch) + self._spawn_cost()
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
            repeat_sequential(per_image, self.batch) + self._spawn_cost()
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
