"""Implicit-GEMM convolution plan (Sec. IV-B2, from swDNN [4]).

Instead of materializing the im2col matrix, the implicit scheme blocks the
convolution over image width and input/output channels so filter and image
tiles are reused directly from LDM, with the register-communication GEMM
micro-kernel running on (Ni-block x No-block) panels. This removes the
im2col/col2im traffic entirely — the dominant cost of the explicit plan —
but its SIMD/RLC micro-kernel vectorizes over channels, so it *requires*
reasonably large channel counts:

* forward needs ``Ni >= 64 and No >= 64`` (the paper: "when the input and
  output filter channel numbers are smaller than 64, performance ... would
  largely degrade"; with Ni=3 it cannot run at all);
* both backward directions need ``min(Ni, No) >= 128`` (Table II's missing
  implicit entries for conv1_2 and conv2_1 backward).

Data layout is (R, C, N, B) with filters (K, K, No, Ni); the
tensor-transformation layer (Sec. IV-C) converts at the boundaries.

Padding is handled by coordinate mapping, not a physical pad (the paper's
padding optimization), so no extra traffic is charged for it.

:meth:`ImplicitConvPlan.tile_walk` walks the blocked schedule without data.
On images up to 256 rows tall it moves at most the bytes the Table
II-calibrated formula prices (``docs/calibration.md`` says why the two
differ).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import PlanError
from repro.kernels.im2col import conv_out_dim
from repro.kernels.plan import KernelPlan, PlanCost, Transfer, work_saturation
from repro.hw.spec import SW26010Params

#: Minimum channels for the implicit micro-kernel to run at all (forward).
MIN_CHANNELS_FORWARD = 64
#: Minimum channels for the backward micro-kernels.
MIN_CHANNELS_BACKWARD = 128


class ImplicitConvPlan(KernelPlan):
    """Direct (im2col-free) convolution on one core group.

    Same constructor signature as
    :class:`~repro.kernels.conv_explicit.ExplicitConvPlan` so the autotuner
    can instantiate both interchangeably.
    """

    name = "implicit"

    #: Peak fraction the implicit micro-kernel reaches with saturated
    #: channel and batch blocking (calibrated to Table II's ~400+ Gflops
    #: plateau at batch 128).
    peak_efficiency = 0.59
    #: Channel count at which the micro-kernel reaches half its peak
    #: efficiency (Hill curve on the geometric-mean channel count).
    channel_half = 85.0
    #: The implicit (R, C, N, B) layout vectorizes its innermost loads over
    #: the batch axis; small per-CG batches starve the SIMD lanes (the
    #: reason ResNet-50 at sub-mini-batch 32, i.e. 8 images per CG, runs
    #: far below VGG's efficiency in Table III).
    batch_half = 56.0
    #: Efficiency multipliers for the backward directions (Table II shows
    #: weight-gradient slightly faster, input-gradient slightly slower).
    weight_grad_factor = 1.15
    input_grad_factor = 0.95

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
        if not self.supports_forward(ni, no):
            raise PlanError(
                f"implicit plan needs Ni,No >= {MIN_CHANNELS_FORWARD} "
                f"(got Ni={ni}, No={no}); use the explicit plan"
            )

    # ------------------------------------------------------------------ #
    # availability rules
    # ------------------------------------------------------------------ #
    @staticmethod
    def supports_forward(ni: int, no: int) -> bool:
        """Whether the forward micro-kernel exists for these channels."""
        return ni >= MIN_CHANNELS_FORWARD and no >= MIN_CHANNELS_FORWARD

    @staticmethod
    def supports_backward(ni: int, no: int) -> bool:
        """Whether the backward micro-kernels exist for these channels."""
        return min(ni, no) >= MIN_CHANNELS_BACKWARD

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    @property
    def flops(self) -> float:
        """MACs x2 for the whole invocation."""
        return (
            2.0
            * self.batch
            * self.no
            * self.ni
            * self.k
            * self.k
            * self.out_h
            * self.out_w
        )

    def _efficiency(self) -> float:
        """Hill curve in the geometric-mean channel count.

        Matches the Table II trend: ~110 Gflops at 64 channels rising to a
        ~400 Gflops plateau at 512 channels.
        """
        c = float(np.sqrt(self.ni * self.no))
        h2 = self.channel_half**2
        f_channel = c * c / (c * c + h2)
        f_batch = self.batch / (self.batch + self.batch_half)
        return self.peak_efficiency * f_channel * f_batch

    def _traffic_bytes(self) -> float:
        """DRAM traffic: input re-read per output-channel block, output
        written once, filters re-read per width block."""
        no_block = min(self.no, 128)
        w_block = max(1, min(self.out_w, 64))
        in_bytes = (
            self.batch * self.ni * self.height * self.width * self.dtype_bytes
        ) * np.ceil(self.no / no_block)
        out_bytes = self.batch * self.no * self.out_h * self.out_w * self.dtype_bytes
        filt_bytes = (
            self.no * self.ni * self.k * self.k * self.dtype_bytes
        ) * np.ceil(self.out_w / w_block) * self.batch
        return float(in_bytes + out_bytes + filt_bytes)

    def _direction_cost(self, eff_factor: float) -> PlanCost:
        flops = self.flops
        eff = self._efficiency() * eff_factor * work_saturation(flops)
        compute_s = flops / (self._cg.peak_flops * eff)
        dma_bytes = self._traffic_bytes()
        # Implicit blocks read rows of the (R, C, N, B) layout: contiguous
        # runs of the batch dimension.
        block = max(64, self.batch * self.dtype_bytes)
        dma_s = self._cg.dma.bulk_time(dma_bytes, block_bytes=block)
        return PlanCost(
            compute_s=compute_s, dma_s=dma_s, flops=flops, dma_bytes=dma_bytes
        )

    def cost_forward(self) -> PlanCost:
        """Forward pass cost."""
        return self._direction_cost(1.0)

    def cost_backward_weight(self) -> PlanCost:
        """Weight-gradient cost; raises if channels are too small."""
        if not self.supports_backward(self.ni, self.no):
            raise PlanError(
                f"implicit weight-gradient needs min(Ni,No) >= "
                f"{MIN_CHANNELS_BACKWARD} (got Ni={self.ni}, No={self.no})"
            )
        return self._direction_cost(self.weight_grad_factor)

    def cost_backward_input(self) -> PlanCost:
        """Input-gradient cost; raises if channels are too small."""
        if not self.supports_backward(self.ni, self.no):
            raise PlanError(
                f"implicit input-gradient needs min(Ni,No) >= "
                f"{MIN_CHANNELS_BACKWARD} (got Ni={self.ni}, No={self.no})"
            )
        return self._direction_cost(self.input_grad_factor)

    def cost(self) -> PlanCost:
        """Forward cost (the autotuner prices directions separately)."""
        return self.cost_forward()

    # ------------------------------------------------------------------ #
    # tile walk
    # ------------------------------------------------------------------ #
    def tile_walk(self) -> Iterator[Transfer]:
        """The blocked forward schedule's DMA transfers, moving no data.

        Input is laid out (R, C, Ni, B), filters (K, K, No, Ni) and output
        (Ro, Co, No, B). Per output-channel block the filter tile is read
        once; per output-width block the input columns it needs are read,
        halo included (padding is mapped by coordinate, never moved), and
        the output block is written. Activations move in contiguous runs
        of the batch, as the formula prices them. The transfers stream
        through LDM in granules, so none declares a resident tile.
        """
        d, s, p = self.dtype_bytes, self.stride, self.pad
        no_block = min(self.no, 128)
        w_block = max(1, min(self.out_w, 64))
        run = self.batch * d
        for no0 in range(0, self.no, no_block):
            nob = min(no_block, self.no - no0)
            filt_run = None if nob == self.no else nob * self.ni * d
            yield Transfer(self.k * self.k * nob * self.ni * d, filt_run)
            for ow0 in range(0, self.out_w, w_block):
                ow = min(w_block, self.out_w - ow0)
                lo = max(ow0 * s - p, 0)
                hi = min((ow0 + ow - 1) * s + self.k - p, self.width)
                if hi > lo:
                    yield Transfer(self.height * (hi - lo) * self.ni * run, run)
                yield Transfer(self.out_h * ow * nob * run, run)
