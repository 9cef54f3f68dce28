"""Frequency-domain convolution plan — the road *not* taken (Sec. IV-B).

The paper notes that GPU stacks use both time-domain (GEMM) and
frequency-domain (FFT) convolution, and chooses time-domain for SW26010
"because GEMM operations can be perfectly optimized on CPE cluster with
the register-level communication". This plan prices the alternative so
the choice can be evaluated rather than asserted: an SW26010 cost model
for its three phases (forward transforms, pointwise complex
multiply-accumulate, inverse transform). FFT butterflies are
bandwidth-hungry (O(N log N) passes of low arithmetic intensity) and their
working sets (complex, image-sized) blow the 64 KiB LDM, forcing spill
traffic — which is why the autotuner never picks this plan for the
paper's layer shapes (see ``tests/test_conv_fft.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.kernels.im2col import conv_out_dim
from repro.kernels.plan import KernelPlan, PlanCost


class FFTConvPlan(KernelPlan):
    """FFT-based convolution on one core group.

    Same constructor signature as the other conv plans. Only stride 1 is
    supported (the standard limitation of FFT convolution).
    """

    name = "fft"

    #: Sustained fraction of peak for butterfly stages: very low on
    #: SW26010 — no FMA balance, bit-reversed strided access (violating
    #: Principle 3's 256 B block rule), complex shuffles, and no
    #: single-precision register communication.
    butterfly_efficiency = 0.05
    #: Sustained fraction of peak for the pointwise phase: per-frequency
    #: (B x Ni) @ (Ni x No) micro-GEMMs whose contraction dim is only Ni
    #: *per frequency* — the small-k regime of the main GEMM model, with
    #: no register-communication reuse across frequencies.
    pointwise_efficiency = 0.12

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
        params=None,
    ) -> None:
        super().__init__(params)
        if stride != 1:
            raise PlanError("FFT convolution supports stride 1 only")
        if min(batch, ni, no, height, width, k) <= 0:
            raise PlanError("conv dims must be positive")
        self.batch = int(batch)
        self.ni = int(ni)
        self.no = int(no)
        self.height = int(height)
        self.width = int(width)
        self.k = int(k)
        self.stride = 1
        self.pad = int(pad)
        self.dtype_bytes = int(dtype_bytes)
        self.out_h = conv_out_dim(height, k, 1, pad)
        self.out_w = conv_out_dim(width, k, 1, pad)
        # FFT size: next power of two covering image + kernel - 1.
        need = max(self.height + 2 * self.pad, self.width + 2 * self.pad) + k - 1
        size = 1
        while size < need:
            size *= 2
        self.fft_size = size

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def cost_forward(self) -> PlanCost:
        """Three phases: FFT(inputs + filters), pointwise MAC, inverse FFT."""
        s = self.fft_size
        s2 = float(s * s)
        log_s2 = 2.0 * np.log2(s)
        # Transforms: batch*Ni input images + No*Ni filters + batch*No outputs.
        n_transforms = self.batch * self.ni + self.no * self.ni + self.batch * self.no
        butterfly_flops = 5.0 * s2 * log_s2 * n_transforms
        # Pointwise: complex MAC over Ni for each (batch, No) spectrum.
        pointwise_flops = 8.0 * s2 * self.batch * self.no * self.ni
        flops = butterfly_flops + pointwise_flops
        compute_s = butterfly_flops / (
            self._cg.peak_flops * self.butterfly_efficiency
        ) + pointwise_flops / (self._cg.peak_flops * self.pointwise_efficiency)
        # Spectra are complex (2x) and padded to the FFT grid; each
        # butterfly pass streams the working set when it exceeds LDM.
        spectrum_bytes = 2.0 * s2 * self.dtype_bytes
        per_cpe_ws = spectrum_bytes / self.params.n_cpes_per_cg
        passes = log_s2 if per_cpe_ws > self.params.ldm_bytes / 2 else 1.0
        dma_bytes = n_transforms * spectrum_bytes * passes + (
            self.batch * self.no * self.ni / 64.0  # accumulation re-reads
        ) * spectrum_bytes
        dma_s = self._cg.dma.bulk_time(dma_bytes, block_bytes=s * self.dtype_bytes)
        return PlanCost(
            compute_s=compute_s, dma_s=dma_s, flops=flops, dma_bytes=dma_bytes
        )

    def cost(self) -> PlanCost:
        return self.cost_forward()
