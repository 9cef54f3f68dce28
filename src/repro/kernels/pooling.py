"""Pooling kernel plan (Sec. IV-D).

Pooling is pure memory movement with a trivial max/avg reduction, so the
SW26010 implementation is all about DMA strategy (Principle 3): each CPE
handles several K-row strips of the image when they fit in LDM, otherwise
falls back to strided column loads — which this plan prices accordingly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError, ShapeError
from repro.kernels.im2col import conv_out_dim
from repro.kernels.plan import KernelPlan, PlanCost
from repro.hw.spec import SW26010Params


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.where(mask, a, b)`` for floats of one dtype, as a bitwise blend:
    ``where`` branches per element, several times slower on a random mask."""
    bits = b.view(f"i{b.dtype.itemsize}")
    return (bits ^ ((bits ^ a.view(bits.dtype)) & -mask.astype(bits.dtype))).view(b.dtype)


class PoolingPlan(KernelPlan):
    """Max/average pooling on one core group."""

    name = "pooling"

    def __init__(
        self,
        batch: int,
        channels: int,
        height: int,
        width: int,
        k: int,
        stride: int | None = None,
        pad: int = 0,
        mode: str = "max",
        dtype_bytes: int = 4,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(params)
        if min(batch, channels, height, width, k) <= 0:
            raise PlanError("pooling dims must be positive")
        if mode not in ("max", "avg"):
            raise PlanError(f"pooling mode must be 'max' or 'avg', got {mode!r}")
        self.batch = int(batch)
        self.channels = int(channels)
        self.height = int(height)
        self.width = int(width)
        self.k = int(k)
        self.stride = int(stride if stride is not None else k)
        self.pad = int(pad)
        self.mode = mode
        self.dtype_bytes = int(dtype_bytes)
        if self.stride <= 0 or not 0 <= self.pad < self.k:  # Caffe: CHECK_LT(pad, kernel)
            raise PlanError(f"pooling needs stride > 0 and 0 <= pad < k={k}, "
                            f"got stride={self.stride}, pad={pad}")
        self.out_h = conv_out_dim(height, self.k, self.stride, pad)
        self.out_w = conv_out_dim(width, self.k, self.stride, pad)

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def _rows_fit_ldm(self) -> bool:
        """Whether K whole image rows fit in one CPE's LDM."""
        return self.k * self.width * self.dtype_bytes <= self.params.ldm_bytes // 2

    def cost(self) -> PlanCost:
        """Read the input once, write the output once; compare/accumulate."""
        in_bytes = float(
            self.batch * self.channels * self.height * self.width * self.dtype_bytes
        )
        out_bytes = float(
            self.batch * self.channels * self.out_h * self.out_w * self.dtype_bytes
        )
        if self._rows_fit_ldm():
            # Whole rows stream contiguously.
            block = self.width * self.dtype_bytes
        else:
            # Column-block fallback: strided access with short runs.
            block = max(
                64, (self.params.ldm_bytes // (2 * self.k * self.dtype_bytes))
            ) * self.dtype_bytes // 8
        dma_s = self._cg.dma.bulk_time(in_bytes, block_bytes=block) + self._cg.dma.bulk_time(
            out_bytes, block_bytes=self.out_w * self.dtype_bytes
        )
        flops = float(self.batch * self.channels * self.out_h * self.out_w * self.k * self.k)
        compute_s = flops / (self._cg.peak_flops * 0.25)
        return PlanCost(
            compute_s=compute_s,
            dma_s=dma_s,
            flops=flops,
            dma_bytes=in_bytes + out_bytes,
        )

    # ------------------------------------------------------------------ #
    # functional
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pool (B, C, H, W) -> (B, C, Ho, Wo).

        Returns ``(output, argmax)`` where ``argmax`` holds the flat window
        index of each selected element (used by max-pooling backward; for
        average pooling it is an empty array).
        """
        if x.shape != (self.batch, self.channels, self.height, self.width):
            raise ShapeError(
                f"input shape {x.shape} != "
                f"{(self.batch, self.channels, self.height, self.width)}"
            )
        pad_val = -np.inf if self.mode == "max" else 0.0
        xp = (
            np.pad(
                x,
                ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)),
                constant_values=pad_val,
            )
            if self.pad
            else x
        )
        if self.mode == "max":
            # As argmax: the first maximum wins; a NaN beats all but an earlier NaN.
            out = self._tap(xp, 0).copy()
            arg = np.zeros(out.shape, dtype=np.intp)
            for t in range(1, self.k * self.k):
                tap = self._tap(xp, t)
                better = ~(tap <= out) & (out == out)
                out = _select(better, tap, out)
                np.maximum(arg, better * t, out=arg)  # t exceeds every earlier tap
            return out, arg
        s = self.stride
        windows = np.lib.stride_tricks.sliding_window_view(xp, (self.k, self.k), axis=(2, 3))
        windows = windows[:, :, ::s, ::s, :, :]
        windows = windows[:, :, : self.out_h, : self.out_w]
        flat = windows.reshape(*windows.shape[:4], self.k * self.k)
        out = flat.mean(axis=-1)
        return np.ascontiguousarray(out), np.empty(0, dtype=np.int64)

    def _tap(self, xp: np.ndarray, t: int) -> np.ndarray:
        """The strided view of padded ``xp`` that window tap ``t`` reads."""
        i, j = divmod(t, self.k)
        s = self.stride
        return xp[:, :, i : i + s * self.out_h : s, j : j + s * self.out_w : s]

    def backward(self, x: np.ndarray, dy: np.ndarray, argmax: np.ndarray) -> np.ndarray:
        """Scatter output gradients back through the pooling windows."""
        if dy.shape != (self.batch, self.channels, self.out_h, self.out_w):
            raise ShapeError(
                f"dy shape {dy.shape} != "
                f"{(self.batch, self.channels, self.out_h, self.out_w)}"
            )
        hp = self.height + 2 * self.pad
        wp = self.width + 2 * self.pad
        dxp = np.zeros((self.batch, self.channels, hp, wp), dtype=dy.dtype)
        s = self.stride
        if self.mode == "max":
            # Descending taps add to each input in increasing (oh, ow) window
            # order; the +0 added where unselected is exact (dxp never holds -0).
            zero = np.zeros_like(dy)
            for t in reversed(range(self.k * self.k)):
                self._tap(dxp, t)[...] += _select(argmax == t, dy, zero)
        else:
            share = dy / (self.k * self.k)
            for i in range(self.k):
                for j in range(self.k):
                    dxp[:, :, i : i + s * self.out_h : s, j : j + s * self.out_w : s] += share
        if self.pad:
            return np.ascontiguousarray(
                dxp[:, :, self.pad : self.pad + self.height, self.pad : self.pad + self.width]
            )
        return dxp
