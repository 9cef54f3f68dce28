"""Batch normalization layer.

The paper replaces AlexNet's LRN with BN ("we adopt some refinements to
AlexNet without affecting the accuracy by changing the local response
normalization (LRN) to batch normalization (BN)"). Unlike Caffe, which
splits BatchNorm and Scale into two layers, this implementation fuses the
learnable scale/shift into one layer for clarity; the arithmetic is
identical.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class BatchNormLayer(Layer):
    """Per-channel batch normalization with learnable scale and shift."""

    type = "BatchNorm"

    def __init__(
        self, name: str, eps: float = 1e-5, momentum: float = 0.9, params=None
    ) -> None:
        super().__init__(name, params)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma: Blob | None = None
        self.beta: Blob | None = None
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None
        self._cache = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        if len(bottom[0].shape) not in (2, 4):
            raise ShapeError(f"{self.name}: BN input must be 2D or 4D")

    def _channels(self, shape: tuple[int, ...]) -> int:
        return shape[1]

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        c = self._channels(bottom[0].shape)
        if self.gamma is None:
            self.gamma = self.add_param("gamma", np.ones(c, dtype=np.float32), decay_mult=0.0)
            self.beta = self.add_param("beta", np.zeros(c, dtype=np.float32), decay_mult=0.0)
            self.running_mean = np.zeros(c, dtype=np.float64)
            self.running_var = np.ones(c, dtype=np.float64)
        top[0].reshape(bottom[0].shape)
        self._count = bottom[0].count

    @staticmethod
    def _axes(ndim: int) -> tuple[int, ...]:
        return (0,) if ndim == 2 else (0, 2, 3)

    @staticmethod
    def _bshape(ndim: int) -> tuple[int, ...]:
        return (1, -1) if ndim == 2 else (1, -1, 1, 1)

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data.astype(np.float64)
        axes = self._axes(x.ndim)
        bs = self._bshape(x.ndim)
        if self.phase == "train":
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean.reshape(bs)) * inv_std.reshape(bs)
        self._cache = (xhat, inv_std)
        y = self.gamma.data.reshape(bs) * xhat + self.beta.data.reshape(bs)
        top[0].data = y.astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        xhat, inv_std = self._cache
        dy = top[0].diff.astype(np.float64)
        axes = self._axes(dy.ndim)
        bs = self._bshape(dy.ndim)
        m = dy.size / dy.shape[1]
        self.gamma.diff = self.gamma.diff + (dy * xhat).sum(axis=axes)
        self.beta.diff = self.beta.diff + dy.sum(axis=axes)
        if not self.propagate_down:
            return
        g = self.gamma.data.astype(np.float64).reshape(bs)
        dxhat = dy * g
        if self.phase == "train":
            # Full training-mode gradient (mean/var depend on x).
            dx = (
                inv_std.reshape(bs)
                / m
                * (
                    m * dxhat
                    - dxhat.sum(axis=axes).reshape(bs)
                    - xhat * (dxhat * xhat).sum(axis=axes).reshape(bs)
                )
            )
        else:
            dx = dxhat * inv_std.reshape(bs)
        bottom[0].diff = bottom[0].diff + dx

    def sw_forward_cost(self) -> PlanCost:
        # Two passes: statistics, then normalize (read x twice, write once).
        return self.stream_cost(2.0, n_outputs=0) + self.stream_cost(4.0)

    def sw_backward_cost(self) -> PlanCost:
        return self.stream_cost(8.0)
