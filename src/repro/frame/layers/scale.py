"""Scale layer: per-channel learnable scale and optional bias.

Caffe pairs this with its stats-only BatchNorm layer; our BatchNorm fuses
the affine transform, but Scale remains useful standalone (e.g. ResNet
variants, feature recalibration) and keeps the layer zoo Caffe-complete.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class ScaleLayer(Layer):
    """y = scale[c] * x (+ bias[c]) over the channel axis."""

    type = "Scale"

    def __init__(self, name: str, bias: bool = True, params=None) -> None:
        super().__init__(name, params)
        self.use_bias = bool(bias)
        self.scale: Blob | None = None
        self.bias: Blob | None = None
        self._x_cache: np.ndarray | None = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        if len(bottom[0].shape) not in (2, 4):
            raise ShapeError(f"{self.name}: Scale input must be 2D or 4D")

    @staticmethod
    def _bshape(ndim: int) -> tuple[int, ...]:
        return (1, -1) if ndim == 2 else (1, -1, 1, 1)

    @staticmethod
    def _axes(ndim: int) -> tuple[int, ...]:
        return (0,) if ndim == 2 else (0, 2, 3)

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        c = bottom[0].shape[1]
        if self.scale is None:
            self.scale = self.add_param("scale", np.ones(c, dtype=np.float32), decay_mult=0.0)
            if self.use_bias:
                self.bias = self.add_param("bias", np.zeros(c, dtype=np.float32), decay_mult=0.0)
        top[0].reshape(bottom[0].shape)
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data
        self._x_cache = x
        bs = self._bshape(x.ndim)
        y = x * self.scale.data.reshape(bs)
        if self.bias is not None:
            y = y + self.bias.data.reshape(bs)
        top[0].data = y.astype(x.dtype, copy=False)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        dy = top[0].diff.astype(np.float64)
        x = self._x_cache
        axes = self._axes(dy.ndim)
        bs = self._bshape(dy.ndim)
        self.scale.diff = self.scale.diff + (dy * x).sum(axis=axes)
        if self.bias is not None:
            self.bias.diff = self.bias.diff + dy.sum(axis=axes)
        if self.propagate_down:
            bottom[0].diff = bottom[0].diff + dy * self.scale.data.reshape(bs)

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(2.0)

    def sw_backward_cost(self) -> PlanCost:
        return self.stream_cost(3.0, n_inputs=2)
