"""ReLU activation layer (bandwidth-bound on SW26010)."""

from __future__ import annotations

import numpy as np

from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class ReLULayer(Layer):
    """y = max(x, 0), with optional leaky negative slope."""

    type = "ReLU"

    def __init__(self, name: str, negative_slope: float = 0.0, params=None) -> None:
        super().__init__(name, params)
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape(bottom[0].shape)
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data
        self._mask = x > 0
        if self.negative_slope:
            top[0].data = np.where(self._mask, x, self.negative_slope * x)
        else:
            top[0].data = np.where(self._mask, x, 0.0)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        dy = top[0].diff
        grad = np.where(self._mask, dy, self.negative_slope * dy)
        bottom[0].diff = bottom[0].diff + grad

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(1.0)

    def sw_backward_cost(self) -> PlanCost:
        return self.stream_cost(1.0) if self.propagate_down else PlanCost()
