"""Additional activation layers from the Caffe zoo.

Sigmoid, TanH, ELU and Power — all bandwidth-bound streaming kernels on
SW26010, priced like ReLU through :meth:`Layer.stream_cost`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class _StreamingActivation(Layer):
    """Shared wiring for unary elementwise activations."""

    flops_per_element = 4.0

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape(bottom[0].shape)
        self._count = bottom[0].count

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(self.flops_per_element)

    def sw_backward_cost(self) -> PlanCost:
        return self.stream_cost(self.flops_per_element) if self.propagate_down else PlanCost()


class SigmoidLayer(_StreamingActivation):
    """y = 1 / (1 + exp(-x))."""

    type = "Sigmoid"

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        y = 1.0 / (1.0 + np.exp(-bottom[0].data.astype(np.float64)))
        self._y = y
        top[0].data = y.astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        y = self._y
        bottom[0].diff = bottom[0].diff + top[0].diff * y * (1 - y)


class TanHLayer(_StreamingActivation):
    """y = tanh(x)."""

    type = "TanH"

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        y = np.tanh(bottom[0].data.astype(np.float64))
        self._y = y
        top[0].data = y.astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        bottom[0].diff = bottom[0].diff + top[0].diff * (1 - self._y**2)


class ELULayer(_StreamingActivation):
    """y = x if x > 0 else alpha * (exp(x) - 1)."""

    type = "ELU"

    def __init__(self, name: str, alpha: float = 1.0, params=None) -> None:
        super().__init__(name, params)
        self.alpha = float(alpha)

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data.astype(np.float64)
        self._mask = x > 0
        neg = self.alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
        y = np.where(self._mask, x, neg)
        self._neg = neg
        top[0].data = y.astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        dy = top[0].diff
        grad = np.where(self._mask, dy, dy * (self._neg + self.alpha))
        bottom[0].diff = bottom[0].diff + grad


class PowerLayer(_StreamingActivation):
    """y = (scale * x + shift) ** power (Caffe's Power layer)."""

    type = "Power"

    def __init__(
        self, name: str, power: float = 1.0, scale: float = 1.0,
        shift: float = 0.0, params=None,
    ) -> None:
        super().__init__(name, params)
        self.power = float(power)
        self.scale = float(scale)
        self.shift = float(shift)

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data.astype(np.float64)
        base = self.scale * x + self.shift
        if self.power != 1.0 and np.any(base < 0) and self.power != int(self.power):
            raise ShapeError(
                f"{self.name}: fractional power of negative base"
            )
        self._base = base
        top[0].data = (base**self.power).astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        dy = top[0].diff.astype(np.float64)
        grad = dy * self.power * self.scale * self._base ** (self.power - 1.0)
        bottom[0].diff = bottom[0].diff + grad
