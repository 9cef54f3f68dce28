"""Euclidean (L2) loss layer — Caffe's regression head.

``loss = 1/(2B) * sum ||pred - target||^2`` with gradient
``(pred - target) / B`` into the first bottom (and the negative into the
second, when it needs gradients).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class EuclideanLossLayer(Layer):
    """L2 regression loss over ``[predictions, targets]`` bottoms."""

    type = "EuclideanLoss"

    def __init__(self, name: str, params=None) -> None:
        super().__init__(name, params)
        self.is_loss = True
        self._diff: np.ndarray | None = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 2, self.type)
        if bottom[0].shape != bottom[1].shape:
            raise ShapeError(
                f"{self.name}: prediction shape {bottom[0].shape} != "
                f"target shape {bottom[1].shape}"
            )

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape((1,))
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        b = bottom[0].shape[0]
        diff = bottom[0].data.astype(np.float64) - bottom[1].data.astype(np.float64)
        self._diff = diff
        top[0].data = np.array(
            [0.5 * float(np.sum(diff * diff)) / b], dtype=np.float32
        )

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        b = bottom[0].shape[0]
        loss_weight = float(top[0].diff[0])
        grad = self._diff * (loss_weight / b)
        bottom[0].diff = bottom[0].diff + grad
        # Targets rarely need gradients, but support it (Caffe does).
        if bottom[1].name in getattr(self, "_grad_targets", ()):  # pragma: no cover
            bottom[1].diff = bottom[1].diff - grad

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(3.0, n_inputs=2)

    def sw_backward_cost(self) -> PlanCost:
        return self.stream_cost(1.0)
