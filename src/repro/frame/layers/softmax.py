"""Softmax and softmax-with-loss layers."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax for (B, C) inputs."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class SoftmaxLayer(Layer):
    """Plain softmax over the channel axis of (B, C) inputs."""

    type = "Softmax"

    def __init__(self, name: str, params=None) -> None:
        super().__init__(name, params)
        self._probs: np.ndarray | None = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        if len(bottom[0].shape) != 2:
            raise ShapeError(f"{self.name}: softmax expects (B, C) input")

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape(bottom[0].shape)
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        self._probs = stable_softmax(bottom[0].data.astype(np.float64))
        top[0].data = self._probs.astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        p = self._probs
        dy = top[0].diff.astype(np.float64)
        dot = (dy * p).sum(axis=1, keepdims=True)
        bottom[0].diff = bottom[0].diff + p * (dy - dot)

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(4.0)

    def sw_backward_cost(self) -> PlanCost:
        return self.sw_forward_cost() if self.propagate_down else PlanCost()


class SoftmaxWithLossLayer(Layer):
    """Fused softmax + multinomial cross-entropy (Caffe's training head).

    Bottoms: ``[logits (B, C), labels (B,)]``. Top: scalar loss. Backward
    writes ``(p - onehot) / B`` into the logits diff — it owns the gradient
    seed, so the net calls it first in the backward sweep.
    """

    type = "SoftmaxWithLoss"

    def __init__(self, name: str, params=None) -> None:
        super().__init__(name, params)
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self.is_loss = True

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 2, self.type)
        if len(bottom[0].shape) != 2:
            raise ShapeError(f"{self.name}: logits must be (B, C)")
        if len(bottom[1].shape) != 1 or bottom[1].shape[0] != bottom[0].shape[0]:
            raise ShapeError(
                f"{self.name}: labels shape {bottom[1].shape} does not match "
                f"logits {bottom[0].shape}"
            )

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape((1,))
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        logits = bottom[0].data.astype(np.float64)
        labels = bottom[1].data.astype(np.int64)
        p = stable_softmax(logits)
        self._probs, self._labels = p, labels
        b = logits.shape[0]
        nll = -np.log(np.clip(p[np.arange(b), labels], 1e-30, None))
        top[0].data = np.array([nll.mean()], dtype=np.float32)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        p, labels = self._probs, self._labels
        b = p.shape[0]
        grad = p.copy()
        grad[np.arange(b), labels] -= 1.0
        grad /= b
        # The net seeds the loss blob's diff with the loss weight (1.0).
        loss_weight = float(top[0].diff[0])
        bottom[0].diff = bottom[0].diff + grad * loss_weight

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(5.0)

    def sw_backward_cost(self) -> PlanCost:
        return self.stream_cost(2.0)
