"""Local response normalization (across channels), original AlexNet style.

Kept alongside BatchNorm so the harness can build both the original AlexNet
and the paper's BN refinement.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class LRNLayer(Layer):
    """y = x / (k + alpha/n * sum_{window} x^2)^beta across channels."""

    type = "LRN"

    def __init__(
        self,
        name: str,
        local_size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 1.0,
        params=None,
    ) -> None:
        super().__init__(name, params)
        if local_size % 2 == 0 or local_size <= 0:
            raise ShapeError(f"{name}: local_size must be odd and positive")
        self.local_size = int(local_size)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.k = float(k)
        self._cache = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        if len(bottom[0].shape) != 4:
            raise ShapeError(f"{self.name}: LRN input must be 4D")

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape(bottom[0].shape)
        self._count = bottom[0].count

    def _window_sums(self, sq: np.ndarray) -> np.ndarray:
        """Sliding cross-channel sums of x^2 with a centered window."""
        b, c, h, w = sq.shape
        half = self.local_size // 2
        padded = np.zeros((b, c + 2 * half, h, w), dtype=sq.dtype)
        padded[:, half : half + c] = sq
        csum = np.cumsum(padded, axis=1)
        zeros = np.zeros((b, 1, h, w), dtype=sq.dtype)
        csum = np.concatenate([zeros, csum], axis=1)
        return csum[:, self.local_size :] - csum[:, : c]

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data.astype(np.float64)
        sums = self._window_sums(x * x)
        scale = self.k + (self.alpha / self.local_size) * sums
        y = x * scale ** (-self.beta)
        self._cache = (x, scale, y)
        top[0].data = y.astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        x, scale, y = self._cache
        dy = top[0].diff.astype(np.float64)
        # dx_i = dy_i * scale_i^-beta
        #        - 2 alpha beta / n * x_i * sum_{j: i in win(j)} dy_j y_j / scale_j
        ratio = dy * y / scale
        # The adjoint of the centered window sum is itself a centered window sum.
        win = self._window_sums_adjoint(ratio)
        dx = dy * scale ** (-self.beta) - (
            2.0 * self.alpha * self.beta / self.local_size
        ) * x * win
        bottom[0].diff = bottom[0].diff + dx

    def _window_sums_adjoint(self, v: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`_window_sums`: also a centered window sum."""
        return self._window_sums(v)

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(2.0 * self.local_size)

    def sw_backward_cost(self) -> PlanCost:
        if not self.propagate_down:
            return PlanCost()
        return self.stream_cost(3.0 * self.local_size, n_inputs=3)
