"""Dropout layer (inverted dropout, Caffe semantics)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost
from repro.utils.rng import FillLedger, fill_ledger


class DropoutLayer(Layer):
    """Zero a random fraction during training; identity at test time."""

    type = "Dropout"

    def __init__(
        self,
        name: str,
        ratio: float = 0.5,
        rng: np.random.Generator | FillLedger | None = None,
        params=None,
    ) -> None:
        super().__init__(name, params)
        if not 0.0 <= ratio < 1.0:
            raise ShapeError(f"{name}: dropout ratio must be in [0, 1), got {ratio}")
        self.ratio = float(ratio)
        #: Masks draw after every weight fill queued on the same ledger.
        self._fills = fill_ledger(rng)
        self._mask: np.ndarray | None = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape(bottom[0].shape)
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data
        if self.phase == "train" and self.ratio > 0:
            keep = 1.0 - self.ratio
            self._mask = (self._fills.generator().random(x.shape) < keep) / keep
            top[0].data = (x * self._mask).astype(x.dtype)
        else:
            self._mask = None
            top[0].data = x.copy()

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        dy = top[0].diff
        grad = dy * self._mask if self._mask is not None else dy
        bottom[0].diff = bottom[0].diff + grad

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(2.0)

    def sw_backward_cost(self) -> PlanCost:
        if not self.propagate_down:
            return PlanCost()
        return self.stream_cost(1.0)
