"""Channel concatenation layer (GoogLeNet inception joins)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class ConcatLayer(Layer):
    """Concatenate bottoms along ``axis`` (default: channels)."""

    type = "Concat"

    def __init__(self, name: str, axis: int = 1, params=None) -> None:
        super().__init__(name, params)
        self.axis = int(axis)
        self._splits: list[int] = []

    def check_bottom(self, bottom: list[Blob]) -> None:
        if len(bottom) < 1:
            raise ShapeError(f"{self.name}: concat needs at least one bottom")
        ref = bottom[0].shape
        for b in bottom[1:]:
            for ax, (s0, s1) in enumerate(zip(ref, b.shape)):
                if ax != self.axis and s0 != s1:
                    raise ShapeError(
                        f"{self.name}: bottoms disagree off-axis: {ref} vs {b.shape}"
                    )

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        shape = list(bottom[0].shape)
        shape[self.axis] = sum(b.shape[self.axis] for b in bottom)
        top[0].reshape(tuple(shape))
        self._splits = [b.shape[self.axis] for b in bottom]
        self._count = top[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].data = np.concatenate([b.data for b in bottom], axis=self.axis)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        offset = 0
        for b, width in zip(bottom, self._splits):
            index = [slice(None)] * len(top[0].shape)
            index[self.axis] = slice(offset, offset + width)
            b.diff = b.diff + top[0].diff[tuple(index)]
            offset += width

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(0.0)

    def sw_backward_cost(self) -> PlanCost:
        return self.sw_forward_cost() if self.propagate_down else PlanCost()
