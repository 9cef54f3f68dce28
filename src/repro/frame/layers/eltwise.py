"""Elementwise combination layer (ResNet residual additions)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class EltwiseLayer(Layer):
    """y = sum_i coeff_i * x_i (operation "sum") or elementwise max/prod."""

    type = "Eltwise"

    def __init__(
        self,
        name: str,
        operation: str = "sum",
        coeffs: list[float] | None = None,
        params=None,
    ) -> None:
        super().__init__(name, params)
        if operation not in ("sum", "max", "prod"):
            raise ShapeError(f"{name}: unknown eltwise operation {operation!r}")
        self.operation = operation
        self.coeffs = coeffs
        self._cache = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        if len(bottom) < 2:
            raise ShapeError(f"{self.name}: eltwise needs >= 2 bottoms")
        ref = bottom[0].shape
        for b in bottom[1:]:
            if b.shape != ref:
                raise ShapeError(f"{self.name}: shape mismatch {ref} vs {b.shape}")
        if self.coeffs is not None and len(self.coeffs) != len(bottom):
            raise ShapeError(f"{self.name}: need one coeff per bottom")
        if self.coeffs is not None and self.operation != "sum":
            raise ShapeError(f"{self.name}: coeffs only apply to 'sum'")

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].reshape(bottom[0].shape)
        self._n_bottoms = len(bottom)
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        xs = [b.data for b in bottom]
        if self.operation == "sum":
            coeffs = self.coeffs or [1.0] * len(xs)
            out = sum(c * x for c, x in zip(coeffs, xs))
            self._cache = None
        elif self.operation == "prod":
            out = np.prod(xs, axis=0)
            self._cache = (xs, out)
        else:  # max
            stacked = np.stack(xs)
            arg = stacked.argmax(axis=0)
            out = np.take_along_axis(stacked, arg[None], axis=0)[0]
            self._cache = arg
        top[0].data = out.astype(bottom[0].dtype, copy=False)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        dy = top[0].diff
        if self.operation == "sum":
            coeffs = self.coeffs or [1.0] * len(bottom)
            for c, b in zip(coeffs, bottom):
                b.diff = b.diff + c * dy
        elif self.operation == "prod":
            xs, out = self._cache
            for i, b in enumerate(bottom):
                with np.errstate(divide="ignore", invalid="ignore"):
                    others = np.where(xs[i] != 0, out / xs[i], 0.0)
                # Recompute exactly for zero entries.
                if np.any(xs[i] == 0):
                    rest = np.prod([x for j, x in enumerate(xs) if j != i], axis=0)
                    others = np.where(xs[i] == 0, rest, others)
                b.diff = b.diff + dy * others
        else:  # max: route to the winner
            arg = self._cache
            for i, b in enumerate(bottom):
                b.diff = b.diff + dy * (arg == i)

    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(1.0, n_inputs=self._n_bottoms)

    def sw_backward_cost(self) -> PlanCost:
        if not self.propagate_down:
            return PlanCost()
        return self.stream_cost(1.0, n_outputs=self._n_bottoms)
