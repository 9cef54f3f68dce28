"""Inner-product (fully connected) layer: GEMM on the CPE mesh (Sec. IV-A)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer, check_filler, filler_std
from repro.hw.spec import SW26010Params
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.plan import PlanCost, combine_sequential
from repro.utils.rng import FillLedger, fill_ledger


class InnerProductLayer(Layer):
    """y = x W^T + b over flattened inputs: (B, D) -> (B, M)."""

    type = "InnerProduct"

    def __init__(
        self,
        name: str,
        num_output: int,
        bias: bool = True,
        weight_filler: str = "xavier",
        rng: np.random.Generator | FillLedger | None = None,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(name, params)
        if num_output <= 0:
            raise ShapeError(f"{name}: num_output must be positive")
        self.num_output = int(num_output)
        self.use_bias = bool(bias)
        self.weight_filler = check_filler(name, weight_filler)
        self._fills = fill_ledger(rng)
        self.weight: Blob | None = None
        self.bias: Blob | None = None
        self._x_cache: np.ndarray | None = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)

    def _flat_dim(self, shape: tuple[int, ...]) -> int:
        d = 1
        for s in shape[1:]:
            d *= s
        return d

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        b = bottom[0].shape[0]
        d = self._flat_dim(bottom[0].shape)
        if self.weight is None:
            std = filler_std(self.weight_filler, d)
            shape = (self.num_output, d)
            self.weight = self.add_weight(
                "weight", shape, self._fills,
                lambda rng: std * rng.standard_normal(size=shape, dtype=np.float32),
            )
            if self.use_bias:
                self.bias = self.add_param(
                    "bias", np.zeros(self.num_output, dtype=np.float32),
                    lr_mult=2.0, decay_mult=0.0,
                )
        elif self.weight.shape != (self.num_output, d):
            raise ShapeError(
                f"{self.name}: input dim changed ({self.weight.shape[1]} -> {d})"
            )
        top[0].reshape((b, self.num_output))
        self._bottom_shape = bottom[0].shape

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data.reshape(bottom[0].shape[0], -1)
        self._x_cache = x
        y = x @ self.weight.data.T
        if self.bias is not None:
            y += self.bias.data
        top[0].data = y

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        x = self._x_cache if self._x_cache is not None else bottom[0].data.reshape(
            bottom[0].shape[0], -1
        )
        dy = top[0].diff
        np.add(self.weight.diff, dy.T @ x, out=self.weight.diff)
        if self.bias is not None:
            np.add(self.bias.diff, dy.sum(axis=0), out=self.bias.diff)
        if self.propagate_down:
            dx = (dy @ self.weight.data).reshape(bottom[0].shape)
            bottom[0].diff = bottom[0].diff + dx

    # ------------------------------------------------------------------ #
    def sw_forward_cost(self) -> PlanCost:
        b = self.cg_batch(self._bottom_shape[0])
        d = self._flat_dim(self._bottom_shape)
        return SWGemmPlan(self.num_output, b, d, params=self.hw).cost()

    def sw_backward_cost(self) -> PlanCost:
        b = self.cg_batch(self._bottom_shape[0])
        d = self._flat_dim(self._bottom_shape)
        costs = [SWGemmPlan(self.num_output, d, b, params=self.hw).cost()]  # dW
        if self.propagate_down:
            costs.append(SWGemmPlan(b, d, self.num_output, params=self.hw).cost())  # dX
        return combine_sequential(costs)
