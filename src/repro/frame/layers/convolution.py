"""Convolution layer with autotuned SW26010 plans (Sec. IV-B, VI-A)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.conv_ops import conv_backward, conv_forward
from repro.frame.layer import Layer, check_filler, filler_std
from repro.hw.spec import SW26010Params
from repro.kernels.autotune import ConvConfig, PlanAutotuner
from repro.kernels.im2col import conv_out_dim
from repro.kernels.plan import PlanCost, repeat_sequential
from repro.utils.rng import FillLedger, fill_ledger


class ConvolutionLayer(Layer):
    """2D convolution: (B, Ni, H, W) -> (B, No, Ho, Wo).

    The functional path is exact NumPy arithmetic; the timing path asks the
    plan autotuner (explicit vs implicit GEMM transformation) for the best
    plan per direction, exactly like swCaffe's first-two-iterations probe.
    """

    type = "Convolution"

    def __init__(
        self,
        name: str,
        num_output: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        bias: bool = True,
        groups: int = 1,
        weight_filler: str = "msra",
        rng: np.random.Generator | FillLedger | None = None,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(name, params)
        if num_output <= 0 or kernel_size <= 0 or stride <= 0 or pad < 0:
            raise ShapeError(f"bad conv hyperparameters for layer {name!r}")
        if groups <= 0 or num_output % groups:
            raise ShapeError(
                f"{name}: num_output={num_output} not divisible by groups={groups}"
            )
        self.groups = int(groups)
        self.num_output = int(num_output)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.pad = int(pad)
        self.use_bias = bool(bias)
        self.weight_filler = check_filler(name, weight_filler)
        self._fills = fill_ledger(rng)
        self._autotuner = PlanAutotuner(params)
        self._x_cache: np.ndarray | None = None
        self.weight: Blob | None = None
        self.bias: Blob | None = None

    # ------------------------------------------------------------------ #
    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        if len(bottom[0].shape) != 4:
            raise ShapeError(f"{self.name}: conv input must be 4D, got {bottom[0].shape}")

    def _init_weights(self, ni: int) -> None:
        k = self.kernel_size
        ni = ni // self.groups
        std = filler_std(self.weight_filler, ni * k * k)
        shape = (self.num_output, ni, k, k)
        self.weight = self.add_weight(
            "weight", shape, self._fills,
            lambda rng: std * rng.standard_normal(size=shape, dtype=np.float32),
        )
        if self.use_bias:
            b = np.zeros(self.num_output, dtype=np.float32)
            self.bias = self.add_param("bias", b, lr_mult=2.0, decay_mult=0.0)

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        b, ni, h, w = bottom[0].shape
        if ni % self.groups:
            raise ShapeError(
                f"{self.name}: input channels {ni} not divisible by "
                f"groups={self.groups}"
            )
        if self.weight is None:
            self._init_weights(ni)
        ho = conv_out_dim(h, self.kernel_size, self.stride, self.pad)
        wo = conv_out_dim(w, self.kernel_size, self.stride, self.pad)
        top[0].reshape((b, self.num_output, ho, wo))
        self._bottom_shape = (b, ni, h, w)

    # ------------------------------------------------------------------ #
    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data
        self._x_cache = x
        bias = self.bias.data if self.bias is not None else None
        top[0].data = conv_forward(
            x, self.weight.data, bias, self.stride, self.pad, groups=self.groups
        )

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        x = self._x_cache if self._x_cache is not None else bottom[0].data
        dx, dw, db = conv_backward(
            x,
            self.weight.data,
            top[0].diff,
            self.stride,
            self.pad,
            need_input_grad=self.propagate_down,
            groups=self.groups,
        )
        np.add(self.weight.diff, dw, out=self.weight.diff)
        if self.bias is not None:
            np.add(self.bias.diff, db, out=self.bias.diff)
        if self.propagate_down and dx is not None:
            bottom[0].diff = bottom[0].diff + dx

    # ------------------------------------------------------------------ #
    def _config(self) -> ConvConfig:
        """Autotuner key; grouped convs are priced as per-group kernels
        run sequentially (see sw_forward_cost)."""
        b, ni, h, w = self._bottom_shape
        return ConvConfig(
            batch=self.cg_batch(b),
            ni=ni // self.groups,
            no=self.num_output // self.groups,
            height=h,
            width=w,
            k=self.kernel_size,
            stride=self.stride,
            pad=self.pad,
        )

    def _times_groups(self, cost: PlanCost) -> PlanCost:
        if self.groups == 1:
            return cost
        return repeat_sequential(cost, self.groups)

    def sw_forward_cost(self) -> PlanCost:
        return self._times_groups(
            self._autotuner.choose(self._config(), "forward").cost
        )

    def sw_backward_cost(self) -> PlanCost:
        cfg = self._config()
        cost = self._autotuner.choose(cfg, "backward_weight").cost
        if self.propagate_down:
            cost = cost + self._autotuner.choose(cfg, "backward_input").cost
        return self._times_groups(cost)

    def chosen_plans(self) -> dict[str, str]:
        """Which plan won each direction (for the Table II harness)."""
        cfg = self._config()
        out = {"forward": self._autotuner.choose(cfg, "forward").plan_name}
        out["backward_weight"] = self._autotuner.choose(cfg, "backward_weight").plan_name
        if self.propagate_down:
            out["backward_input"] = self._autotuner.choose(cfg, "backward_input").plan_name
        return out
