"""LSTM layer.

The paper singles out LSTM as a "more complicated layer ... mainly
involving GEMM operations" (Sec. IV-A): each timestep is a pair of GEMMs
against the input and recurrent weight matrices, so on SW26010 it rides the
register-communication GEMM plan. This implementation is a standard
single-layer LSTM over (B, T, D) sequences with full BPTT.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.hw.spec import SW26010Params
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.plan import PlanCost, combine_sequential, repeat_sequential
from repro.utils.rng import FillLedger, fill_ledger


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class LSTMLayer(Layer):
    """Single-layer LSTM: (B, T, D) -> (B, T, H).

    Gate order in the packed weight matrices is (i, f, g, o). The forget
    gate bias is initialized to 1, the usual trick for gradient flow.
    """

    type = "LSTM"

    def __init__(
        self,
        name: str,
        num_output: int,
        rng: np.random.Generator | FillLedger | None = None,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(name, params)
        if num_output <= 0:
            raise ShapeError(f"{name}: num_output must be positive")
        self.hidden = int(num_output)
        self._fills = fill_ledger(rng)
        self.wx: Blob | None = None
        self.wh: Blob | None = None
        self.bias: Blob | None = None
        self._cache = None

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        if len(bottom[0].shape) != 3:
            raise ShapeError(f"{self.name}: LSTM input must be (B, T, D)")

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        b, t, d = bottom[0].shape
        h = self.hidden
        if self.wx is None:
            sx = float(np.sqrt(1.0 / d))
            sh = float(np.sqrt(1.0 / h))
            self.wx = self.add_weight(
                "wx", (4 * h, d), self._fills,
                lambda rng: rng.normal(0, sx, size=(4 * h, d)).astype(np.float32),
            )
            self.wh = self.add_weight(
                "wh", (4 * h, h), self._fills,
                lambda rng: rng.normal(0, sh, size=(4 * h, h)).astype(np.float32),
            )
            bias = np.zeros(4 * h, dtype=np.float32)
            bias[h : 2 * h] = 1.0  # forget gate
            self.bias = self.add_param("bias", bias, decay_mult=0.0)
        top[0].reshape((b, t, h))
        self._shape = (b, t, d)

    # ------------------------------------------------------------------ #
    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        x = bottom[0].data.astype(np.float64)
        b, t, d = x.shape
        h = self.hidden
        wx = self.wx.data.astype(np.float64)
        wh = self.wh.data.astype(np.float64)
        bias = self.bias.data.astype(np.float64)
        h_t = np.zeros((b, h))
        c_t = np.zeros((b, h))
        hs = np.zeros((b, t, h))
        steps = []
        for step in range(t):
            z = x[:, step] @ wx.T + h_t @ wh.T + bias
            i = _sigmoid(z[:, :h])
            f = _sigmoid(z[:, h : 2 * h])
            g = np.tanh(z[:, 2 * h : 3 * h])
            o = _sigmoid(z[:, 3 * h :])
            c_prev = c_t
            c_t = f * c_prev + i * g
            tanh_c = np.tanh(c_t)
            h_prev = h_t
            h_t = o * tanh_c
            hs[:, step] = h_t
            steps.append((i, f, g, o, c_prev, c_t, tanh_c, h_prev))
        self._cache = (x, steps)
        top[0].data = hs.astype(bottom[0].dtype)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        x, steps = self._cache
        b, t, d = x.shape
        h = self.hidden
        wx = self.wx.data.astype(np.float64)
        wh = self.wh.data.astype(np.float64)
        dy = top[0].diff.astype(np.float64)
        dwx = np.zeros_like(wx)
        dwh = np.zeros_like(wh)
        dbias = np.zeros(4 * h)
        dx = np.zeros_like(x)
        dh_next = np.zeros((b, h))
        dc_next = np.zeros((b, h))
        for step in reversed(range(t)):
            i, f, g, o, c_prev, c_t, tanh_c, h_prev = steps[step]
            dh = dy[:, step] + dh_next
            do = dh * tanh_c
            dc = dc_next + dh * o * (1 - tanh_c**2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1 - i),
                    df * f * (1 - f),
                    dg * (1 - g**2),
                    do * o * (1 - o),
                ],
                axis=1,
            )
            dwx += dz.T @ x[:, step]
            dwh += dz.T @ h_prev
            dbias += dz.sum(axis=0)
            dx[:, step] = dz @ wx
            dh_next = dz @ wh
            dc_next = dc * f
        self.wx.diff = self.wx.diff + dwx
        self.wh.diff = self.wh.diff + dwh
        self.bias.diff = self.bias.diff + dbias
        if self.propagate_down:
            bottom[0].diff = bottom[0].diff + dx

    # ------------------------------------------------------------------ #
    def sw_forward_cost(self) -> PlanCost:
        b, t, d = self._shape
        bc = self.cg_batch(b)
        h = self.hidden
        per_step = combine_sequential(
            [
                SWGemmPlan(4 * h, bc, d, params=self.hw).cost(),
                SWGemmPlan(4 * h, bc, h, params=self.hw).cost(),
            ]
        )
        return repeat_sequential(per_step, t)

    def sw_backward_cost(self) -> PlanCost:
        b, t, d = self._shape
        bc = self.cg_batch(b)
        h = self.hidden
        per_step = combine_sequential(
            [
                SWGemmPlan(4 * h, d, bc, params=self.hw).cost(),
                SWGemmPlan(4 * h, h, bc, params=self.hw).cost(),
                SWGemmPlan(bc, d, 4 * h, params=self.hw).cost(),
                SWGemmPlan(bc, h, 4 * h, params=self.hw).cost(),
            ]
        )
        return repeat_sequential(per_step, t)
