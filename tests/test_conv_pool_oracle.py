"""Executed conv and max-pool against the code they replaced.

``conv_forward``/``conv_backward`` run one direct GEMM per filter tap,
and max pooling runs a strided tap loop. The oracles below are the former
code, verbatim: one ``np.einsum(..., optimize=True)`` contraction per tap,
and max pooling by ``argmax`` over sliding windows with an ``np.add.at``
scatter. On generated cases both must agree in dtype, shape and every
byte; the pool cases include ties, ReLU zeros, NaN, and -0.0 in dy.

The one exception is a conv with a single output pixel per image
(Ho*Wo = 1). There einsum squeezes the unit axes and contracts through
other BLAS kernels (a gemv, a strided operand, a plain product), so the
sums are associated differently; those cases have their own test, bounded
by a stated rounding tolerance. Tier-1 runs a modest number of examples;
``REPRO_HEAVY=1`` runs many more.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.errors import ShapeError
from repro.frame import conv_ops
from repro.kernels.im2col import conv_out_dim
from repro.kernels.pooling import PoolingPlan

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))
EXAMPLES = 2000 if HEAVY else 100
SETTINGS = settings(
    max_examples=EXAMPLES, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------- #
# the oracles: the einsum conv and the sliding-window max-pool, verbatim
# --------------------------------------------------------------------------- #
def conv_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
    groups: int = 1,
) -> np.ndarray:
    """Batched convolution forward: (B,Ni,H,W) x (No,Ni/g,K,K) -> (B,No,Ho,Wo)."""
    if groups > 1:
        return _grouped(conv_forward, x, weight, bias, stride, pad, groups)
    b, ni, h, w = x.shape
    no, ni_w, k, k2 = weight.shape
    if ni_w != ni or k != k2:
        raise ShapeError(f"weight {weight.shape} incompatible with input {x.shape}")
    ho = conv_out_dim(h, k, stride, pad)
    wo = conv_out_dim(w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    out = np.zeros((b, no, ho, wo), dtype=np.result_type(x, weight))
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += np.einsum("bchw,oc->bohw", patch, weight[:, :, i, j], optimize=True)
    if bias is not None:
        out += bias.reshape(1, no, 1, 1)
    return out


def _grouped(fn, x, weight, third, stride, pad, groups, **kwargs):
    """Dispatch a conv op group by group and stitch the results.

    ``third`` is the bias (forward) or dy (backward); outputs are
    concatenated (forward) or recombined (backward).
    """
    b, ni, h, w = x.shape
    no = weight.shape[0]
    if ni % groups or no % groups:
        raise ShapeError(
            f"channels (Ni={ni}, No={no}) not divisible by groups={groups}"
        )
    nig, nog = ni // groups, no // groups
    if fn is conv_forward:
        outs = []
        for g in range(groups):
            bias_g = third[g * nog : (g + 1) * nog] if third is not None else None
            outs.append(
                conv_forward(
                    x[:, g * nig : (g + 1) * nig],
                    weight[g * nog : (g + 1) * nog],
                    bias_g,
                    stride,
                    pad,
                )
            )
        return np.concatenate(outs, axis=1)
    # backward
    need_input_grad = kwargs.get("need_input_grad", True)
    dx = np.zeros_like(x, dtype=np.float64) if need_input_grad else None
    dw = np.zeros_like(weight, dtype=np.float64)
    db = np.zeros(no, dtype=np.float64)
    for g in range(groups):
        dxg, dwg, dbg = conv_backward(
            x[:, g * nig : (g + 1) * nig],
            weight[g * nog : (g + 1) * nog],
            third[:, g * nog : (g + 1) * nog],
            stride,
            pad,
            need_input_grad=need_input_grad,
        )
        if need_input_grad:
            dx[:, g * nig : (g + 1) * nig] = dxg
        dw[g * nog : (g + 1) * nog] = dwg
        db[g * nog : (g + 1) * nog] = dbg
    if dx is not None:
        dx = dx.astype(x.dtype, copy=False)
    return dx, dw.astype(weight.dtype, copy=False), db.astype(weight.dtype, copy=False)


def conv_backward(
    x: np.ndarray,
    weight: np.ndarray,
    dy: np.ndarray,
    stride: int,
    pad: int,
    *,
    need_input_grad: bool = True,
    groups: int = 1,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Batched convolution backward: returns (dx, dw, db)."""
    if groups > 1:
        return _grouped(
            conv_backward, x, weight, dy, stride, pad, groups,
            need_input_grad=need_input_grad,
        )
    b, ni, h, w = x.shape
    no, _, k, _ = weight.shape
    _, _, ho, wo = dy.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    dw = np.zeros_like(weight, dtype=np.float64)
    dxp = (
        np.zeros((b, ni, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        if need_input_grad
        else None
    )
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            dw[:, :, i, j] = np.einsum("bohw,bchw->oc", dy, patch, optimize=True)
            if need_input_grad:
                dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                    np.einsum("bohw,oc->bchw", dy, weight[:, :, i, j], optimize=True)
                )
    db = dy.sum(axis=(0, 2, 3))
    dx = None
    if need_input_grad:
        dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
        dx = np.ascontiguousarray(dx)
    return dx, dw.astype(weight.dtype, copy=False), db.astype(weight.dtype, copy=False)


class OraclePool(PoolingPlan):
    """The plan's geometry with the former forward and backward."""

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pool (B, C, H, W) -> (B, C, Ho, Wo).

        Returns ``(output, argmax)`` where ``argmax`` holds the flat window
        index of each selected element (used by max-pooling backward; for
        average pooling it is an empty array).
        """
        if x.shape != (self.batch, self.channels, self.height, self.width):
            raise ShapeError(
                f"input shape {x.shape} != "
                f"{(self.batch, self.channels, self.height, self.width)}"
            )
        pad_val = -np.inf if self.mode == "max" else 0.0
        xp = (
            np.pad(
                x,
                ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)),
                constant_values=pad_val,
            )
            if self.pad
            else x
        )
        s = self.stride
        windows = np.lib.stride_tricks.sliding_window_view(xp, (self.k, self.k), axis=(2, 3))
        windows = windows[:, :, ::s, ::s, :, :]
        windows = windows[:, :, : self.out_h, : self.out_w]
        flat = windows.reshape(*windows.shape[:4], self.k * self.k)
        if self.mode == "max":
            arg = flat.argmax(axis=-1)
            out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
            return np.ascontiguousarray(out), arg
        out = flat.mean(axis=-1)
        return np.ascontiguousarray(out), np.empty(0, dtype=np.int64)

    def backward(self, x: np.ndarray, dy: np.ndarray, argmax: np.ndarray) -> np.ndarray:
        """Scatter output gradients back through the pooling windows."""
        if dy.shape != (self.batch, self.channels, self.out_h, self.out_w):
            raise ShapeError(
                f"dy shape {dy.shape} != "
                f"{(self.batch, self.channels, self.out_h, self.out_w)}"
            )
        hp = self.height + 2 * self.pad
        wp = self.width + 2 * self.pad
        dxp = np.zeros((self.batch, self.channels, hp, wp), dtype=dy.dtype)
        s = self.stride
        if self.mode == "max":
            ki = argmax // self.k
            kj = argmax % self.k
            b_idx, c_idx, oh_idx, ow_idx = np.indices(dy.shape)
            rows = oh_idx * s + ki
            cols = ow_idx * s + kj
            np.add.at(dxp, (b_idx, c_idx, rows, cols), dy)
        else:
            share = dy / (self.k * self.k)
            for i in range(self.k):
                for j in range(self.k):
                    dxp[:, :, i : i + s * self.out_h : s, j : j + s * self.out_w : s] += share
        if self.pad:
            return np.ascontiguousarray(
                dxp[:, :, self.pad : self.pad + self.height, self.pad : self.pad + self.width]
            )
        return dxp


# --------------------------------------------------------------------------- #
# generated cases
# --------------------------------------------------------------------------- #
class ConvCase(NamedTuple):
    x: np.ndarray
    weight: np.ndarray
    bias: np.ndarray | None
    dy: np.ndarray
    stride: int
    pad: int
    groups: int
    need_input_grad: bool


def conv_case(b, ni, no, h, w, k, stride=1, pad=0, groups=1, dtype=np.float32,
              bias=True, need_input_grad=True, relu=False, seed=0) -> ConvCase:
    """Seeded normal data; ``relu`` zeroes the negative inputs."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, ni, h, w))
    if relu:
        x = np.maximum(x, 0.0)
    weight = rng.standard_normal((no, ni // groups, k, k))
    ho, wo = conv_out_dim(h, k, stride, pad), conv_out_dim(w, k, stride, pad)
    dy = rng.standard_normal((b, no, ho, wo))
    return ConvCase(
        x.astype(dtype),
        weight.astype(dtype),
        rng.standard_normal(no).astype(dtype) if bias else None,
        dy.astype(dtype),
        stride,
        pad,
        groups,
        need_input_grad,
    )


@st.composite
def conv_cases(draw, one_pixel: bool = False) -> ConvCase:
    """Small convs, B and channels per group from 1; ``one_pixel`` makes Ho = Wo = 1."""
    groups = draw(st.sampled_from((1, 1, 1, 2, 3)))
    k = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    if one_pixel:  # sides k - 2*pad .. k - 2*pad + stride - 1 give one pixel
        pad = draw(st.integers(0, min(2, (k + stride - 2) // 2)))
        sides = st.integers(max(1, k - 2 * pad), k - 2 * pad + stride - 1)
    else:
        pad = draw(st.integers(0, 2))
        sides = st.integers(max(1, k - 2 * pad), k - 2 * pad + 3 * stride + 2)
    h, w = draw(sides), draw(sides)
    if not one_pixel:
        assume(conv_out_dim(h, k, stride, pad) * conv_out_dim(w, k, stride, pad) > 1)
    return conv_case(
        b=draw(st.integers(1, 4)),
        ni=groups * draw(st.integers(1, 4)),
        no=groups * draw(st.integers(1, 5)),
        h=h,
        w=w,
        k=k,
        stride=stride,
        pad=pad,
        groups=groups,
        dtype=draw(st.sampled_from((np.float32, np.float64))),
        bias=draw(st.booleans()),
        need_input_grad=draw(st.booleans()),
        relu=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class PoolCase(NamedTuple):
    plan: tuple  # PoolingPlan(batch, channels, height, width, k, stride, pad, mode)
    x: np.ndarray
    dy: np.ndarray


@st.composite
def pool_cases(draw) -> PoolCase:
    """Overlapping and padded windows; ties, ReLU zeros, NaN and -0.0 in dy."""
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, k - 1))
    sides = st.integers(max(1, k - 2 * pad), k - 2 * pad + 2 * stride + 3)
    args = (
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(sides), draw(sides),
        k, stride, pad, draw(st.sampled_from(("max", "max", "max", "avg"))),
    )
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(args[:4])
    values = draw(st.sampled_from(("normal", "ties", "relu")))
    if values == "ties":  # rounding makes equal maxima, and -0.0 beside 0.0
        x = np.round(x)
    elif values == "relu":
        x = np.maximum(x, 0.0)
    x = x.astype(dtype)
    if draw(st.booleans()):
        x.flat[rng.integers(0, x.size, size=draw(st.integers(1, 3)))] = np.nan
    plan = PoolingPlan(*args)
    dy = rng.standard_normal((args[0], args[1], plan.out_h, plan.out_w)).astype(dtype)
    if draw(st.booleans()):
        dy[rng.random(dy.shape) < 0.3] = -0.0
    return PoolCase(args, x, dy)


def same(got, want) -> bool:
    """Equal dtype, shape, layout and bytes (-0.0 is not 0.0; NaN equals itself)."""
    if got is None or want is None:
        return got is None and want is None
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.flags.c_contiguous == want.flags.c_contiguous
        and got.tobytes() == want.tobytes()
    )


# --------------------------------------------------------------------------- #
# explicit cases that fail deterministically if the arithmetic order moves
# --------------------------------------------------------------------------- #
#: Taps accumulated in any other order than (i, j) change these sums.
TAP_ORDER = conv_case(b=2, ni=3, no=4, h=7, w=7, k=3, pad=1, seed=1)
#: At B=1 the dw GEMM reads dy as a transposed view; a contiguous copy of it
#: takes another BLAS path and other bits.
DY_VIEW_AT_B1 = conv_case(b=1, ni=1, no=4, h=6, w=6, k=3, dtype=np.float64, seed=2)
#: LeNet's conv2 at B=1, a GEMM large enough for the blocked BLAS kernels.
LENET_CONV2 = conv_case(b=1, ni=20, no=50, h=12, w=12, k=5, seed=3)


def spike_pool() -> PoolCase:
    """One input is the maximum of all nine overlapping 3x3 windows.

    Its gradient sums 1, 2**53 and -2**53 from three windows: in the
    scatter's increasing-window order 1 is absorbed and the sum is 0; in
    any other order it is not.
    """
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    dy = np.zeros((1, 1, 3, 3))
    dy.flat[:3] = (1.0, 2.0**53, -(2.0**53))
    return PoolCase((1, 1, 5, 5, 3, 1, 0, "max"), x, dy)


# --------------------------------------------------------------------------- #
# the tests
# --------------------------------------------------------------------------- #
@SETTINGS
@given(case=conv_cases())
@example(case=TAP_ORDER)
@example(case=DY_VIEW_AT_B1)
@example(case=LENET_CONV2)
def test_conv_matches_einsum_bitwise(case):
    x, weight, bias, dy, stride, pad, groups, need_input_grad = case
    assert same(
        conv_ops.conv_forward(x, weight, bias, stride, pad, groups),
        conv_forward(x, weight, bias, stride, pad, groups),
    )
    got = conv_ops.conv_backward(
        x, weight, dy, stride, pad, need_input_grad=need_input_grad, groups=groups
    )
    want = conv_backward(
        x, weight, dy, stride, pad, need_input_grad=need_input_grad, groups=groups
    )
    for name, g, w in zip(("dx", "dw", "db"), got, want):
        assert same(g, w), name


#: Reassociating a sum moves it by at most about (terms) * eps times the sum
#: of the terms' magnitudes. A one-pixel case sums at most 5 products per tap
#: (channels, images or filters of one group) over at most 25 taps, so 64 eps
#: of that magnitude bounds every output, in both dtypes.
ONE_PIXEL_EPS = 64


@SETTINGS
@given(case=conv_cases(one_pixel=True))
def test_one_pixel_conv_within_rounding_of_einsum(case):
    x, weight, bias, dy, stride, pad, groups, need_input_grad = case
    kw = dict(need_input_grad=need_input_grad, groups=groups)
    got = [conv_ops.conv_forward(x, weight, bias, stride, pad, groups)]
    want = [conv_forward(x, weight, bias, stride, pad, groups)]
    magnitude = [
        conv_forward(abs(x), abs(weight), None if bias is None else abs(bias),
                     stride, pad, groups)
    ]
    got += conv_ops.conv_backward(x, weight, dy, stride, pad, **kw)
    want += conv_backward(x, weight, dy, stride, pad, **kw)
    magnitude += conv_backward(abs(x), abs(weight), abs(dy), stride, pad, **kw)
    tol = ONE_PIXEL_EPS * np.finfo(x.dtype).eps
    for name, g, w, m in zip(("y", "dx", "dw", "db"), got, want, magnitude):
        if w is None:
            assert g is None, name
            continue
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.all(abs(g.astype(np.float64) - w) <= tol * m), name


@SETTINGS
@given(case=pool_cases())
@example(case=spike_pool())
def test_pool_matches_sliding_window_bitwise(case):
    plan, oracle = PoolingPlan(*case.plan), OraclePool(*case.plan)
    (out, arg), (want_out, want_arg) = plan.forward(case.x), oracle.forward(case.x)
    assert same(out, want_out)
    assert same(arg, want_arg)
    assert same(plan.backward(case.x, case.dy, arg), oracle.backward(case.x, case.dy, want_arg))
