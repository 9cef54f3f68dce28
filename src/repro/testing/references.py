"""Slow-but-obviously-correct dense references for the conformance layer.

Every function here trades speed for inspectability: explicit Python loops
over the mathematical definition, float64 accumulation, no layout tricks.
The differential fuzzer compares each executed kernel (the convolution of
:mod:`repro.frame.conv_ops`, the pooling and layout-transform plans) and
collective algorithm against these, so the references deliberately share
*no code* with the implementations they check (``conv_ops`` runs one
channel GEMM per filter tap; these walk the textbook formulas).
"""

from __future__ import annotations

import numpy as np

from repro.topology.cost_model import LinearCostModel


# --------------------------------------------------------------------------- #
# dense linear algebra
# --------------------------------------------------------------------------- #
def ref_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i, j] = sum_k A[i, k] * B[k, j], row by row in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2, f"GEMM shape mismatch: {a.shape} @ {b.shape}"
    c = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            c[i, j] = float(np.dot(a[i, :], b[:, j]))
    return c


# --------------------------------------------------------------------------- #
# convolution / pooling
# --------------------------------------------------------------------------- #
def _pad_input(x: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value
    )


def ref_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Cross-correlation (Caffe convention) by direct window sums.

    ``x`` is (B, Ni, H, W), ``weight`` (No, Ni, K, K); output (B, No, Ho, Wo).
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    batch, ni, h, w = x.shape
    no, ni2, k, k2 = weight.shape
    assert ni == ni2 and k == k2
    xp = _pad_input(x, pad)
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    out = np.zeros((batch, no, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for o in range(no):
            for oh in range(out_h):
                for ow in range(out_w):
                    window = xp[
                        b, :, oh * stride : oh * stride + k, ow * stride : ow * stride + k
                    ]
                    out[b, o, oh, ow] = float(np.sum(window * weight[o]))
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64).reshape(1, no, 1, 1)
    return out


def ref_conv2d_backward(
    x: np.ndarray,
    weight: np.ndarray,
    dy: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`ref_conv2d` by direct accumulation.

    Returns ``(dx, dw, db)``: each output pixel's gradient is scattered
    back into the input window and the filter that produced it.
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    batch, ni, h, w = x.shape
    no, _, k, _ = weight.shape
    _, _, out_h, out_w = dy.shape
    xp = _pad_input(x, pad)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(weight)
    for b in range(batch):
        for o in range(no):
            for oh in range(out_h):
                for ow in range(out_w):
                    g = dy[b, o, oh, ow]
                    hi, wi = oh * stride, ow * stride
                    dxp[b, :, hi : hi + k, wi : wi + k] += g * weight[o]
                    dw[o] += g * xp[b, :, hi : hi + k, wi : wi + k]
    dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
    db = dy.sum(axis=(0, 2, 3))
    return np.ascontiguousarray(dx), dw, db


def ref_pool2d(
    x: np.ndarray, k: int, stride: int | None = None, pad: int = 0, mode: str = "max"
) -> np.ndarray:
    """Max/average pooling by direct window reduction."""
    assert mode in ("max", "avg")
    x = np.asarray(x, dtype=np.float64)
    stride = k if stride is None else stride
    batch, c, h, w = x.shape
    pad_val = -np.inf if mode == "max" else 0.0
    xp = _pad_input(x, pad, value=pad_val)
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    out = np.zeros((batch, c, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for ch in range(c):
            for oh in range(out_h):
                for ow in range(out_w):
                    window = xp[
                        b, ch, oh * stride : oh * stride + k, ow * stride : ow * stride + k
                    ]
                    out[b, ch, oh, ow] = (
                        float(np.max(window)) if mode == "max" else float(np.mean(window))
                    )
    return out


def ref_transform(x: np.ndarray, to_implicit: bool) -> np.ndarray:
    """Explicit (B, N, R, C) <-> implicit (R, C, N, B) relayout, index by index."""
    x = np.asarray(x)
    if to_implicit:
        b, n, r, c = x.shape
        out = np.zeros((r, c, n, b), dtype=x.dtype)
        for bi in range(b):
            for ni in range(n):
                for ri in range(r):
                    out[ri, :, ni, bi] = x[bi, ni, ri, :]
        return out
    r, c, n, b = x.shape
    out = np.zeros((b, n, r, c), dtype=x.dtype)
    for bi in range(b):
        for ni in range(n):
            for ri in range(r):
                out[bi, ni, ri, :] = x[ri, :, ni, bi]
    return out


# --------------------------------------------------------------------------- #
# collective semantics
# --------------------------------------------------------------------------- #
def ref_reduce(buffers: list[np.ndarray], average: bool = False) -> np.ndarray:
    """Elementwise sum (or mean) of all rank buffers, in float64."""
    acc = np.zeros_like(np.asarray(buffers[0], dtype=np.float64))
    for b in buffers:
        acc = acc + np.asarray(b, dtype=np.float64)
    if average:
        acc = acc / len(buffers)
    return acc


def ref_allreduce(buffers: list[np.ndarray], average: bool = False) -> list[np.ndarray]:
    """Every rank ends with the same reduced vector."""
    reduced = ref_reduce(buffers, average=average)
    return [reduced.copy() for _ in buffers]


def ring_allreduce_cost(nbytes: float, p: int, q: int, model: LinearCostModel) -> float:
    """Ring allreduce cost under block numbering, in closed form.

    2(p-1) steps of n/p bytes. A ring laid out over block numbering crosses
    a supernode boundary on ``s = p/q`` of its links; since every step's
    slowest link paces the whole ring, every step pays beta2 whenever the
    ring spans more than one supernode (``p > q``).
    """
    n = float(nbytes)
    if p == 1:
        return 0.0
    beta = model.beta2 if p > q else model.beta1
    steps = 2 * (p - 1)
    return (
        steps * model.alpha
        + steps * beta * n / p
        + model.gamma * n * (p - 1) / p
    )
