"""Vectorized NumPy convolution arithmetic shared by the conv layer.

These are the *functional* kernels (bit-level semantics of the SW26010
plans, minus the hardware). Like the implicit kernel (Sec. IV-B2), a layer is
one channel GEMM per filter tap over the whole batch, accumulated in (i, j) tap
order. Operands are laid out as NumPy's einsum plans them, so results equal
the einsum oracle of tests/test_conv_pool_oracle.py bit for bit when Ho*Wo > 1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.kernels.im2col import conv_out_dim


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
    acc = np.zeros((no, b, ho, wo), dtype=np.result_type(x, weight))
    prod = np.empty_like(acc)
    w_taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))  # No = 1 then runs einsum's gemv
    product = np.multiply if ni == 1 else np.matmul  # Ni = 1: an outer product per tap
    for i, j, _, cols in _taps(xp, k, stride, ho, wo):
        product(w_taps[i, j], cols, out=prod.reshape(no, -1))
        acc += prod
    out = np.ascontiguousarray(acc.transpose(1, 0, 2, 3))
    if bias is not None:
        out += bias.reshape(1, no, 1, 1)
    return out


def _taps(xp, k, stride, ho, wo):
    """Per tap in accumulation order: ``(i, j, window, cols)``, the window into
    padded ``xp`` and its patch as (Ni, B*Ho*Wo) columns in one reused buffer."""
    patch = np.empty((xp.shape[1], xp.shape[0], ho, wo), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            window = np.s_[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            patch[...] = xp.transpose(1, 0, 2, 3)[window]
            yield i, j, window, patch.reshape(len(patch), -1)


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
    # Both dy layouts once, as einsum laid them out: at B=1 dy_rows stays a
    # transposed view, and a copy would change the BLAS call and the bits.
    dy_rows = np.reshape(dy.transpose(0, 2, 3, 1), (-1, no))  # (B*Ho*Wo, No)
    dy_cols = np.reshape(dy.transpose(1, 0, 2, 3), (no, -1))  # (No, B*Ho*Wo)
    dx_tap = np.empty((ni, b, ho, wo), dtype=np.result_type(weight, dy))
    w_taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1))  # as in forward
    for i, j, window, cols in _taps(xp, k, stride, ho, wo):
        dw[:, :, i, j] = np.matmul(cols, dy_rows).T
        if need_input_grad:
            np.matmul(w_taps[i, j].T, dy_cols, out=dx_tap.reshape(ni, -1))
            dxp[window] += dx_tap.transpose(1, 0, 2, 3)
    db = dy.sum(axis=(0, 2, 3))
    dx = None
    if need_input_grad:
        dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
        dx = np.ascontiguousarray(dx)
    return dx, dw.astype(weight.dtype, copy=False), db.astype(weight.dtype, copy=False)
