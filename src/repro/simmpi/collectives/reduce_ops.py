"""Shared helpers for the collective implementations."""

from __future__ import annotations

import numpy as np

from repro.errors import CommunicatorError


def check_buffers(buffers: list[np.ndarray]) -> tuple[int, int]:
    """Validate an allreduce input: same shape/dtype everywhere.

    Returns ``(n_elements, itemsize)``.
    """
    if not buffers:
        raise CommunicatorError("allreduce requires at least one rank buffer")
    first = buffers[0]
    for i, b in enumerate(buffers[1:], start=1):
        if b.shape != first.shape:
            raise CommunicatorError(
                f"rank {i} buffer shape {b.shape} != rank 0 shape {first.shape}"
            )
        if b.dtype != first.dtype:
            raise CommunicatorError(
                f"rank {i} buffer dtype {b.dtype} != rank 0 dtype {first.dtype}"
            )
    return first.size, first.itemsize


def block_offsets(n: int, k: int) -> np.ndarray:
    """MPI-style near-equal split of ``n`` elements into ``k`` blocks.

    Returns ``k + 1`` offsets; block ``i`` is ``[off[i], off[i+1])``. The
    first ``n % k`` blocks get one extra element, as in MPICH.
    """
    base, extra = divmod(n, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def finalize(
    buffers: list[np.ndarray], reduced: list[np.ndarray], average: bool
) -> None:
    """Write per-rank reduced vectors back into the caller's buffers.

    Results are cast straight into ``dst`` with ``casting="unsafe"``, as
    ``astype`` casts (integer buffers get the truncated mean). ``reduced``
    is only read, so an aliased work vector is never divided twice.
    """
    p = len(buffers)
    for dst, src in zip(buffers, reduced):
        src = src.reshape(dst.shape)
        if average:
            np.divide(src, p, out=dst, casting="unsafe")
        else:
            np.copyto(dst, src, casting="unsafe")
