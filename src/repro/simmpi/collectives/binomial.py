"""Binomial-tree allreduce: reduce to root, then broadcast.

The simplest log-depth scheme. Its latency term (2 log p messages) matches
recursive halving/doubling, but every message carries the *full* vector, so
its bandwidth term is ~log p times worse — useful as a small-message
reference and as a correctness cross-check for the fancier algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import check_buffers, finalize


def binomial_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place binomial-tree allreduce (works for any rank count)."""
    p = comm.p
    if len(buffers) != p:
        raise ValueError(f"expected {p} buffers, got {len(buffers)}")
    n, itemsize = check_buffers(buffers)
    result = CollectiveResult()
    work = [np.array(b, dtype=np.float64, copy=True).ravel() for b in buffers]
    nbytes = float(n * itemsize)

    # Reduce phase: at distance d, ranks r with r % 2d == d send to r - d.
    d = 1
    while d < p:
        pairs = []
        moves: list[tuple[int, np.ndarray]] = []
        for r in range(p):
            if r % (2 * d) == d:
                dst = r - d
                pairs.append((r, dst, nbytes))
                moves.append((dst, work[r]))
        for dst, data in moves:
            work[dst] = work[dst] + data
        if pairs:
            comm.account_step(result, pairs, reduce_bytes=nbytes)
        d *= 2

    # Broadcast phase: mirror of the reduce tree, largest distance first.
    d = 1
    while d * 2 < p:
        d *= 2
    while d >= 1:
        pairs = []
        moves = []
        for r in range(p):
            if r % (2 * d) == 0 and r + d < p:
                pairs.append((r, r + d, nbytes))
                moves.append((r + d, work[r]))
        for dst, data in moves:
            work[dst] = data.copy()
        if pairs:
            comm.account_step(result, pairs)
        d //= 2

    finalize(buffers, work, average)
    return result
