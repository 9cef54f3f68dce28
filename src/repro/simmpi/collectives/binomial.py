"""Binomial-tree allreduce: reduce to root, then broadcast.

The simplest log-depth scheme. Its latency term (2 log p messages) matches
recursive halving/doubling, but every message carries the *full* vector, so
its bandwidth term is ~log p times worse — useful as a small-message
reference and as a correctness cross-check for the fancier algorithms.
:func:`binomial_schedule` lists the rounds, which ``reduce_ops`` executes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import Round, execute


def binomial_schedule(p: int, n: int, itemsize: int) -> Iterator[Round]:
    """The rounds of a binomial-tree allreduce (any rank count).

    Reduce phase: at distance d, ranks r with r % 2d == d send the whole
    vector to r - d. Broadcast phase: the mirror tree from rank 0, largest
    distance first.
    """
    if p == 1:
        return
    nbytes = float(n * itemsize)
    d = 1
    while d < p:
        senders = [r for r in range(p) if r % (2 * d) == d]
        yield Round([(r, r - d, nbytes) for r in senders],
                    [(r - d, r, 0, n) for r in senders], True, nbytes)
        d *= 2
    d //= 2
    while d >= 1:
        senders = [r for r in range(0, p, 2 * d) if r + d < p]
        yield Round([(r, r + d, nbytes) for r in senders],
                    [(r + d, r, 0, n) for r in senders], False, 0.0)
        d //= 2


def binomial_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place binomial-tree allreduce (works for any rank count)."""
    return execute(comm, buffers, binomial_schedule, average=average)
