"""Ring allreduce (Patarasuk & Yuan): bandwidth-optimal, latency-heavy.

The paper's reference point for why rings lose on TaihuLight: 2(p-1) steps
give a ``p * alpha`` latency term, painful on a high-latency network
(Sec. V-A: "the popular ring-based algorithms ... are not our best
candidates").
:func:`ring_schedule` lists the rounds, which ``reduce_ops`` executes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import Round, block_offsets, execute


def ring_schedule(p: int, n: int, itemsize: int) -> Iterator[Round]:
    """The rounds of a ring allreduce of ``n`` elements over ``p`` ranks.

    Phase 1 (reduce-scatter): p-1 steps; in step ``t`` rank ``r`` sends
    chunk ``(r - t) mod p`` to rank ``r+1``, which reduces it. Phase 2
    (allgather): p-1 more steps circulating the finished chunks; rank ``r``
    owns finished chunk ``(r + 1) mod p``. Every step moves ~n/p bytes per
    rank, and in every step a rank receives a different chunk from the one
    it sends.
    """
    if p == 1:
        return
    off = [int(o) for o in block_offsets(n, p)]
    for reduce, shift in ((True, 0), (False, 1)):
        for t in range(p - 1):
            pairs = []
            moves = []
            for r in range(p):
                c = (r + shift - t) % p
                dst = (r + 1) % p
                pairs.append((r, dst, float((off[c + 1] - off[c]) * itemsize)))
                moves.append((dst, r, off[c], off[c + 1]))
            reduce_bytes = max(nb for _, _, nb in pairs) if reduce else 0.0
            yield Round(pairs, moves, reduce, reduce_bytes)


def ring_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place ring allreduce across ``comm.p`` ranks."""
    return execute(comm, buffers, ring_schedule, average=average)
