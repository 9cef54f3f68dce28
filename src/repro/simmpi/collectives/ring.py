"""Ring allreduce (Patarasuk & Yuan): bandwidth-optimal, latency-heavy.

The paper's reference point for why rings lose on TaihuLight: 2(p-1) steps
give a ``p * alpha`` latency term, painful on a high-latency network
(Sec. V-A: "the popular ring-based algorithms ... are not our best
candidates").
"""

from __future__ import annotations

import numpy as np

from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import block_offsets, check_buffers, finalize


def ring_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place ring allreduce across ``comm.p`` ranks.

    Phase 1 (reduce-scatter): p-1 steps; in step ``t`` rank ``r`` sends
    chunk ``(r - t) mod p`` to rank ``r+1`` and reduces the chunk arriving
    from ``r-1``. Phase 2 (allgather): p-1 more steps circulating the
    finished chunks. Every step moves ~n/p bytes per rank.
    """
    p = comm.p
    if len(buffers) != p:
        raise ValueError(f"expected {p} buffers, got {len(buffers)}")
    n, itemsize = check_buffers(buffers)
    result = CollectiveResult()
    work = [np.array(b, dtype=np.float64, copy=True).ravel() for b in buffers]
    if p == 1:
        finalize(buffers, work, average)
        return result
    off = block_offsets(n, p)

    def chunk(rank_owner: int) -> slice:
        return slice(off[rank_owner], off[rank_owner + 1])

    # In every step a rank receives a different chunk from the one it
    # sends, so no move reads what another writes and none needs a copy.

    # Reduce-scatter around the ring.
    for t in range(p - 1):
        pairs = []
        for r in range(p):
            send_chunk = (r - t) % p
            nbytes = (off[send_chunk + 1] - off[send_chunk]) * itemsize
            dst = (r + 1) % p
            pairs.append((r, dst, float(nbytes)))
            work[dst][chunk(send_chunk)] += work[r][chunk(send_chunk)]
        max_chunk_bytes = max(nb for _, _, nb in pairs)
        comm.account_step(result, pairs, reduce_bytes=max_chunk_bytes)

    # Allgather around the ring: rank r owns finished chunk (r + 1) mod p.
    for t in range(p - 1):
        pairs = []
        for r in range(p):
            send_chunk = (r + 1 - t) % p
            nbytes = (off[send_chunk + 1] - off[send_chunk]) * itemsize
            dst = (r + 1) % p
            pairs.append((r, dst, float(nbytes)))
            work[dst][chunk(send_chunk)] = work[r][chunk(send_chunk)]
        comm.account_step(result, pairs)

    finalize(buffers, work, average)
    return result
