"""Recursive halving/doubling allreduce (Rabenseifner / MPICH).

The paper's baseline (Sec. V-A): an allgather phase after a reduce-scatter
phase, both log(p)-deep:

* **Reduce-scatter, recursive halving** — step 1 exchanges n/2 bytes with
  the rank a logical distance p/2 away, step 2 exchanges n/4 at distance
  p/4, and so on: traffic *shrinks* as the algorithm proceeds.
* **Allgather, recursive doubling** — the mirror image: distances 1, 2, 4,
  ... with traffic *growing* n/p, 2n/p, ....

Whether a step's partners sit in the same supernode is decided entirely by
the communicator's :class:`~repro.simmpi.process.Placement`; running this
exact schedule over the round-robin placement *is* the paper's improved
algorithm (see :mod:`repro.simmpi.collectives.topo_aware`).

Non-power-of-two rank counts use the standard MPICH fold: the first
``2 * (p - 2^k)`` ranks pre-combine pairwise so a power-of-two subset runs
the core algorithm, and the folded ranks receive the result afterwards.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.metrics.registry import active as _metrics
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.collectives.reduce_ops import block_offsets, check_buffers, finalize


def _largest_pow2_leq(p: int) -> int:
    k = 1
    while k * 2 <= p:
        k *= 2
    return k


class RHDStep(NamedTuple):
    """One lockstep round of the RHD schedule."""

    #: ``(rank_a, rank_b, nbytes)`` exchanges, as charged to the communicator.
    pairs: list[tuple[int, int, float]]
    #: ``(dst, src, lo, hi)``: logical rank ``dst`` receives ``src``'s
    #: elements ``[lo, hi)``.
    moves: list[tuple[int, int, int, int]]
    #: Whether received elements are summed into ``dst`` (else copied).
    reduce: bool
    #: Per-rank bytes locally reduced in this round.
    reduce_bytes: float


def rhd_schedule(p: int, n: int, itemsize: int) -> Iterator[RHDStep]:
    """The rounds of an RHD allreduce of ``n`` elements over ``p`` ranks.

    The fold, the recursive-halving reduce-scatter, the recursive-doubling
    allgather and the unfold, with MPICH's near-equal block split. Both
    :func:`rhd_allreduce` (which moves the data) and the trace session's
    accounting replay walk it, so they charge the same pairs and bytes.
    """
    if p == 1:
        return
    nbytes_full = float(n * itemsize)

    # --- fold down to a power of two -------------------------------------
    k = _largest_pow2_leq(p)
    r = p - k
    folded = [(2 * i, 2 * i + 1, nbytes_full) for i in range(r)]
    if r > 0:
        moves = [(2 * i, 2 * i + 1, 0, n) for i in range(r)]
        yield RHDStep(folded, moves, True, nbytes_full)
    active = [2 * i for i in range(r)] + list(range(2 * r, p))

    off = [int(o) for o in block_offsets(n, k)]

    def span_bytes(lo: int, hi: int) -> float:
        return float((off[hi] - off[lo]) * itemsize)

    # --- reduce-scatter: recursive halving --------------------------------
    lo = [0] * k
    hi = [k] * k
    d = k // 2
    while d >= 1:
        pairs = []
        moves = []
        max_reduce = 0.0
        for v in range(k):
            w = v ^ d
            if w < v:
                continue
            # v and w share [lo, hi); v (bit clear) keeps the lower half.
            mid = (lo[v] + hi[v]) // 2
            send_v = span_bytes(mid, hi[v])  # v's upper half goes to w
            send_w = span_bytes(lo[v], mid)  # w's lower half goes to v
            pairs.append((active[v], active[w], max(send_v, send_w)))
            moves.append((active[v], active[w], off[lo[v]], off[mid]))
            moves.append((active[w], active[v], off[mid], off[hi[v]]))
            max_reduce = max(max_reduce, send_v, send_w)
            lo[w], hi[v] = mid, mid
        yield RHDStep(pairs, moves, True, max_reduce)
        d //= 2

    # --- allgather: recursive doubling ------------------------------------
    d = 1
    while d < k:
        pairs = []
        moves = []
        for v in range(k):
            w = v ^ d
            if w < v:
                continue
            send_v = span_bytes(lo[v], hi[v])
            send_w = span_bytes(lo[w], hi[w])
            pairs.append((active[v], active[w], max(send_v, send_w)))
            moves.append((active[v], active[w], off[lo[w]], off[hi[w]]))
            moves.append((active[w], active[v], off[lo[v]], off[hi[v]]))
            lo[v] = lo[w] = min(lo[v], lo[w])
            hi[v] = hi[w] = max(hi[v], hi[w])
        yield RHDStep(pairs, moves, False, 0.0)
        d *= 2

    # --- unfold ------------------------------------------------------------
    if r > 0:
        moves = [(2 * i + 1, 2 * i, 0, n) for i in range(r)]
        yield RHDStep(folded, moves, False, 0.0)


def rhd_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    """In-place recursive halving/doubling allreduce."""
    with _metrics().labelled(collective="rhd"):
        return _rhd_allreduce(comm, buffers, average=average)


def _rhd_allreduce(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    p = comm.p
    if len(buffers) != p:
        raise ValueError(f"expected {p} buffers, got {len(buffers)}")
    n, itemsize = check_buffers(buffers)
    result = CollectiveResult()
    work = [np.array(b, dtype=np.float64, copy=True).ravel() for b in buffers]
    for step in rhd_schedule(p, n, itemsize):
        # Every exchange of a round reads pre-round data.
        received = [
            (dst, lo, hi, work[src][lo:hi].copy()) for dst, src, lo, hi in step.moves
        ]
        for dst, lo, hi, data in received:
            if step.reduce:
                work[dst][lo:hi] += data
            else:
                work[dst][lo:hi] = data
        comm.account_step(result, step.pairs, reduce_bytes=step.reduce_bytes)
    finalize(buffers, work, average)
    return result
