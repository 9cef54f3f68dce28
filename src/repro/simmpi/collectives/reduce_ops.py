"""The allreduce schedule format, with its one executor and one replay.

Every allreduce here is a schedule: lockstep :class:`Round` s listing the
exchanges a round charges and the element ranges it moves
(``rhd_schedule``, ``ring_schedule``, ``binomial_schedule``).
:func:`replay` charges the rounds and moves no data, so the trace session
and the allreduce sweep price any payload in microseconds. :func:`execute`
charges them through :func:`replay`, then moves the data, so executed and
replayed times are equal by construction.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi.comm import CollectiveResult, SimComm

#: Elements per rank that :func:`execute` moves in one pass. It bounds the
#: float64 scratch at ``p * 256 KB`` (1 MB for the 4-rank training step,
#: where a float64 copy of every buffer cost ``p * n * 8`` bytes), while
#: each NumPy call still spans thousands of elements: on that step's
#: buffers, half or twice the size measured no consistent gain.
WINDOW = 1 << 15


class Round(NamedTuple):
    """One lockstep round of an allreduce schedule."""

    #: ``(rank_a, rank_b, nbytes)`` exchanges, as charged to the communicator.
    pairs: list[tuple[int, int, float]]
    #: ``(dst, src, lo, hi)``: logical rank ``dst`` receives ``src``'s
    #: elements ``[lo, hi)``.
    moves: list[tuple[int, int, int, int]]
    #: Whether received elements are summed into ``dst`` (else copied).
    reduce: bool
    #: Per-rank bytes locally reduced in this round.
    reduce_bytes: float


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


def finalize(dst: np.ndarray, src: np.ndarray, p: int, average: bool) -> None:
    """Write the float64 sums ``src`` of ``p`` ranks into ``dst``.

    Results are cast straight into ``dst`` with ``casting="unsafe"``, as
    ``astype`` casts (integer buffers get the truncated mean).
    """
    if average:
        np.divide(src, p, out=dst, casting="unsafe")
    else:
        np.copyto(dst, src, casting="unsafe")


def replay(comm: SimComm, rounds: Iterable[Round]) -> CollectiveResult:
    """Charge ``rounds`` to ``comm`` without moving any data."""
    result = CollectiveResult()
    for rnd in rounds:
        comm.account_step(result, rnd.pairs, reduce_bytes=rnd.reduce_bytes)
    return result


def execute(
    comm: SimComm,
    buffers: list[np.ndarray],
    schedule: Callable[[int, int, int], Iterable[Round]],
    *,
    average: bool = False,
) -> CollectiveResult:
    """Allreduce ``buffers`` in place along ``schedule(p, n, itemsize)``.

    Every round is charged first, so a dead rank raises
    :class:`~repro.errors.CollectiveTimeout` before any buffer changes.
    The data then moves one :data:`WINDOW` at a time, each element seeing
    the operands, in the order, that a float64 copy of every buffer would:

    * a reduce sums into a float64 partial, which exists only for the
      ranges of the window the rank has been reduced into;
    * a copy reads final values: a source range still held as a partial
      is first finalized into its own buffer, then the values move.

    This relies on what every schedule here keeps: reduce rounds come
    before copy rounds, each move's range is wholly a partial or wholly
    not, and every final partial is copied from. One rank has no rounds;
    its buffer still takes the float64 round trip.
    """
    p = comm.p
    if len(buffers) != p:
        raise ValueError(f"expected {p} buffers, got {len(buffers)}")
    n, itemsize = check_buffers(buffers)
    rounds = list(schedule(p, n, itemsize))
    result = replay(comm, rounds)
    # A strided buffer is reduced through a contiguous copy, written back
    # below, so every NumPy call runs the contiguous loops.
    flat = [np.ascontiguousarray(b).reshape(-1) for b in buffers]
    partial = np.empty((p, min(n, WINDOW)))
    for a in range(0, n, WINDOW):
        b = min(a + WINDOW, n)
        if p == 1:
            finalize(flat[0][a:b], flat[0][a:b].astype(np.float64), p, average)
        live = np.zeros((p, b - a), dtype=bool)
        for rnd in rounds:
            for dst, src, lo, hi in rnd.moves:
                lo, hi = max(lo, a), min(hi, b)
                if lo >= hi:
                    continue
                w = slice(lo - a, hi - a)
                if rnd.reduce:
                    np.add(
                        partial[dst, w] if live[dst, lo - a] else flat[dst][lo:hi],
                        partial[src, w] if live[src, lo - a] else flat[src][lo:hi],
                        out=partial[dst, w], dtype=np.float64,
                    )
                    live[dst, w] = True
                else:
                    if live[src, lo - a]:
                        finalize(flat[src][lo:hi], partial[src, w], p, average)
                        live[src, w] = False
                    flat[dst][lo:hi] = flat[src][lo:hi]
                    live[dst, w] = False
    for buf, f in zip(buffers, flat):
        if not np.may_share_memory(buf, f):
            np.copyto(buf, f.reshape(buf.shape))
    return result
