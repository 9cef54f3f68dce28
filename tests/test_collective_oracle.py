"""The windowed allreduce executor against the float64-copy loops it replaced.

Each executed allreduce once copied every rank's buffer to float64, moved
the copies along its schedule and cast them back. Those three loops (RHD,
ring, binomial) are kept below verbatim as oracles. The shared executor,
:func:`repro.simmpi.collectives.reduce_ops.execute`, must leave the same
bytes in every buffer, return equal :class:`CollectiveResult` fields and
advance the communicator clock identically over:

* p in 1..33 and 64 (tier-1 runs a subset, ``REPRO_HEAVY=1`` all of it);
* lengths 0, 1, p - 1, p, p + 1 and W - 1, W, W + 1, 2W + 3 for the
  window W;
* float32, float64, int32 and int64 buffers holding +-0.0, NaN, +-inf,
  subnormals and int64 values above 2**53;
* ``average`` on and off, and one strided buffer in every case.

NaN: IEEE 754 leaves open which payload a sum of two NaNs keeps, and
NumPy's add keeps the first operand's in its vector body but the
second's in its remainder loop, so that choice depends on where an
element falls in a call. The inputs therefore write NaN as the platform's
default NaN, the one ``inf - inf`` produces, so every NaN a sum meets has
one bit pattern and the buffers compare byte for byte.

Two more checks: a dead rank raises before any caller buffer changes, and
a 4 x 2**20 float32 allreduce through each algorithm peaks under 2 MB of
traced allocations.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.errors import CollectiveTimeout
from repro.simmpi import (
    SimComm,
    binomial_allreduce,
    block_placement,
    rhd_allreduce,
    ring_allreduce,
    topo_aware_allreduce,
)
from repro.simmpi.collectives.reduce_ops import WINDOW, block_offsets, check_buffers
from repro.simmpi.collectives.rhd import rhd_schedule
from repro.simmpi.comm import CollectiveResult
from repro.topology import TaihuLightFabric

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))


# --------------------------------------------------------------------------- #
# oracles: the float64-copy data paths, verbatim
# --------------------------------------------------------------------------- #
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


def oracle_rhd(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
    p = comm.p
    if len(buffers) != p:
        raise ValueError(f"expected {p} buffers, got {len(buffers)}")
    n, itemsize = check_buffers(buffers)
    result = CollectiveResult()
    work = [np.array(b, dtype=np.float64, copy=True).ravel() for b in buffers]
    for step in rhd_schedule(p, n, itemsize):
        # Every exchange of a round reads pre-round data: no move reads a
        # range another move of its round writes, so none needs a copy.
        for dst, src, lo, hi in step.moves:
            if step.reduce:
                work[dst][lo:hi] += work[src][lo:hi]
            else:
                work[dst][lo:hi] = work[src][lo:hi]
        comm.account_step(result, step.pairs, reduce_bytes=step.reduce_bytes)
    finalize(buffers, work, average)
    return result


def oracle_ring(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
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


def oracle_binomial(
    comm: SimComm, buffers: list[np.ndarray], *, average: bool = False
) -> CollectiveResult:
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


ALGOS = {
    "rhd": (rhd_allreduce, oracle_rhd),
    "ring": (ring_allreduce, oracle_ring),
    "binomial": (binomial_allreduce, oracle_binomial),
}


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
DTYPES = [np.float32, np.float64, np.int32, np.int64]


def _comm(p: int) -> SimComm:
    # Supernodes of 4: every p > 4 mixes intra- and cross-supernode pairs.
    return SimComm(TaihuLightFabric(n_nodes=max(p, 4), nodes_per_supernode=4),
                   block_placement(p, 1))


def _values(rng: np.random.Generator, n: int, dtype) -> np.ndarray:
    """``n`` elements of ``dtype``, about a tenth of them special values."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        inf = np.array(np.inf, dtype=dtype)
        with np.errstate(invalid="ignore"):
            default_nan = inf - inf
        tiny = np.finfo(dtype).smallest_subnormal
        specials = np.array([0.0, -0.0, default_nan, inf, -inf, tiny, -tiny,
                             3 * tiny], dtype=dtype)
        out = (rng.standard_normal(n) * 1e3).astype(dtype)
    else:
        # Sums of 64 ranks stay inside int32 / int64; the int64 values
        # above 2**53 round on their way into float64.
        hi = 2**20 if dtype == np.int32 else 2**56
        specials = np.array([0, -1, 1, hi - 1, -hi, 2**53 + 1, -(2**53 + 3)]
                            if dtype == np.int64 else [0, -1, 1, hi - 1, -hi],
                            dtype=dtype)
        out = rng.integers(-hi, hi, size=n, dtype=dtype)
    pick = rng.random(n) < 0.1
    out[pick] = specials[rng.integers(0, len(specials), size=int(pick.sum()))]
    return out


def _buffers(p: int, n: int, dtype, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [_values(rng, n, dtype) for _ in range(p)]


def _clone(bufs: list[np.ndarray]) -> list[np.ndarray]:
    """A copy of ``bufs`` in which rank ``p // 2``'s buffer is strided."""
    out = [b.copy() for b in bufs]
    mid = len(bufs) // 2
    out[mid] = np.zeros(2 * bufs[mid].size, dtype=bufs[mid].dtype)[::2]
    out[mid][...] = bufs[mid]
    return out


def _lengths(p: int) -> list[int]:
    return sorted({0, 1, p - 1, p, p + 1,
                   WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 3})


def _run(algo, p, bufs, average):
    comm = _comm(p)
    result = algo(comm, bufs, average=average)
    return result, comm.clock.now


def _check_equal(name: str, p: int, n: int, dtype, seed: int) -> None:
    executor, oracle = ALGOS[name]
    base = _buffers(p, n, dtype, seed)
    for average in (False, True):
        got, want = _clone(base), _clone(base)
        with np.errstate(invalid="ignore", over="ignore"):
            got_res, got_now = _run(executor, p, got, average)
            want_res, want_now = _run(oracle, p, want, average)
        case = (name, p, n, np.dtype(dtype).name, average)
        assert got_res == want_res, case
        assert got_now == want_now, case
        for r, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype and g.shape == w.shape, case
            assert g.tobytes() == w.tobytes(), (*case, r)


RANKS = list(range(1, 34)) + [64] if HEAVY else [1, 2, 3, 4, 5, 7, 8, 13]


@pytest.mark.parametrize("name", list(ALGOS))
@pytest.mark.parametrize("p", RANKS)
def test_executor_matches_float64_copy_oracle(name, p):
    # Tier-1: float32 plus one more dtype per p, int64 at p = 1, 5 and 13.
    dtypes = DTYPES if HEAVY else sorted({DTYPES[(p + 2) % 4], np.float32}, key=str)
    lengths = _lengths(p) if HEAVY else sorted({0, 1, p - 1, p, p + 1, WINDOW + 1})
    for i, dtype in enumerate(dtypes):
        for n in lengths:
            _check_equal(name, p, n, dtype, seed=1000 * p + 10 * n + i)


@pytest.mark.parametrize("name", list(ALGOS))
@pytest.mark.parametrize("p", [2, 5, 8])
def test_dead_rank_raises_before_any_buffer_changes(name, p):
    executor, oracle = ALGOS[name]
    base = _buffers(p, 3 * p + 1, np.float32, seed=p)
    bufs = _clone(base)
    before = [b.tobytes() for b in bufs]
    comm, ref = _comm(p), _comm(p)
    comm.failed_ranks = ref.failed_ranks = frozenset({p - 1})
    with pytest.raises(CollectiveTimeout):
        executor(comm, bufs, average=True)
    assert [b.tobytes() for b in bufs] == before
    # The rounds charged before the timeout are the oracle's, too.
    with pytest.raises(CollectiveTimeout), np.errstate(invalid="ignore"):
        oracle(ref, _clone(base), average=True)
    assert comm.clock.now == ref.clock.now


@pytest.mark.parametrize(
    "algo", [rhd_allreduce, ring_allreduce, binomial_allreduce, topo_aware_allreduce],
    ids=lambda f: f.__name__,
)
def test_large_allreduce_peaks_under_2mb(algo):
    p, n = 4, 1 << 20
    bufs = [np.full(n, r + 0.5, dtype=np.float32) for r in range(p)]
    comm = _comm(p)
    tracemalloc.start()
    try:
        algo(comm, bufs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert all((b == 8.0).all() for b in bufs)
