"""Pins for the copy-free collective data path.

* An RHD move reads its peer's work slice directly, with no copy, which is
  exact only if no move of a round reads a range another move of the same
  round writes. :func:`round_conflicts` checks that for every round of
  :func:`rhd_schedule` at p = 1..64 over lengths around p, and it must
  flag a hand-built round that breaks the rule.
* ``finalize`` casts the float64 work vectors into the caller's buffers
  with ``casting="unsafe"``, which is what ``astype`` does: integer
  buffers get the truncated mean. The RHD, ring and binomial allreduces
  must give int32 and int64 buffers exactly that, with and without
  ``average``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi import (
    SimComm,
    binomial_allreduce,
    block_placement,
    rhd_allreduce,
    ring_allreduce,
)
from repro.simmpi.collectives.rhd import RHDStep, rhd_schedule
from repro.topology import TaihuLightFabric


def round_conflicts(step: RHDStep) -> list[tuple[tuple, tuple]]:
    """``(reading move, writing move)`` pairs of one round that overlap.

    A move ``(dst, src, lo, hi)`` reads ``src``'s ``[lo, hi)`` and writes
    ``dst``'s ``[lo, hi)``; empty ranges touch nothing.
    """
    writes: dict[int, list[tuple]] = {}
    for move in step.moves:
        dst, _, lo, hi = move
        if hi > lo:
            writes.setdefault(dst, []).append(move)
    conflicts = []
    for move in step.moves:
        _, src, lo, hi = move
        for w in writes.get(src, ()):
            if lo < w[3] and w[2] < hi:
                conflicts.append((move, w))
    return conflicts


def test_no_rhd_round_reads_what_it_writes():
    rounds = 0
    for p in range(1, 65):
        for n in sorted({1, p - 1, p, p + 1, 1000, 7919}):
            for step in rhd_schedule(p, n, 4):
                assert not round_conflicts(step), (p, n, step)
                rounds += 1
    assert rounds == 3850


def test_checker_flags_a_conflicting_round():
    # Rank 0 receives [0, 4) from rank 1 while rank 2 reads rank 0's [2, 6).
    bad = RHDStep([(0, 1, 16.0), (0, 2, 16.0)],
                  [(0, 1, 0, 4), (2, 0, 2, 6)], True, 16.0)
    assert round_conflicts(bad) == [((2, 0, 2, 6), (0, 1, 0, 4))]
    # Adjacent halves, as recursive halving exchanges them, do not overlap.
    ok = RHDStep([(0, 1, 16.0)], [(0, 1, 0, 4), (1, 0, 4, 8)], True, 16.0)
    assert round_conflicts(ok) == []


def _comm(p: int) -> SimComm:
    return SimComm(TaihuLightFabric(n_nodes=max(p, 4), nodes_per_supernode=4),
                   block_placement(p, 1))


@pytest.mark.parametrize("average", [False, True])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "algo", [rhd_allreduce, ring_allreduce, binomial_allreduce],
    ids=lambda f: f.__name__,
)
def test_integer_buffers_truncate_like_astype(algo, dtype, average):
    for p in (1, 2, 3, 4, 5, 7, 8):
        rng = np.random.default_rng(p)
        buffers = [rng.integers(-1000, 1000, size=(3, 13)).astype(dtype)
                   for _ in range(p)]
        # Small integers sum exactly in float64, in any order.
        total = np.sum([b.astype(np.float64) for b in buffers], axis=0)
        want = (total / p if average else total).astype(dtype)
        algo(_comm(p), buffers, average=average)
        for b in buffers:
            assert b.dtype == dtype
            np.testing.assert_array_equal(b, want)
