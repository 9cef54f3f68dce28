"""Pins for the copy-free collective data path.

* The executor moves each round's ranges in place, with no copy, which is
  exact only if no move of a round reads a range another move of the same
  round writes. :func:`round_conflicts` checks that for every round of
  :func:`rhd_schedule` at p = 1..64 and of :func:`ring_schedule` and
  :func:`binomial_schedule` at p = 1..33 and 64, over lengths around p,
  and it must flag a hand-built round that breaks the rule.
* The executor keeps a float64 partial only where a rank has been reduced
  into, so it needs each schedule to reduce before it copies, to give
  every move a range that is wholly a partial or wholly not, and to copy
  from every final partial. :func:`contract_breaches` checks that for the
  same schedules at p = 1..33 and 64.
* ``finalize`` casts float64 sums into the caller's buffers with
  ``casting="unsafe"``, which is what ``astype`` does: integer buffers get
  the truncated mean. The RHD, ring and binomial allreduces must give
  int32 and int64 buffers exactly that, with and without ``average``.
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
from repro.simmpi.collectives.binomial import binomial_schedule
from repro.simmpi.collectives.reduce_ops import Round
from repro.simmpi.collectives.rhd import rhd_schedule
from repro.simmpi.collectives.ring import ring_schedule
from repro.topology import TaihuLightFabric


def round_conflicts(step: Round) -> list[tuple[tuple, tuple]]:
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


@pytest.mark.parametrize(
    "schedule, n_rounds", [(ring_schedule, 7090), (binomial_schedule, 1690)],
    ids=["ring", "binomial"],
)
def test_no_ring_or_binomial_round_reads_what_it_writes(schedule, n_rounds):
    rounds = 0
    for p in [*range(1, 34), 64]:
        for n in sorted({1, p - 1, p, p + 1, 1000, 7919}):
            for step in schedule(p, n, 4):
                assert not round_conflicts(step), (p, n, step)
                rounds += 1
    assert rounds == n_rounds


def contract_breaches(p: int, n: int, rounds: list[Round]) -> list[str]:
    """Where ``rounds`` break what the executor assumes of a schedule."""
    live = np.zeros((p, n), dtype=bool)  # holds a float64 partial
    written = np.zeros((p, n), dtype=bool)
    breaches = []
    copied = False
    for i, step in enumerate(rounds):
        copied = copied or not step.reduce
        if step.reduce and copied:
            breaches.append(f"round {i} reduces after a copy round")
        for dst, src, lo, hi in step.moves:
            if lo == hi:
                continue
            for rank in (src, dst) if step.reduce else (src,):
                if 0 < np.count_nonzero(live[rank, lo:hi]) < hi - lo:
                    breaches.append(f"round {i} move {(dst, src, lo, hi)} "
                                    f"is partly a partial")
            if not step.reduce:
                live[src, lo:hi] = False  # finalized before it is copied
            live[dst, lo:hi] = step.reduce
            written[dst, lo:hi] = True
    if live.any():
        breaches.append("a partial is never copied from")
    if p > 1 and not written.all():
        breaches.append("an element no round writes")
    return breaches


@pytest.mark.parametrize("schedule", [rhd_schedule, ring_schedule, binomial_schedule],
                         ids=lambda f: f.__name__)
def test_schedules_keep_the_executor_contract(schedule):
    for p in [*range(1, 34), 64]:
        for n in sorted({0, 1, p - 1, p, p + 1, 1000}):
            assert not contract_breaches(p, n, list(schedule(p, n, 4))), (p, n)


def test_contract_checker_flags_a_breach():
    # Rank 0 is copied into and then reduced into; rank 1's partial of
    # [0, 2) is copied from only in half.
    rounds = [Round([(0, 1, 8.0)], [(1, 0, 0, 2)], True, 8.0),
              Round([(0, 1, 4.0)], [(0, 1, 0, 1)], False, 0.0),
              Round([(0, 1, 8.0)], [(0, 1, 0, 2)], True, 8.0)]
    assert contract_breaches(2, 2, rounds) == [
        "round 2 reduces after a copy round",
        "round 2 move (0, 1, 0, 2) is partly a partial",
        "a partial is never copied from",
    ]


def test_checker_flags_a_conflicting_round():
    # Rank 0 receives [0, 4) from rank 1 while rank 2 reads rank 0's [2, 6).
    bad = Round([(0, 1, 16.0), (0, 2, 16.0)],
                  [(0, 1, 0, 4), (2, 0, 2, 6)], True, 16.0)
    assert round_conflicts(bad) == [((2, 0, 2, 6), (0, 1, 0, 4))]
    # Adjacent halves, as recursive halving exchanges them, do not overlap.
    ok = Round([(0, 1, 16.0)], [(0, 1, 0, 4), (1, 0, 4, 8)], True, 16.0)
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
