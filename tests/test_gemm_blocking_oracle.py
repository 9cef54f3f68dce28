"""The GEMM blocking search against a brute-force oracle.

``SWGemmPlan._candidate_scores`` scores the whole candidate grid with
``_cost_for``'s arithmetic in one NumPy pass. The oracle below is the
plain definition: build every LDM-feasible candidate, score it with
``_cost_for``, break ties toward higher intensity. Both must give every
candidate the same score and pick the same blocking, bit for bit, on
every GEMM shape the paper harnesses price and on a seeded grid of
shapes, under the machine's 64 KB LDM and a 16 KB one whose fit mask
cuts different candidates. Tier-1 checks every tenth grid tuple;
``REPRO_HEAVY=1`` checks all.
"""

import dataclasses
import math
import os
import random

import numpy as np
import pytest

from repro.errors import PlanError
from repro.harness import (
    fig8_alexnet_layers,
    fig9_vgg_layers,
    fig10_scalability,
    fig11_comm_ratio,
    table2_vgg_conv,
    table3_throughput,
)
from repro.hw.spec import SW_PARAMS
from repro.kernels import autotune, gemm
from repro.kernels.gemm import GemmBlocking, SWGemmPlan
from repro.perf import layer_cost

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))
GRID_SIZE = 4000
SMALL_LDM = dataclasses.replace(SW_PARAMS, ldm_bytes=16 * 1024)


def oracle_scores(plan: SWGemmPlan) -> dict[GemmBlocking, float]:
    """``_cost_for`` total of every LDM-feasible candidate, in (mb, nb, kb)
    order."""
    mesh = plan.params.cpe_rows
    candidates = [mesh * x for x in (1, 2, 4, 8, 16, 24, 32, 48, 64)]

    def opts(dim):
        return [c for c in candidates if c < dim + mesh] or [mesh]

    return {
        blk: plan._cost_for(blk).total_s
        for blk in (
            GemmBlocking(mb, nb, kb)
            for mb in opts(plan.m)
            for nb in opts(plan.n)
            for kb in opts(plan.k)
        )
        if plan._ldm_fit(blk.mb, blk.nb, blk.kb)
    }


def oracle(scores: dict[GemmBlocking, float]) -> GemmBlocking:
    """Lowest total, then highest intensity, then the first candidate."""
    return min(scores, key=lambda blk: (scores[blk], -blk.flop_per_byte))


def grid(n: int = GRID_SIZE, seed: int = 0xB10C) -> list[tuple[int, int, int, int]]:
    """Seeded (m, n, k, dtype_bytes) tuples: log-uniform dims from 1 to
    65536, a third of them placed within a mesh row of a candidate block
    size, where block counts and fringe utilisation change."""
    rng = random.Random(seed)
    sizes = [8 * x for x in (1, 2, 4, 8, 16, 24, 32, 48, 64)]

    def dim() -> int:
        if rng.random() < 1 / 3:
            return max(1, rng.choice(sizes) + rng.randint(-8, 8))
        return max(1, round(2 ** rng.uniform(0, 16)))

    return [(dim(), dim(), dim(), rng.choice((2, 4, 8))) for _ in range(n)]


def check(m, n, k, dtype_bytes, params=None) -> GemmBlocking:
    gemm._BLOCKING_CACHE.clear()
    plan = SWGemmPlan(m, n, k, dtype_bytes=dtype_bytes, params=params)
    scores = oracle_scores(plan)
    mb, nb, kb, total_s = plan._candidate_scores()
    searched = {
        GemmBlocking(int(mb.flat[i]), int(nb.flat[j]), int(kb.flat[l])): s
        for (i, j, l), s in np.ndenumerate(total_s)
        if s != math.inf
    }
    assert searched == scores, (m, n, k, dtype_bytes)  # every score, bit for bit
    want = oracle(scores)
    assert plan.blocking == want, (m, n, k, dtype_bytes)
    assert plan.cost() == plan._cost_for(want)
    return want


@pytest.fixture(scope="module")
def paper_shapes():
    """Every (params, m, n, k, dtype) key one cold paper pass searches."""
    autotune._CHOICE_CACHE.clear()  # a warm plan choice builds no GEMM plan
    gemm._BLOCKING_CACHE.clear()
    layer_cost._RECORDS.clear()
    for module in (
        table2_vgg_conv, fig8_alexnet_layers, fig9_vgg_layers,
        fig10_scalability, fig11_comm_ratio, table3_throughput,
    ):
        module.generate()
    return list(gemm._BLOCKING_CACHE)


def test_paper_shapes_match_oracle(paper_shapes):
    assert len(paper_shapes) > 200
    for params, m, n, k, dtype_bytes in paper_shapes:
        check(m, n, k, dtype_bytes, params)


def test_grid_matches_oracle():
    tuples = grid()
    assert len(set(tuples)) > 0.99 * GRID_SIZE
    shapes = tuples if HEAVY else tuples[::10]
    picks = [[check(*shape, params) for shape in shapes] for params in (SW_PARAMS, SMALL_LDM)]
    # The 16 KB LDM's fit mask changes some choices.
    assert picks[0] != picks[1]


def test_total_tie_goes_to_higher_intensity():
    gemm._BLOCKING_CACHE.clear()
    plan = SWGemmPlan(388, 10, 71, dtype_bytes=8)
    # (256, 16, 64) comes first and prices the same total; the larger
    # block moves fewer bytes per flop.
    assert plan._cost_for(GemmBlocking(256, 16, 64)).total_s == plan.cost().total_s
    assert plan.blocking == GemmBlocking(384, 16, 64)


def test_ldm_without_room_for_a_block_raises():
    gemm._BLOCKING_CACHE.clear()
    tiny = dataclasses.replace(SW_PARAMS, ldm_bytes=4 * 1024)
    with pytest.raises(PlanError, match="no LDM-feasible"):
        SWGemmPlan(64, 64, 64, params=tiny)


def test_cached_choice_is_reused():
    gemm._BLOCKING_CACHE.clear()
    first = SWGemmPlan(300, 200, 100).blocking
    assert SWGemmPlan(300, 200, 100).blocking is first
