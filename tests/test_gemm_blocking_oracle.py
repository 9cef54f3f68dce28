"""The GEMM blocking search against a brute-force oracle.

``SWGemmPlan._choose_blocking`` scores candidates with ``_cost_for``'s
arithmetic evaluated inline and hoisted per block dimension. The oracle
below is the plain definition: build every LDM-feasible candidate, score
it with ``_cost_for``, break ties toward higher intensity. Both must pick
the same blocking and give the same ``cost()``, bit for bit, on every
GEMM shape the paper harnesses price and on a seeded grid of shapes.
Tier-1 checks every tenth grid tuple; ``REPRO_HEAVY=1`` checks all.
"""

import os
import random

import pytest

from repro.harness import (
    fig8_alexnet_layers,
    fig9_vgg_layers,
    fig10_scalability,
    fig11_comm_ratio,
    table2_vgg_conv,
    table3_throughput,
)
from repro.kernels import gemm
from repro.kernels.gemm import GemmBlocking, SWGemmPlan

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))
GRID_SIZE = 4000


def oracle(plan: SWGemmPlan) -> GemmBlocking:
    """Lowest ``_cost_for`` total over every LDM-feasible candidate."""
    mesh = plan.params.cpe_rows
    candidates = [mesh * x for x in (1, 2, 4, 8, 16, 24, 32, 48, 64)]

    def opts(dim):
        return [c for c in candidates if c < dim + mesh] or [mesh]

    best = None
    for mb in opts(plan.m):
        for nb in opts(plan.n):
            for kb in opts(plan.k):
                if not plan._ldm_fit(mb, nb, kb):
                    continue
                blk = GemmBlocking(mb, nb, kb)
                score = (plan._cost_for(blk).total_s, -blk.flop_per_byte)
                if best is None or score < best[:2]:
                    best = (*score, blk)
    return best[2]


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


def check(m, n, k, dtype_bytes, params=None) -> None:
    gemm._BLOCKING_CACHE.clear()
    plan = SWGemmPlan(m, n, k, dtype_bytes=dtype_bytes, params=params)
    want = oracle(plan)
    assert plan.blocking == want, (m, n, k, dtype_bytes)
    assert plan.cost() == plan._cost_for(want)


@pytest.fixture(scope="module")
def paper_shapes():
    """Every (params, m, n, k, dtype) key one cold paper pass searches."""
    gemm._BLOCKING_CACHE.clear()
    fig10_scalability._iteration_model.cache_clear()
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
    for m, n, k, dtype_bytes in tuples if HEAVY else tuples[::10]:
        check(m, n, k, dtype_bytes)


def test_cached_choice_is_reused():
    gemm._BLOCKING_CACHE.clear()
    first = SWGemmPlan(300, 200, 100).blocking
    assert SWGemmPlan(300, 200, 100).blocking is first
