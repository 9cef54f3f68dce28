"""Tests for the register-communication GEMM plan (Sec. IV-A)."""

import pytest

from repro.errors import PlanError
from repro.kernels.gemm import GemmBlocking, SWGemmPlan


class TestPlanFunctional:
    def test_bad_dims_rejected(self):
        with pytest.raises(PlanError):
            SWGemmPlan(0, 4, 4)

    def test_nonpositive_dtype_bytes_rejected(self):
        # Such a GEMM would move no memory (dma_s == 0).
        for dtype_bytes in (0, -4):
            with pytest.raises(PlanError, match="dtype_bytes"):
                SWGemmPlan(64, 64, 64, dtype_bytes=dtype_bytes)


class TestPlanCostModel:
    def test_blocking_fits_ldm(self):
        for dims in [(64, 64, 64), (512, 3136, 2304), (4096, 4096, 4096), (8, 50000, 27)]:
            plan = SWGemmPlan(*dims)
            blk = plan.blocking
            assert plan._ldm_fit(blk.mb, blk.nb, blk.kb)

    def test_large_square_gemm_is_compute_bound(self):
        plan = SWGemmPlan(2048, 2048, 2048, dtype_bytes=8)
        cost = plan.cost()
        assert cost.compute_s > cost.dma_s
        # Sustained performance should be a large fraction of the 742 GFlops
        # CPE-cluster peak for big double-precision GEMM.
        assert cost.gflops > 400

    def test_single_precision_pays_conversion_tax(self):
        d = SWGemmPlan(1024, 1024, 1024, dtype_bytes=8).cost()
        s = SWGemmPlan(1024, 1024, 1024, dtype_bytes=4).cost()
        assert s.compute_s > d.compute_s

    def test_small_k_degrades_gflops(self):
        # The paper: conv1_1's K*K*Ni = 27 contraction makes GEMM slow.
        small = SWGemmPlan(64, 50176, 27).cost()
        big = SWGemmPlan(256, 3136, 2304).cost()
        assert small.gflops < 0.5 * big.gflops

    def test_small_m_degrades_gflops(self):
        # "to make GEMM compute-bounded, we have to make m > 160"
        small = SWGemmPlan(32, 4096, 1024).cost()
        big = SWGemmPlan(512, 4096, 1024).cost()
        assert small.gflops < big.gflops

    def test_flops_counted_exactly(self):
        plan = SWGemmPlan(10, 20, 30)
        assert plan.cost().flops == 2 * 10 * 20 * 30

    def test_blocking_avoids_ragged_fringe(self):
        # Regression (fuzzer-surfaced): scoring candidates by raw intensity
        # picked mb=384 for m=498 — a 384+114 split whose fringe block the
        # efficiency model prices far below an even 2x256 split — so the
        # achieved rate *dropped* when m doubled from 249. The chooser now
        # minimizes modeled time over feasible blockings.
        plan = SWGemmPlan(498, 64, 65)
        assert 498 / (-(-498 // plan.blocking.mb) * plan.blocking.mb) > 0.9
        assert plan.cost().gflops >= SWGemmPlan(249, 64, 65).cost().gflops * 0.999

    def test_chosen_blocking_is_modeled_optimal(self):
        # The chooser's objective and cost() must agree: no feasible
        # blocking in the chooser's candidate space may beat the chosen
        # one. (Candidates are clamped to one mesh row past each dim —
        # the library does not pad dims far beyond their extent.)
        for dims in [(498, 64, 65), (512, 512, 512), (8, 50000, 27)]:
            plan = SWGemmPlan(*dims)
            chosen = plan.cost().total_s
            mesh = plan.params.cpe_rows
            candidates = [mesh * x for x in (1, 2, 4, 8, 16, 24, 32, 48, 64)]

            def opts(dim):
                return [c for c in candidates if c < dim + mesh] or [mesh]

            for mb in opts(dims[0]):
                for nb in opts(dims[1]):
                    for kb in opts(dims[2]):
                        if not plan._ldm_fit(mb, nb, kb):
                            continue
                        alt = plan._cost_for(GemmBlocking(mb, nb, kb))
                        assert chosen <= alt.total_s * (1 + 1e-12)

    def test_traffic_includes_panel_rereads(self):
        plan = SWGemmPlan(1024, 1024, 1024, dtype_bytes=4)
        blk = plan.blocking
        n_blocks = -(-1024 // blk.nb)
        m_blocks = -(-1024 // blk.mb)
        expected = (
            n_blocks * 1024 * 1024 * 4 + m_blocks * 1024 * 1024 * 4 + 2 * 1024 * 1024 * 4
        )
        assert plan.traffic_bytes() == pytest.approx(expected)

    def test_cost_positive_and_finite(self):
        cost = SWGemmPlan(100, 100, 100).cost()
        assert 0 < cost.total_s < 1.0
        assert cost.total_s >= max(cost.compute_s, cost.dma_s, cost.rlc_s)

    def test_rlc_overlaps_under_compute_for_big_gemm(self):
        cost = SWGemmPlan(2048, 2048, 2048, dtype_bytes=8).cost()
        assert cost.rlc_s < cost.compute_s
