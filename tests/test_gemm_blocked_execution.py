"""Fidelity tests: the blocked GEMM execution against the hardware model.

``run_blocked`` moves real panels through the DMA engine under the LDM
budget and runs the literal register-communication schedule per block —
the strongest evidence that the cost model and the functional algorithm
describe the same kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.harness import naive_port
from repro.hw.spec import SW_PARAMS
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Im2colPlan
from repro.kernels.plan import pricing_core_group


class TestRunBlocked:
    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=70),
        k=st.integers(min_value=1, max_value=70),
        n=st.integers(min_value=1, max_value=70),
    )
    def test_matches_matmul(self, m, k, n):
        rng = np.random.default_rng(m * 10007 + k * 101 + n)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        plan = SWGemmPlan(m, n, k, dtype_bytes=8)
        np.testing.assert_allclose(plan.run_blocked(a, b), a @ b, rtol=1e-9)

    def test_multi_block_shapes(self):
        # Force several outer blocks in every dimension.
        rng = np.random.default_rng(3)
        m, k, n = 600, 700, 650
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        plan = SWGemmPlan(m, n, k, dtype_bytes=4)
        blk = plan.blocking
        assert m > blk.mb or n > blk.nb or k > blk.kb  # really multi-block
        # float32 inputs accumulate ~1e-4 absolute error over k=700; entries
        # near zero make pure-relative comparison meaningless.
        np.testing.assert_allclose(
            plan.run_blocked(a, b), (a @ b).astype(np.float32), rtol=1e-3, atol=1e-3
        )

    def test_charges_dma_clock(self):
        rng = np.random.default_rng(0)
        plan = SWGemmPlan(64, 64, 64, dtype_bytes=8)
        before = plan.core_group.clock.now
        plan.run_blocked(rng.normal(size=(64, 64)), rng.normal(size=(64, 64)))
        assert plan.core_group.clock.now > before
        assert plan.core_group.clock.category_total("dma") > 0

    def test_ldm_budget_respected(self):
        rng = np.random.default_rng(1)
        plan = SWGemmPlan(512, 512, 512, dtype_bytes=4)
        plan.run_blocked(
            rng.normal(size=(512, 512)), rng.normal(size=(512, 512))
        )
        ldm = plan.core_group.cpes[0].ldm
        assert 0 < ldm.high_water <= ldm.capacity
        assert ldm.used == 0  # everything freed

    def test_shape_mismatch(self):
        plan = SWGemmPlan(4, 5, 6)
        with pytest.raises(PlanError):
            plan.run_blocked(np.ones((4, 5)), np.ones((5, 5)))


class TestExecutingPlansKeepTheirOwnCoreGroups:
    def test_a_run_charges_only_its_own_plan(self):
        # Plans price against one shared core group; a run must charge the
        # running plan's own clock and LDM, never the shared ones.
        rng = np.random.default_rng(2)
        gemm = SWGemmPlan(64, 48, 32, dtype_bytes=8)
        im2col = Im2colPlan(2, 6, 6, 3, 1, 1, dtype_bytes=8)
        idle = SWGemmPlan(64, 48, 32, dtype_bytes=8)
        shared = pricing_core_group(SW_PARAMS)
        assert gemm._cg is im2col._cg is idle._cg is shared
        priced = [plan.cost() for plan in (gemm, im2col, idle)]

        gemm.run_blocked(rng.normal(size=(64, 32)), rng.normal(size=(32, 48)))
        gemm_s = gemm.core_group.clock.now
        assert gemm_s > 0
        assert im2col.core_group.clock.now == 0.0
        im2col.run_staged(rng.normal(size=(2, 6, 6)))
        assert im2col.core_group.clock.now > 0
        assert gemm.core_group.clock.now == gemm_s

        assert idle.core_group.clock.now == 0.0
        assert shared.clock.now == 0.0
        assert all(cpe.ldm.high_water == 0 for cpe in shared.cpes)
        assert [plan.cost() for plan in (gemm, im2col, idle)] == priced


class TestNaivePortHarness:
    def test_swcaffe_beats_both_baselines(self):
        for row in naive_port.generate():
            assert row.swcaffe_s < row.naive_mpe_s, row.kernel
            assert row.swcaffe_s < row.cpe_no_ldm_s, row.kernel

    def test_gemm_naive_gap_is_large(self):
        # Principle 1's point: the MPE is ~64x weaker than the CPE cluster.
        row = naive_port.compare_gemm()
        assert row.speedup_vs_naive > 10

    def test_streaming_punishes_fine_grained_dma(self):
        # Principles 2/3: per-element strided DMA collapses bandwidth.
        row = naive_port.compare_streaming()
        assert row.speedup_vs_no_ldm > 5

    def test_render(self):
        assert "naive" in naive_port.render()
