"""Property tests on the cost models: the monotonicities and dominance
relations the paper's design arguments rely on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.kernels.conv_explicit import ExplicitConvPlan
from repro.kernels.conv_implicit import ImplicitConvPlan
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Im2colPlan
from repro.simmpi.collectives.analysis import (
    improved_allreduce_cost,
    original_allreduce_cost,
    stepwise_rhd_cost,
)
from repro.simmpi.comm import reduce_gamma
from repro.topology.cost_model import SW_COLLECTIVE_NETWORK, LinearCostModel

MODEL = LinearCostModel(alpha=1e-6, beta1=1e-10, beta2=4e-10, gamma=3e-11)


class TestGemmCostProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(min_value=8, max_value=512),
        n=st.integers(min_value=8, max_value=512),
        k=st.integers(min_value=8, max_value=512),
    )
    def test_cost_positive_and_flops_exact(self, m, n, k):
        cost = SWGemmPlan(m, n, k).cost()
        assert cost.total_s > 0
        assert cost.flops == 2.0 * m * n * k

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=8, max_value=256),
        n=st.integers(min_value=64, max_value=512),
        k=st.integers(min_value=64, max_value=512),
    )
    def test_efficiency_monotone_in_m(self, m, n, k):
        # The paper's small-m collapse ("m > 160 for compute-bound"): the
        # achieved rate never *drops* when m grows. (Total time can dip at
        # small m because the pipeline-fill penalty shrinks faster than the
        # work grows — the regime the paper tells you to avoid.)
        small = SWGemmPlan(m, n, k).cost()
        big = SWGemmPlan(2 * m, n, k).cost()
        assert big.gflops >= small.gflops * 0.999

    def test_never_exceeds_peak_rate(self):
        for dims in [(512, 512, 512), (2048, 2048, 2048), (64, 4096, 27)]:
            cost = SWGemmPlan(*dims, dtype_bytes=8).cost()
            assert cost.gflops <= 742.4 + 1e-6


class TestConvCostProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=32),
        channels=st.sampled_from([64, 128, 256]),
        img=st.sampled_from([14, 28, 56]),
    )
    def test_both_plans_price_same_flops(self, batch, channels, img):
        exp = ExplicitConvPlan(batch, channels, channels, img, img, 3, 1, 1)
        imp = ImplicitConvPlan(batch, channels, channels, img, img, 3, 1, 1)
        assert exp.cost_forward().flops == pytest.approx(imp.cost_forward().flops)

    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=16))
    def test_forward_cost_monotone_in_batch(self, batch):
        a = ExplicitConvPlan(batch, 64, 64, 28, 28, 3, 1, 1).cost_forward().total_s
        b = ExplicitConvPlan(batch + 1, 64, 64, 28, 28, 3, 1, 1).cost_forward().total_s
        assert b > a

    def test_implicit_per_image_efficiency_improves_with_batch(self):
        # The implicit layout vectorizes over batch: time per image drops.
        t8 = ImplicitConvPlan(8, 128, 128, 28, 28, 3, 1, 1).cost_forward().total_s / 8
        t128 = ImplicitConvPlan(128, 128, 128, 28, 28, 3, 1, 1).cost_forward().total_s / 128
        assert t128 < t8

    def test_input_grad_costs_more_than_forward_explicit(self):
        # Table II's configuration (batch 128): explicit in-diff is ~2x
        # the forward time for every row where both exist.
        plan = ExplicitConvPlan(128, 256, 256, 56, 56, 3, 1, 1)
        assert plan.cost_backward_input().total_s > plan.cost_forward().total_s

    def test_im2col_cost_scales_with_k_squared(self):
        small = Im2colPlan(64, 56, 56, 1).cost().dma_bytes
        big = Im2colPlan(64, 56, 56, 3, pad=1).cost().dma_bytes
        assert big >= 4.9 * small


class TestAllreduceCostProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        logp=st.integers(min_value=1, max_value=10),
        logq=st.integers(min_value=0, max_value=8),
        nbytes=st.floats(min_value=1e3, max_value=1e9),
    )
    def test_improved_never_worse_than_original(self, logp, logq, nbytes):
        p, q = 2**logp, 2**logq
        if q > p:
            q = p
        impr = improved_allreduce_cost(nbytes, p, q, MODEL)
        orig = original_allreduce_cost(nbytes, p, q, MODEL)
        assert impr <= orig + 1e-15

    @settings(max_examples=15, deadline=None)
    @given(
        logp=st.integers(min_value=1, max_value=10),
        nbytes=st.floats(min_value=1e4, max_value=1e9),
    )
    def test_stepwise_round_robin_beats_block(self, logp, nbytes):
        p = 2**logp
        q = min(256, p)
        gamma = reduce_gamma("cpe")
        rr = stepwise_rhd_cost(nbytes, p, q, SW_COLLECTIVE_NETWORK, gamma, "round-robin")
        blk = stepwise_rhd_cost(nbytes, p, q, SW_COLLECTIVE_NETWORK, gamma, "block")
        assert rr <= blk + 1e-15

    @settings(max_examples=15, deadline=None)
    @given(logp=st.integers(min_value=1, max_value=9))
    def test_stepwise_monotone_in_nodes(self, logp):
        p = 2**logp
        gamma = reduce_gamma("cpe")
        a = stepwise_rhd_cost(1e8, p, 256, SW_COLLECTIVE_NETWORK, gamma)
        b = stepwise_rhd_cost(1e8, 2 * p, 256, SW_COLLECTIVE_NETWORK, gamma)
        assert b > a

    def test_stepwise_validations(self):
        gamma = reduce_gamma("cpe")
        with pytest.raises(ValueError):
            stepwise_rhd_cost(1e6, 3, 1, SW_COLLECTIVE_NETWORK, gamma)
        with pytest.raises(ValueError):
            stepwise_rhd_cost(1e6, 8, 4, SW_COLLECTIVE_NETWORK, gamma, "diagonal")
        assert stepwise_rhd_cost(1e6, 1, 1, SW_COLLECTIVE_NETWORK, gamma) == 0.0
