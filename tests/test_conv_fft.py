"""Tests for the FFT convolution plan (the alternative the paper rejects)."""

import pytest

from repro.errors import PlanError
from repro.kernels.conv_explicit import ExplicitConvPlan
from repro.kernels.conv_fft import FFTConvPlan
from repro.kernels.conv_implicit import ImplicitConvPlan


class TestFunctional:
    def test_stride_rejected(self):
        with pytest.raises(PlanError):
            FFTConvPlan(1, 4, 4, 8, 8, 3, stride=2)

    def test_fft_size_is_power_of_two(self):
        plan = FFTConvPlan(1, 3, 8, 27, 27, 5, pad=2)
        assert plan.fft_size & (plan.fft_size - 1) == 0
        assert plan.fft_size >= 27 + 4 + 4  # padded image + kernel - 1


class TestCostModel:
    @pytest.mark.parametrize(
        "ni,no,img",
        [(64, 64, 224), (128, 128, 112), (256, 256, 56), (512, 512, 14)],
    )
    def test_fft_loses_on_vgg_shapes(self, ni, no, img):
        """The paper's design decision: on SW26010's tiny LDM, the
        time-domain plans beat FFT for every VGG-16 layer shape."""
        batch = 128
        fft = FFTConvPlan(batch, ni, no, img, img, 3, 1, 1).cost_forward().total_s
        explicit = ExplicitConvPlan(batch, ni, no, img, img, 3, 1, 1).cost_forward().total_s
        implicit = ImplicitConvPlan(batch, ni, no, img, img, 3, 1, 1).cost_forward().total_s
        assert min(explicit, implicit) < fft

    def test_fft_relative_cost_shrinks_with_kernel_size(self):
        """FFT's asymptotic advantage: its cost is kernel-size independent,
        so very large kernels narrow the gap."""
        batch, c, img = 8, 64, 64

        def ratio(k):
            fft = FFTConvPlan(batch, c, c, img, img, k, 1, k // 2).cost_forward().total_s
            direct = ExplicitConvPlan(batch, c, c, img, img, k, 1, k // 2).cost_forward().total_s
            return fft / direct

        assert ratio(11) < ratio(3)

    def test_cost_positive(self):
        cost = FFTConvPlan(4, 16, 16, 28, 28, 3, 1, 1).cost()
        assert cost.total_s > 0
        assert cost.flops > 0
