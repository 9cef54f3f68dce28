"""Tests for the DMA bandwidth model (paper Fig. 2 / Principles 2-3)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hw.dma import DMAEngine
from repro.hw.rlc import RegisterComm


@pytest.fixture()
def dma():
    return DMAEngine()


class TestCalibration:
    def test_saturation_near_28gbs(self, dma):
        # Fig. 2: 64 CPEs with large continuous transfers saturate ~28 GB/s.
        bw = dma.aggregate_bandwidth(32 * 1024, 64)
        assert 26e9 <= bw <= 28.5e9

    def test_2kb_per_cpe_reaches_most_of_peak(self, dma):
        # Principle 3: >= 2 KB per CPE gives "satisfactory" bandwidth.
        bw = dma.aggregate_bandwidth(2048, 64)
        assert bw >= 0.6 * dma.params.dma_peak_bw

    def test_single_cpe_cannot_saturate(self, dma):
        # Principle 3: transfers must be issued from all 64 CPEs.
        bw1 = dma.aggregate_bandwidth(32 * 1024, 1)
        bw64 = dma.aggregate_bandwidth(32 * 1024, 64)
        assert bw1 < 0.35 * bw64

    def test_small_transfers_are_slow(self, dma):
        bw_small = dma.aggregate_bandwidth(128, 64)
        bw_big = dma.aggregate_bandwidth(32 * 1024, 64)
        assert bw_small < 0.2 * bw_big

    def test_strided_256b_blocks_acceptable(self, dma):
        # Principle 3: strided blocks should be >= 256 B.
        bw256 = dma.aggregate_bandwidth(32 * 1024, 64, block_bytes=256)
        bw_cont = dma.aggregate_bandwidth(32 * 1024, 64)
        assert bw256 >= 0.55 * bw_cont

    def test_strided_tiny_blocks_collapse(self, dma):
        bw8 = dma.aggregate_bandwidth(32 * 1024, 64, block_bytes=8)
        bw_cont = dma.aggregate_bandwidth(32 * 1024, 64)
        assert bw8 < 0.15 * bw_cont


class TestMonotonicity:
    @given(
        n1=st.integers(min_value=64, max_value=48 * 1024),
        n2=st.integers(min_value=64, max_value=48 * 1024),
        cpes=st.sampled_from([1, 8, 16, 32, 64]),
    )
    def test_bandwidth_monotone_in_size(self, n1, n2, cpes):
        dma = DMAEngine()
        lo, hi = sorted((n1, n2))
        assert dma.aggregate_bandwidth(lo, cpes) <= dma.aggregate_bandwidth(hi, cpes) + 1e-6

    @given(
        size=st.integers(min_value=64, max_value=48 * 1024),
        c1=st.integers(min_value=1, max_value=64),
        c2=st.integers(min_value=1, max_value=64),
    )
    def test_bandwidth_monotone_in_cpes(self, size, c1, c2):
        dma = DMAEngine()
        lo, hi = sorted((c1, c2))
        assert dma.aggregate_bandwidth(size, lo) <= dma.aggregate_bandwidth(size, hi) + 1e-6

    @given(
        size=st.integers(min_value=256, max_value=32 * 1024),
        b1=st.integers(min_value=4, max_value=16 * 1024),
        b2=st.integers(min_value=4, max_value=16 * 1024),
    )
    def test_bandwidth_monotone_in_block(self, size, b1, b2):
        dma = DMAEngine()
        lo, hi = sorted((b1, b2))
        assert (
            dma.aggregate_bandwidth(size, 64, block_bytes=lo)
            <= dma.aggregate_bandwidth(size, 64, block_bytes=hi) + 1e-6
        )

    def test_never_exceeds_peak(self):
        dma = DMAEngine()
        for size in (128, 1024, 48 * 1024):
            for cpes in (1, 8, 64):
                assert dma.aggregate_bandwidth(size, cpes) <= dma.params.dma_peak_bw + 1e-3


class TestTransferTime:
    def test_includes_latency(self, dma):
        t = dma.transfer_time(1, 1)
        assert t >= dma.params.dma_latency_s

    def test_zero_bytes_is_free(self, dma):
        assert dma.transfer_time(0, 64) == 0.0

    def test_invalid_cpe_count_raises(self, dma):
        with pytest.raises(ValueError):
            dma.aggregate_bandwidth(1024, 0)
        with pytest.raises(ValueError):
            dma.aggregate_bandwidth(1024, 65)

    def test_bulk_time_uses_full_cluster(self, dma):
        total = 64 * 2048
        assert dma.bulk_time(total) == pytest.approx(dma.transfer_time(2048, 64))


class TestArrayPricing:
    """One call prices an array of transfers, as the GEMM blocking search
    does for its whole candidate grid."""

    rng = np.random.default_rng(0xD3A)
    nbytes = rng.uniform(1.0, 1e9, size=(3, 4, 5))
    blocks = rng.integers(1, 8192, size=(3, 4, 5))

    def test_bulk_time_equals_scalar_calls_bitwise(self, dma):
        got = dma.bulk_time(self.nbytes, block_bytes=self.blocks)
        assert got.shape == self.nbytes.shape
        assert got.ravel().tolist() == [
            dma.bulk_time(float(n), block_bytes=int(b))
            for n, b in zip(self.nbytes.flat, self.blocks.flat)
        ]
        continuous = dma.bulk_time(self.nbytes)
        assert continuous.ravel().tolist() == [dma.bulk_time(float(n)) for n in self.nbytes.flat]

    def test_broadcast_time_equals_scalar_calls_bitwise(self):
        rlc = RegisterComm()
        for n_concurrent in (1, 4):
            got = rlc.broadcast_time(self.nbytes, n_concurrent)
            want = [rlc.broadcast_time(float(n), n_concurrent) for n in self.nbytes.flat]
            assert got.ravel().tolist() == want

    def test_scalar_calls_return_python_floats(self, dma):
        rlc = RegisterComm()
        for nbytes in (4096, 4096.0, np.float64(4096.0)):
            assert type(dma.bulk_time(nbytes)) is float
            assert type(dma.bulk_time(nbytes, block_bytes=256)) is float
        for nbytes in (4096, 4096.0):
            assert type(rlc.broadcast_time(nbytes)) is float

    def test_nonpositive_scalar_bytes_are_free(self, dma):
        rlc = RegisterComm()
        for nbytes in (0, 0.0, -1, -4096.0):
            assert dma.bulk_time(nbytes) == 0.0
            assert dma.bulk_time(nbytes, block_bytes=256) == 0.0
            assert rlc.broadcast_time(nbytes) == 0.0
