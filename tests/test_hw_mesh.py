"""Tests for the RLC model and the MPE rates the naive port prices with."""

from repro.harness.naive_port import compare_streaming
from repro.hw.rlc import RegisterComm


class TestRegisterComm:
    def test_zero_bytes_free(self):
        assert RegisterComm().broadcast_time(0) == 0.0


class TestMPE:
    def test_copy_slower_than_dma(self):
        # Principle 2: the memory-to-MPE copy path (9.9 GB/s) is far
        # slower than CPE-cluster DMA (28 GB/s).
        port = compare_streaming()
        assert port.naive_mpe_s > 2 * port.swcaffe_s
