"""Tests for the RLC, MPE and CoreGroup models."""

import pytest

from repro.hw.clock import SimClock
from repro.hw.core_group import CoreGroup
from repro.hw.mpe import MPE
from repro.hw.rlc import RegisterComm
from repro.hw.spec import SW_PARAMS


class TestRegisterComm:
    def test_row_and_column_pairs_legal(self):
        rlc = RegisterComm()
        rlc.validate_pair((2, 0), (2, 7))  # same row
        rlc.validate_pair((0, 3), (7, 3))  # same column

    def test_diagonal_pair_rejected(self):
        rlc = RegisterComm()
        with pytest.raises(ValueError):
            rlc.validate_pair((0, 0), (1, 1))

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            RegisterComm().validate_pair((3, 3), (3, 3))

    def test_out_of_mesh_rejected(self):
        with pytest.raises(ValueError):
            RegisterComm().validate_pair((0, 0), (0, 8))

    def test_broadcast_faster_than_p2p(self):
        # Paper [7]: 4461 GB/s broadcast vs 2549 GB/s P2P aggregate.
        rlc = RegisterComm()
        n = 1 << 20
        assert rlc.broadcast_time(n) < rlc.p2p_time(n)

    def test_word_granularity_is_256_bits(self):
        assert RegisterComm().word_bytes == 32

    def test_charge_advances_clock(self):
        clock = SimClock()
        rlc = RegisterComm(clock=clock)
        rlc.charge_broadcast(1024)
        rlc.charge_p2p(1024)
        assert clock.category_total("rlc") == pytest.approx(clock.now)
        assert clock.now > 0

    def test_zero_bytes_free(self):
        assert RegisterComm().p2p_time(0) == 0.0


class TestMPE:
    def test_copy_slower_than_dma(self):
        # Principle 2: the memory-to-MPE copy path (9.9 GB/s) is far
        # slower than CPE-cluster DMA (28 GB/s).
        mpe = MPE()
        assert mpe.copy_bandwidth < SW_PARAMS.dma_peak_bw

    def test_copy_time(self):
        mpe = MPE()
        assert mpe.copy_time(9.9e9) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            mpe.copy_time(-1)

    def test_charges_categorized(self):
        clock = SimClock()
        mpe = MPE(clock=clock)
        mpe.charge_copy(1e6)
        mpe.charge_compute(1e6)
        assert clock.category_total("mpe_copy") > 0
        assert clock.category_total("mpe_compute") > 0


class TestCoreGroup:
    def test_has_64_cpes(self):
        cg = CoreGroup()
        assert cg.n_cpes == 64

    def test_phase_overlap_rule(self):
        cg = CoreGroup()
        # Compute-dominated phase: total == compute.
        cost = cg.phase_cost(flops=742.4e9, compute_efficiency=1.0, dma_bytes=1024)
        assert cost.total_s == pytest.approx(cost.compute_s)
        # DMA-dominated phase: total == dma.
        cost = cg.phase_cost(flops=1e6, dma_bytes=28e9)
        assert cost.total_s == pytest.approx(cost.dma_s)

    def test_serialized_rlc_adds(self):
        cg = CoreGroup()
        over = cg.phase_cost(flops=1e9, rlc_bytes=1e9, rlc_overlapped=False)
        under = cg.phase_cost(flops=1e9, rlc_bytes=1e9, rlc_overlapped=True)
        assert over.total_s > under.total_s

    def test_run_phase_advances_clock(self):
        cg = CoreGroup()
        cg.run_phase(flops=1e9)
        assert cg.clock.now > 0
        assert cg.clock.category_total("kernel") == pytest.approx(cg.clock.now)

    def test_shared_clock_across_engines(self):
        cg = CoreGroup()
        cg.dma.get.__self__.clock.advance(0)  # same object
        assert cg.dma.clock is cg.clock
        assert cg.rlc.clock is cg.clock
