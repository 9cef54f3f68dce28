"""Tests for the TaihuLight interconnect model (paper Sec. II-B / Fig. 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.topology.cost_model import (
    OVERSUBSCRIPTION,
    SW_LINEAR,
    SW_NETWORK,
    LinearCostModel,
)
from repro.topology.fabric import TaihuLightFabric
from repro.topology.infiniband import INFINIBAND_FDR


class TestLinearCostModel:
    def test_ptp_is_affine(self):
        m = LinearCostModel(alpha=1e-6, beta1=1e-10, beta2=4e-10, gamma=3e-10)
        assert m.ptp_time(0) == pytest.approx(1e-6)
        assert m.ptp_time(1e6) == pytest.approx(1e-6 + 1e-4)
        assert m.ptp_time(1e6, cross_supernode=True) == pytest.approx(1e-6 + 4e-4)

    def test_sw_linear_oversubscription_factor(self):
        assert SW_LINEAR.beta2 / SW_LINEAR.beta1 == pytest.approx(OVERSUBSCRIPTION)

    def test_reduce_time(self):
        m = LinearCostModel(alpha=0, beta1=0, beta2=0, gamma=2e-10)
        assert m.reduce_time(1e9) == pytest.approx(0.2)


class TestNetworkModel:
    def test_sw_peak_exceeds_infiniband(self):
        # Fig. 6: SW reaches higher peak uni-directional bandwidth...
        big = 4 * 1024 * 1024
        assert SW_NETWORK.bandwidth(big) > INFINIBAND_FDR.bandwidth(big)

    def test_sw_latency_worse_above_2kb(self):
        # ...but has higher latency for messages larger than ~2 KB.
        for n in (4 * 1024, 32 * 1024, 256 * 1024):
            assert SW_NETWORK.ptp_time(n) > INFINIBAND_FDR.ptp_time(n)

    def test_sw_achieves_about_12gbs(self):
        # Sec. II-B: "it only achieves 12GB/s" for very large MPI messages.
        bw = SW_NETWORK.bandwidth(64 * 1024 * 1024)
        assert 11e9 <= bw <= 12e9

    def test_oversubscribed_quarter_bandwidth(self):
        n = 1024 * 1024
        full = SW_NETWORK.bandwidth(n)
        over = SW_NETWORK.bandwidth(n, oversubscribed=True)
        assert over == pytest.approx(full / OVERSUBSCRIPTION)

    @given(st.integers(min_value=1, max_value=2**22), st.integers(min_value=1, max_value=2**22))
    def test_ptp_time_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert SW_NETWORK.ptp_time(lo) <= SW_NETWORK.ptp_time(hi) + 1e-15

    def test_zero_bytes(self):
        assert SW_NETWORK.bandwidth(0) == 0.0
        assert SW_NETWORK.ptp_time(0) == SW_NETWORK.alpha


class TestFabric:
    def test_supernode_assignment(self):
        fab = TaihuLightFabric(n_nodes=1024, nodes_per_supernode=256)
        assert fab.supernode_of(0) == 0
        assert fab.supernode_of(255) == 0
        assert fab.supernode_of(256) == 1
        assert fab.same_supernode(0, 255)
        assert not fab.same_supernode(255, 256)

    def test_partial_supernode(self):
        fab = TaihuLightFabric(n_nodes=300, nodes_per_supernode=256)
        last = [node for node in range(fab.n_nodes) if fab.supernode_of(node) == 1]
        assert last == list(range(256, 300))

    def test_ptp_time_cross_is_slower(self):
        fab = TaihuLightFabric(n_nodes=512, nodes_per_supernode=256)
        n = 1024 * 1024
        intra = fab.ptp_time(0, 1, n)
        cross = fab.ptp_time(0, 511, n)
        assert cross > intra

    def test_self_message_free(self):
        fab = TaihuLightFabric(n_nodes=8, nodes_per_supernode=4)
        assert fab.ptp_time(3, 3, 1024) == 0.0

    def test_bad_node_rejected(self):
        fab = TaihuLightFabric(n_nodes=8)
        with pytest.raises(ValueError):
            fab.ptp_time(0, 8, 10)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            TaihuLightFabric(n_nodes=0)
        with pytest.raises(ValueError):
            TaihuLightFabric(n_nodes=4, nodes_per_supernode=0)
