"""Tests for the simulated allreduce family.

Two pillars:

1. *Functional correctness* — every algorithm must leave every rank holding
   the exact elementwise sum (or mean) of all input buffers, for any rank
   count and vector length (hypothesis-driven).
2. *Cost-model fidelity* — simulated times over a LinearCostModel must
   match the paper's closed forms (Eqs. 2-6) to machine precision for
   power-of-two configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi.collectives.analysis import (
    improved_allreduce_cost,
    original_allreduce_cost,
)
from repro.simmpi.collectives.binomial import binomial_allreduce
from repro.simmpi.collectives.rhd import rhd_allreduce
from repro.simmpi.collectives.ring import ring_allreduce
from repro.simmpi.collectives.topo_aware import topo_aware_allreduce
from repro.simmpi.comm import SimComm, reduce_gamma
from repro.simmpi.reorder import block_placement, round_robin_placement, supernode_comm
from repro.testing.references import ring_allreduce_cost
from repro.topology.cost_model import LinearCostModel
from repro.topology.fabric import TaihuLightFabric

MODEL = LinearCostModel(alpha=1e-6, beta1=1e-10, beta2=4e-10, gamma=3e-10)

ALGOS = [ring_allreduce, binomial_allreduce, rhd_allreduce, topo_aware_allreduce]


def make_comm(p, q=4, placement="block", cost=MODEL):
    fab = TaihuLightFabric(n_nodes=max(p, q), nodes_per_supernode=q)
    if placement == "block":
        pl = block_placement(p, min(q, p) if p % min(q, p) == 0 else 1)
    else:
        pl = round_robin_placement(p, min(q, p) if p % min(q, p) == 0 else 1)
    return SimComm(fab, pl, cost=cost)


def random_buffers(p, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for _ in range(p)]


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 12, 16])
    def test_sum_matches_numpy(self, algo, p):
        n = 37
        bufs = random_buffers(p, n, seed=p)
        expected = np.sum(bufs, axis=0)
        comm = make_comm(p)
        algo(comm, bufs)
        for b in bufs:
            np.testing.assert_allclose(b, expected, rtol=1e-12)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_average(self, algo):
        p, n = 8, 64
        bufs = random_buffers(p, n)
        expected = np.mean(bufs, axis=0)
        algo(make_comm(p), bufs, average=True)
        for b in bufs:
            np.testing.assert_allclose(b, expected, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=13),
        n=st.integers(min_value=1, max_value=200),
        algo_idx=st.integers(min_value=0, max_value=len(ALGOS) - 1),
    )
    def test_property_sum(self, p, n, algo_idx):
        bufs = random_buffers(p, n, seed=p * 1000 + n)
        expected = np.sum(bufs, axis=0)
        ALGOS[algo_idx](make_comm(p), bufs)
        for b in bufs:
            np.testing.assert_allclose(b, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_multidimensional_buffers(self, algo):
        p = 4
        rng = np.random.default_rng(1)
        bufs = [rng.normal(size=(3, 5, 2)) for _ in range(p)]
        expected = np.sum(bufs, axis=0)
        algo(make_comm(p), bufs)
        for b in bufs:
            assert b.shape == (3, 5, 2)
            np.testing.assert_allclose(b, expected, rtol=1e-12)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_float32_buffers(self, algo):
        p = 4
        rng = np.random.default_rng(2)
        bufs = [rng.normal(size=50).astype(np.float32) for _ in range(p)]
        expected = np.sum([b.astype(np.float64) for b in bufs], axis=0)
        algo(make_comm(p), bufs)
        for b in bufs:
            assert b.dtype == np.float32
            np.testing.assert_allclose(b, expected, rtol=1e-5)

    def test_mismatched_buffer_count(self):
        comm = make_comm(4)
        with pytest.raises(ValueError):
            rhd_allreduce(comm, random_buffers(3, 8))


class TestCostModelFidelity:
    """Simulated step accounting must reproduce Eqs. 2-6 exactly."""

    @pytest.mark.parametrize("p,q", [(8, 4), (16, 4), (16, 8), (64, 16), (4, 4), (8, 8)])
    def test_rhd_block_matches_eq_3_4(self, p, q):
        n_elems = p * 16  # divisible by p so all halving splits are even
        nbytes = n_elems * 8
        comm = make_comm(p, q=q, placement="block")
        result = rhd_allreduce(comm, random_buffers(p, n_elems))
        expected = original_allreduce_cost(nbytes, p, q, MODEL)
        assert result.time_s == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p,q", [(8, 4), (16, 4), (16, 8), (64, 16), (8, 8)])
    def test_rhd_round_robin_matches_eq_5_6(self, p, q):
        n_elems = p * 16
        nbytes = n_elems * 8
        comm = make_comm(p, q=q, placement="round-robin")
        result = rhd_allreduce(comm, random_buffers(p, n_elems))
        expected = improved_allreduce_cost(nbytes, p, q, MODEL)
        assert result.time_s == pytest.approx(expected, rel=1e-12)

    def test_improved_beats_original_when_multi_supernode(self):
        p, q, nbytes = 64, 16, 1 << 20
        orig = original_allreduce_cost(nbytes, p, q, MODEL)
        impr = improved_allreduce_cost(nbytes, p, q, MODEL)
        assert impr < orig

    def test_schemes_coincide_single_supernode(self):
        p, nbytes = 16, 1 << 20
        orig = original_allreduce_cost(nbytes, p, 16, MODEL)
        impr = improved_allreduce_cost(nbytes, p, 16, MODEL)
        assert impr == pytest.approx(orig)

    def test_fig7_example_costs(self):
        """Fig. 7: p=8, q=4 closed forms.

        Original: 6a + 7/8 n gamma + 3/4 n b1 + n b2.
        Improved: 6a + 7/8 n gamma + 3/2 n b1 + 1/4 n b2.
        """
        n = 8 * 1024.0
        a, b1, b2, g = MODEL.alpha, MODEL.beta1, MODEL.beta2, MODEL.gamma
        orig = original_allreduce_cost(n, 8, 4, MODEL)
        impr = improved_allreduce_cost(n, 8, 4, MODEL)
        assert orig == pytest.approx(6 * a + 7 / 8 * n * g + 3 / 4 * n * b1 + n * b2)
        assert impr == pytest.approx(6 * a + 7 / 8 * n * g + 3 / 2 * n * b1 + 1 / 4 * n * b2)

    def test_ring_latency_term(self):
        p = 8
        n_elems = p * 4
        comm = make_comm(p, q=8, placement="block")
        result = ring_allreduce(comm, random_buffers(p, n_elems))
        assert result.alpha_count == 2 * (p - 1)
        expected = ring_allreduce_cost(n_elems * 8, p, 8, MODEL)
        assert result.time_s == pytest.approx(expected, rel=1e-12)

    def test_rhd_has_log_latency(self):
        p = 16
        comm = make_comm(p, q=16)
        result = rhd_allreduce(comm, random_buffers(p, p * 4))
        assert result.alpha_count == 2 * 4  # 2 log2(16)

    def test_cross_traffic_reduced_by_reordering(self):
        p, q = 64, 8
        n_elems = p * 8
        block = rhd_allreduce(
            make_comm(p, q=q, placement="block"), random_buffers(p, n_elems)
        )
        rr = rhd_allreduce(
            make_comm(p, q=q, placement="round-robin"), random_buffers(p, n_elems)
        )
        assert rr.bytes_cross < block.bytes_cross
        assert rr.time_s < block.time_s
        # total traffic is conserved
        assert rr.bytes_cross + rr.bytes_intra == pytest.approx(
            block.bytes_cross + block.bytes_intra
        )

    def test_topo_aware_entry_point_renumbers(self):
        # The renumbering lives in the communicator a trainer builds: the
        # topology-aware entry on round-robin ranks beats RHD on block ones.
        p, q = 32, 8
        n_elems = p * 8
        res_topo = topo_aware_allreduce(
            supernode_comm(p, q, round_robin_placement), random_buffers(p, n_elems)
        )
        res_block = rhd_allreduce(
            supernode_comm(p, q, block_placement), random_buffers(p, n_elems)
        )
        assert res_topo.bytes_cross < res_block.bytes_cross
        assert res_topo.time_s < res_block.time_s


class TestPlacements:
    @pytest.mark.parametrize("p,q", [(8, 4), (16, 4), (256, 256), (1024, 256)])
    def test_round_robin_is_permutation(self, p, q):
        pl = round_robin_placement(p, q)
        assert sorted(pl.physical) == list(range(p))

    def test_round_robin_example_from_paper(self):
        # 4 supernodes: logical ranks 0,4,8,... live in supernode 0.
        p, q = 16, 4
        pl = round_robin_placement(p, q)
        for L in range(p):
            assert pl.node_of(L) // q == L % (p // q)

    def test_block_is_identity(self):
        pl = block_placement(8, 4)
        assert pl.physical == tuple(range(8))

    def test_indivisible_rejected(self):
        from repro.errors import CommunicatorError

        with pytest.raises(CommunicatorError):
            round_robin_placement(10, 4)


class TestReduceGamma:
    def test_cpe_faster_than_mpe(self):
        assert reduce_gamma("cpe") < reduce_gamma("mpe")

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            reduce_gamma("gpu")


class TestIAllreduceQueue:
    """Nonblocking launch queue: exact data, scheduled time."""

    def make_queue(self, p=4):
        from repro.simmpi.nonblocking import IAllreduceQueue

        comm = make_comm(p)
        return comm, IAllreduceQueue(comm, rhd_allreduce, origin_s=0.0)

    def test_data_reduced_immediately_and_exactly(self):
        comm, queue = self.make_queue(4)
        rng = np.random.default_rng(7)
        inputs = [rng.normal(size=33) for _ in range(4)]
        expected = [b.copy() for b in inputs]
        rhd_allreduce(make_comm(4), expected, average=True)
        req = queue.iallreduce([b.copy() for b in inputs], average=True)
        for got, want in zip(req.buffers, expected):
            assert np.array_equal(got, want)

    def test_serial_fabric_schedule(self):
        comm, queue = self.make_queue(4)
        bufs = lambda: [np.ones(1000) for _ in range(4)]
        a = queue.iallreduce(bufs(), ready_s=0.0)
        b = queue.iallreduce(bufs(), ready_s=0.0)  # queued behind a
        c = queue.iallreduce(bufs(), ready_s=a.end_s + b.dur_s + 5.0)  # idle gap
        assert a.start_s == 0.0
        assert b.start_s == a.end_s
        assert c.start_s == c.ready_s  # fabric was free, starts when ready
        assert queue.fabric.free_s == c.end_s

    def test_hidden_before_barrier_accounting(self):
        comm, queue = self.make_queue(4)
        bufs = [np.ones(1000) for _ in range(4)]
        req = queue.iallreduce(bufs, ready_s=0.0)
        mid = req.start_s + req.dur_s / 2
        assert req.hidden_before(mid) == pytest.approx(req.dur_s / 2)
        assert req.hidden_before(req.end_s + 1) == pytest.approx(req.dur_s)
        assert req.hidden_before(req.start_s) == 0.0

    def test_fully_hidden_request_exposes_exactly_zero(self):
        # start=0.1, dur=0.2: end_s - start_s lands one ulp above dur_s,
        # which made `dur_s - hidden` negative and tripped the metrics
        # counter's >= 0 check. Hidden must clamp to exactly dur_s.
        from repro.simmpi.nonblocking import PendingCollective

        req = PendingCollective(tag="b0", ready_s=0.1, start_s=0.1, dur_s=0.2)
        assert req.hidden_before(1.0) == req.dur_s
        assert req.dur_s - req.hidden_before(1.0) == 0.0

    def test_wait_all_drains_in_launch_order(self):
        comm, queue = self.make_queue(2)
        tags = []
        for i in range(3):
            queue.iallreduce([np.ones(8), np.ones(8)], tag=f"b{i}")
        done = queue.wait_all(barrier_s=queue.fabric.free_s)
        assert [r.tag for r in done] == ["b0", "b1", "b2"]
        assert all(r.done for r in done)
        assert queue.pending == []

    def test_discard_drops_pending(self):
        comm, queue = self.make_queue(2)
        queue.iallreduce([np.ones(8), np.ones(8)])
        dropped = queue.discard()
        assert len(dropped) == 1 and queue.pending == []
        assert queue.wait_all() == []

    def test_overlap_spans_and_metrics_emitted(self):
        from repro.trace.tracer import Tracer, tracing

        tracer = Tracer()
        with tracing(tracer):
            comm, queue = self.make_queue(4)
            queue.iallreduce([np.ones(4096) for _ in range(4)], ready_s=0.0)
            queue.wait_all(barrier_s=1e9)  # everything hidden
        assert len([s for s in tracer.spans if s.cat == "collective_launch"]) == 1
        assert [s for s in tracer.spans if s.cat == "overlap_window"]
        service = [s for s in tracer.spans if s.cat == "collective_service"]
        assert sum(s.args["hidden_s"] for s in service) > 0
        assert sum(s.args["exposed_s"] for s in service) == 0
