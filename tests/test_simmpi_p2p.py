"""Point-to-point transport tests (:mod:`repro.simmpi.p2p`).

The transport follows the package's data/time split: payload delivery is
bitwise-exact and instantaneous (the simulator executes ranks in
dependency order), while the priced transfer windows ride the fabric cost
model. These tests pin both halves — mailbox semantics, clock accounting,
the nonblocking serial-fabric schedule with its hidden/exposed split,
endpoint validation, and the what-if ``p2p`` scale hook.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CollectiveTimeout, CommunicatorError
from repro.simmpi.p2p import P2PTransport
from repro.testing.registry import make_fuzz_comm, p2p_shift
from repro.trace.scaling import CostScaling, scaling
from repro.trace.tracer import Tracer, tracing


@pytest.fixture()
def transport():
    return P2PTransport(make_fuzz_comm(4))


class TestBlocking:
    def test_send_recv_is_bit_exact(self, transport):
        rng = np.random.default_rng(11)
        payload = rng.normal(size=(3, 17)).astype(np.float32)
        transport.send(0, 1, payload, tag="act")
        got = transport.recv(0, 1, tag="act")
        assert got.dtype == payload.dtype
        assert np.array_equal(got, payload)

    def test_send_copies_the_payload(self, transport):
        payload = np.ones(8)
        transport.send(0, 1, payload)
        payload[:] = -1.0
        assert np.array_equal(transport.recv(0, 1), np.ones(8))

    def test_mailbox_is_fifo_per_tag(self, transport):
        transport.send(0, 1, np.full(4, 1.0), tag="a")
        transport.send(0, 1, np.full(4, 2.0), tag="a")
        transport.send(0, 1, np.full(4, 9.0), tag="b")
        assert transport.recv(0, 1, tag="a")[0] == 1.0
        assert transport.recv(0, 1, tag="b")[0] == 9.0
        assert transport.recv(0, 1, tag="a")[0] == 2.0

    def test_send_advances_clock_by_priced_transfer(self, transport):
        payload = np.zeros(1024)
        before = transport.comm.clock.now
        res = transport.send(0, 1, payload)
        assert res.time_s == transport.comm.pair_time(0, 1, payload.nbytes)
        assert transport.comm.clock.now == pytest.approx(before + res.time_s)

    def test_unmatched_recv_raises(self, transport):
        with pytest.raises(CommunicatorError, match="no matching send"):
            transport.recv(2, 3, tag="nope")
        transport.send(0, 1, np.zeros(2), tag="t")
        transport.recv(0, 1, tag="t")
        with pytest.raises(CommunicatorError):
            transport.recv(0, 1, tag="t")

    @pytest.mark.parametrize("src,dst", [(-1, 0), (0, 4), (2, 2)])
    def test_endpoint_validation(self, transport, src, dst):
        with pytest.raises(CommunicatorError):
            transport.send(src, dst, np.zeros(2))

    def test_dead_endpoint_times_out(self):
        comm = make_fuzz_comm(4)
        comm.failed_ranks = frozenset({2})
        transport = P2PTransport(comm)
        with pytest.raises(CollectiveTimeout):
            transport.send(0, 2, np.zeros(4))
        with pytest.raises(CollectiveTimeout):
            transport.send(2, 0, np.zeros(4))
        # Transfers avoiding the dead rank still go through.
        transport.send(0, 1, np.zeros(4))


class TestNonblocking:
    def test_data_is_available_immediately(self, transport):
        payload = np.arange(6, dtype=np.float64)
        transport.isend(0, 1, payload, tag="g")
        assert np.array_equal(transport.irecv(0, 1, tag="g"), payload)

    def test_windows_are_serial_on_the_fabric(self, transport):
        a = transport.isend(0, 1, np.zeros(4096), ready_s=0.0)
        b = transport.isend(1, 2, np.zeros(4096), ready_s=0.0)
        c = transport.isend(2, 3, np.zeros(4096), ready_s=b.end_s + 1.0)
        assert a.start_s == 0.0
        assert b.start_s == a.end_s  # queued behind a
        assert c.start_s == c.ready_s  # fabric already free: starts at ready
        assert transport.fabric.free_s == c.end_s

    def test_wait_all_splits_hidden_and_exposed(self, transport):
        req = transport.isend(0, 1, np.zeros(65536), ready_s=0.0)
        transport.isend(1, 2, np.zeros(65536), ready_s=0.0)
        done = transport.wait_all(barrier_s=req.end_s)
        assert len(done) == 2 and all(r.done for r in done)
        assert done[0].hidden_before(req.end_s) == pytest.approx(done[0].dur_s)
        # The second window starts at the barrier: fully exposed.
        assert done[1].hidden_before(req.end_s) == 0.0
        assert transport.pending == []

    def test_service_spans_carry_ready_floor_and_chain(self, transport):
        tracer = Tracer()
        with tracing(tracer):
            transport.isend(0, 1, np.zeros(256), ready_s=0.5)
            transport.isend(1, 2, np.zeros(256), ready_s=0.0)
            transport.wait_all()
        svc = [s for s in tracer.spans
               if s.cat == "p2p_transfer" and s.track == "p2p/fabric"]
        assert len(svc) == 2
        assert all(s.start_s >= s.args["ready_s"] for s in svc)


class TestShift:
    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_rotates_buffers_bitwise(self, p):
        rng = np.random.default_rng([0xB0B, p])
        bufs = [rng.normal(size=37) for _ in range(p)]
        expect = [bufs[(r - 1) % p].copy() for r in range(p)]
        p2p_shift(make_fuzz_comm(p), bufs)
        for r in range(p):
            assert np.array_equal(bufs[r], expect[r])

    def test_singleton_is_a_no_op(self):
        bufs = [np.arange(5.0)]
        result = p2p_shift(make_fuzz_comm(1), bufs)
        assert result.time_s == 0.0
        assert np.array_equal(bufs[0], np.arange(5.0))


class TestScaling:
    def test_p2p_factor_scales_priced_time_not_data(self):
        payload = np.ones(2048)
        base = P2PTransport(make_fuzz_comm(4))
        t0 = base.send(0, 1, payload).time_s
        scaled = P2PTransport(make_fuzz_comm(4))
        with scaling(CostScaling({"p2p": 3.0})):
            res = scaled.send(0, 1, payload)
        assert res.time_s == pytest.approx(3.0 * t0)
        assert np.array_equal(scaled.recv(0, 1), payload)
