"""Conformance coverage for the point-to-point primitives.

``p2p_shift`` is a registered collective spec, so the registry-driven
``test_collective_conformance`` already differential-fuzzes it alongside
the allreduce family. This module adds what the registry sweep cannot:
the *faulted* contract at the same awkward rank set the clean equivalence
tests use — every chaos replay seed, ranks {2, 5, 8, 13}. A flaky link
retries the transfer with identical bytes, so injection may stretch
simulated time but must never change a bit of the delivered payloads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import injecting
from repro.faults.plan import FaultPlan
from repro.simmpi.p2p import P2PTransport
from repro.testing import differential
from repro.testing.registry import make_fuzz_comm, p2p_shift

#: Same rank set the clean collective-equivalence conformance tests sweep.
FAULTED_RANKS = (2, 5, 8, 13)


def test_p2p_shift_is_registered():
    from repro.testing.registry import collective_names

    assert "p2p_shift" in collective_names()


def test_p2p_shift_differential_fuzz(conformance_configs):
    reports = differential.fuzz_collective(
        "p2p_shift", n_configs=conformance_configs
    )
    assert len(reports) == conformance_configs
    bad = [r for r in reports if not r.ok]
    assert not bad, differential.summarize(reports)


def test_faulted_shift_stays_bit_exact(fault_seed):
    """Every chaos seed, every awkward rank count: rotation unharmed."""
    for p in FAULTED_RANKS:
        rng = np.random.default_rng([0xF17, p])
        inputs = [rng.normal(size=151) for _ in range(p)]
        expect = [inputs[(r - 1) % p].copy() for r in range(p)]

        clean_comm = make_fuzz_comm(p)
        clean = [b.copy() for b in inputs]
        p2p_shift(clean_comm, clean)

        comm = make_fuzz_comm(p)
        faulted = [b.copy() for b in inputs]
        plan = FaultPlan.from_seed(fault_seed, ranks=p)
        with injecting(plan) as fi:
            p2p_shift(comm, faulted)

        for rank in range(p):
            assert np.array_equal(faulted[rank], clean[rank])
            assert np.array_equal(faulted[rank], expect[rank])
        # Injection only ever adds time, at least the retry time the
        # injector counted.
        added = comm.clock.now - clean_comm.clock.now
        assert added >= fi.retry_s - 1e-15


def test_faulted_matched_sends_stay_bit_exact(fault_seed):
    """Raw send/recv pairs (the trainer's activation path) under chaos."""
    for p in FAULTED_RANKS:
        if p < 2:
            continue
        rng = np.random.default_rng([0xAC7, p])
        payloads = [rng.normal(size=(2, 29)).astype(np.float32)
                    for _ in range(p - 1)]
        plan = FaultPlan.from_seed(fault_seed, ranks=p)
        transport = P2PTransport(make_fuzz_comm(p))
        with injecting(plan):
            for s, payload in enumerate(payloads):
                transport.send(s, s + 1, payload, tag="fwd")
        for s, payload in enumerate(payloads):
            got = transport.recv(s, s + 1, tag="fwd")
            assert got.dtype == payload.dtype
            assert np.array_equal(got, payload)


@pytest.mark.parametrize("p", FAULTED_RANKS)
def test_dead_rank_fails_the_path_through_it(p):
    """A crashed rank breaks exactly the transfers that touch it."""
    comm = make_fuzz_comm(p)
    comm.failed_ranks = frozenset({p - 1})
    transport = P2PTransport(comm)
    from repro.errors import CollectiveTimeout

    with pytest.raises(CollectiveTimeout):
        transport.send(0, p - 1, np.zeros(4))
    if p > 2:
        transport.send(0, 1, np.zeros(4))  # healthy pair unaffected
