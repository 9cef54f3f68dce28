"""Conformance coverage for faulted collectives + the fault-trace golden.

The ``fault_seed`` fixture (from ``repro.testing.pytest_plugin``) replays
every chaos conformance seed — all fault profiles — so ``pytest -m
conformance`` exercises the collectives *under injection* at the same rank
set the clean equivalence tests use. Faults may stretch simulated time;
they must never change a single bit of the reduced data.

The golden-file test pins the exact Chrome JSON a small deterministic
faulted trace exports (``tests/golden/trace_faults.json``), including the
``fault_inject`` instants and ``fault_retry`` spans. Regenerate with
``PYTHONPATH=src python -m tests.test_conformance_faults`` after an
intentional format change.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.errors import CollectiveTimeout
from repro.faults.injector import charge_transient, injecting
from repro.faults.plan import FaultPlan
from repro.hw.clock import SimClock
from repro.simmpi.collectives.rhd import rhd_allreduce
from repro.testing.chrome import validate_chrome
from repro.testing.references import ref_allreduce
from repro.testing.registry import make_fuzz_comm
from repro.trace.export import to_chrome
from repro.trace.tracer import Tracer, tracing

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_faults.json"

#: Same rank set the clean collective-equivalence conformance tests sweep.
FAULTED_RANKS = (2, 5, 8, 13)


def test_faulted_allreduce_stays_bit_exact(fault_seed):
    """Every conformance fault seed, every rank count: data unharmed.

    Crash-profile seeds are inert here by design — ``failed_ranks`` is only
    raised by the elastic trainer — so every profile can replay safely; the
    surviving effect on a bare collective is transient link retries.
    """
    for p in FAULTED_RANKS:
        rng = np.random.default_rng([0xFA017, p])
        inputs = [rng.normal(size=193) for _ in range(p)]
        expect = ref_allreduce(inputs, average=True)

        clean = [b.copy() for b in inputs]
        clean_comm = make_fuzz_comm(p)
        rhd_allreduce(clean_comm, clean, average=True)

        faulted = [b.copy() for b in inputs]
        comm = make_fuzz_comm(p)
        plan = FaultPlan.from_seed(fault_seed, ranks=p)
        with injecting(plan) as fi:
            rhd_allreduce(comm, faulted, average=True)

        for rank in range(p):
            assert np.array_equal(faulted[rank], clean[rank])
            np.testing.assert_allclose(faulted[rank], expect[rank], rtol=1e-12)
        # Injection can only add time, never remove it. Without stragglers
        # the added time is exactly the injector's retry time; straggler
        # slowdown rides the regular comm charge on top.
        added = comm.clock.now - clean_comm.clock.now
        assert added >= fi.retry_s - 1e-15
        if not plan.stragglers:
            assert added == pytest.approx(fi.retry_s)


# --------------------------------------------------------------------------- #
# golden fault trace
# --------------------------------------------------------------------------- #
def faulted_tracer() -> Tracer:
    """A small deterministic trace containing every fault span kind."""
    tr = Tracer()
    plan = FaultPlan(
        seed="golden", profile="chaos", ranks=2, iterations=1,
        comm_rate=0.3, timeout_s=1e-3,
    )
    with tracing(tr), injecting(plan):
        with tr.context("rank0"):
            clock = SimClock()
            for _ in range(6):
                charge_transient("comm", clock, 1e-4, track="comm")
            comm = make_fuzz_comm(2)
            comm.failed_ranks = frozenset({1})
            comm.timeout_s = plan.timeout_s
            bufs = [np.zeros(8), np.zeros(8)]
            with pytest.raises(CollectiveTimeout):
                rhd_allreduce(comm, bufs, average=True)
    return tr


def render(tracer: Tracer) -> str:
    return json.dumps(to_chrome(tracer), indent=1, sort_keys=True) + "\n"


class TestGoldenFaultTrace:
    def test_matches_checked_in_golden_file(self):
        assert GOLDEN.is_file(), (
            f"golden file missing: {GOLDEN}; regenerate with "
            "`python -m tests.test_conformance_faults`"
        )
        assert render(faulted_tracer()) == GOLDEN.read_text()

    def test_golden_is_valid_chrome_format(self):
        assert validate_chrome(json.loads(GOLDEN.read_text())) == []

    def test_golden_contains_fault_events(self):
        events = json.loads(GOLDEN.read_text())["traceEvents"]
        cats = {e.get("cat") for e in events}
        assert "fault_inject" in cats
        assert "fault_retry" in cats
        names = {e["name"] for e in events if e.get("cat") == "fault_inject"}
        assert "rank_crash" in names
        retries = [e for e in events if e.get("cat") == "fault_retry"]
        assert all(e["ph"] == "X" and e["dur"] > 0 for e in retries)


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(faulted_tracer()))
    print(f"wrote {GOLDEN}")
