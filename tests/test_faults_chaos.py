"""Chaos suite: property tests over replayed fault seeds.

Three properties, each over many seeds (>= 50 distinct seed strings are
replayed across this module):

(a) **transient bit-exactness** — allreduce results under injected
    DMA/RLC/link faults are bit-identical to the fault-free run (faults
    cost time, never data);
(b) **bitwise recovery** — after a rank crash, elastic recovery converges
    to exactly the weights of a fault-free run at the same effective
    schedule (full roster to the resume iteration, survivors after);
(c) **inertness** — with injection disabled (the default) the fault plane
    is invisible: zero-plan runs are byte-identical to plain runs, and the
    ambient injector is the shared null singleton (the same pin the trace
    and metrics layers carry).
"""

import numpy as np
import pytest

from repro.errors import CollectiveTimeout
from repro.faults.injector import NULL_INJECTOR, FaultInjector, active, injecting
from repro.faults.plan import PROFILES, FaultPlan, seed_string, zero_plan
from repro.faults.session import run_chaos
from repro.frame.layers.data import DataLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.relu import ReLULayer
from repro.frame.layers.softmax import SoftmaxWithLossLayer
from repro.frame.net import Net
from repro.parallel.trainer import DistributedTrainer
from repro.simmpi.collectives.rhd import rhd_allreduce
from repro.simmpi.collectives.topo_aware import topo_aware_allreduce
from repro.simmpi.reorder import round_robin_placement, supernode_comm
from repro.testing.registry import make_fuzz_comm
from repro.utils.rng import seeded_rng

#: 52 seed strings replayed for plan/injector determinism (13 per profile).
REPLAY_SEEDS = [seed_string(p, i) for p in PROFILES for i in range(13)]

#: Transient-profile seeds for the allreduce bit-exactness property.
TRANSIENT_SEEDS = [seed_string("transient", i) for i in range(20)]

#: Crash-bearing seeds for the bitwise-recovery property.
CRASH_SEEDS = [seed_string("crash", i) for i in range(6)] + [
    seed_string("chaos", i) for i in range(6)
]


class SeekableShardSource:
    """Deterministic per-worker shard cycle with the rewind protocol."""

    def __init__(self, batches):
        self.batches = list(batches)
        self.i = 0
        self.sample_shape = batches[0][0].shape[1:]

    def next_batch(self, batch_size):
        images, labels = self.batches[self.i % len(self.batches)]
        self.i += 1
        assert images.shape[0] == batch_size
        return images, labels

    def seek(self, n_batches, batch_size):
        self.i = n_batches


def make_factory(n_workers, per_worker=3, dim=5, classes=3, steps=8, seed=0):
    """Identically-initialized MLP replicas over disjoint seekable shards."""
    rng = np.random.default_rng(seed)
    data = [
        (
            rng.normal(size=(n_workers * per_worker, dim)).astype(np.float32),
            rng.integers(0, classes, size=n_workers * per_worker),
        )
        for _ in range(steps)
    ]

    def factory(rank):
        shard = SeekableShardSource(
            [
                (
                    img[rank * per_worker : (rank + 1) * per_worker],
                    lab[rank * per_worker : (rank + 1) * per_worker],
                )
                for img, lab in data
            ]
        )
        net = Net("mlp")
        net.add(DataLayer("data", shard, per_worker), bottoms=[], tops=["data", "label"])
        net.add(InnerProductLayer("ip1", 6, rng=seeded_rng(11)), ["data"], ["h"])
        net.add(ReLULayer("relu"), ["h"], ["a"])
        net.add(InnerProductLayer("ip2", classes, rng=seeded_rng(12)), ["a"], ["logits"])
        net.add(SoftmaxWithLossLayer("loss"), ["logits", "label"], ["loss"])
        return net

    return factory


# --------------------------------------------------------------------------- #
# seed replay determinism
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_seed_replays_identically(seed):
    """Same seed string -> same plan -> same pointwise fault decisions."""
    a = FaultPlan.from_seed(seed, ranks=8, iterations=6)
    b = FaultPlan.from_seed(seed, ranks=8, iterations=6)
    assert a == b
    for site in ("dma", "rlc", "comm"):
        assert [a.transient_faults(site, n) for n in range(64)] == [
            b.transient_faults(site, n) for n in range(64)
        ]
    assert a.crashed_by(5) == b.crashed_by(5)
    assert {r: a.straggler_factor(r) for r in range(8)} == {
        r: b.straggler_factor(r) for r in range(8)
    }


# --------------------------------------------------------------------------- #
# (a) transient faults never corrupt data
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", TRANSIENT_SEEDS)
def test_allreduce_bit_exact_under_transient_faults(seed):
    index = int(seed.rsplit(":", 1)[1])
    p = (2, 5, 8, 13)[index % 4]
    rng = np.random.default_rng([0x5CAFFE, index])
    inputs = [rng.normal(size=257) for _ in range(p)]

    clean = [b.copy() for b in inputs]
    rhd_allreduce(make_fuzz_comm(p), clean, average=True)

    plan = FaultPlan.from_seed(seed, ranks=p)
    faulted = [b.copy() for b in inputs]
    comm = make_fuzz_comm(p)
    with injecting(plan) as fi:
        rhd_allreduce(comm, faulted, average=True)

    for rank in range(p):
        assert np.array_equal(faulted[rank], clean[rank]), (
            f"rank {rank} data corrupted under {seed}"
        )
    if fi.retries:
        # Retries happened and cost simulated time, attributed to "fault".
        assert comm.clock.category_total("fault") > 0


# --------------------------------------------------------------------------- #
# (b) bitwise crash recovery
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_crash_recovery_matches_fault_free_reference(seed, tmp_path):
    ranks, iterations = 4, 7
    report = run_chaos(
        make_factory(ranks),
        ranks=ranks,
        iterations=iterations,
        seed=seed,
        snapshot_every=2,
        snapshot_dir=str(tmp_path),
    )
    plan = FaultPlan.from_seed(seed, ranks=ranks, iterations=iterations)
    assert plan.crashes, f"{seed} scheduled no crash"
    assert report.rank_rebuilds == len(report.recoveries) == 1
    assert report.surviving_ranks == ranks - 1
    assert report.injected["rank_crash"] == 1
    assert report.weights_match, (
        f"recovered weights diverged from the fault-free reference ({seed})"
    )


def test_topo_aware_crash_recovers_like_rhd(tmp_path):
    """The topology-aware allreduce sees a crashed rank: the run shrinks
    4 -> 3 and recovers bitwise exactly as the RHD run does, on the
    trainer's own round-robin communicator, rebuilt round-robin for the
    survivors (the ``python -m repro chaos ... --algorithm topo-aware``
    case)."""
    reports = {}
    for algorithm in ("rhd", "topo-aware"):
        (tmp_path / algorithm).mkdir()
        reports[algorithm] = run_chaos(
            make_factory(4), ranks=4, iterations=6, seed="crash:0x5caffe:1",
            algorithm=algorithm, snapshot_dir=str(tmp_path / algorithm),
        )
    rhd, topo = reports["rhd"], reports["topo-aware"]
    assert topo.surviving_ranks == rhd.surviving_ranks == 3
    assert topo.injected["rank_crash"] == rhd.injected["rank_crash"] == 1
    assert topo.timeouts == rhd.timeouts == 1
    assert topo.recoveries == rhd.recoveries
    assert topo.weights_match and rhd.weights_match


def test_topo_aware_clone_charges_the_timeout_to_the_caller():
    """A dead rank times the topology-aware allreduce out on the caller's
    round-robin communicator; no other clock sees the wait."""
    comm = supernode_comm(8, 4, round_robin_placement)
    comm.failed_ranks = frozenset({5})
    with pytest.raises(CollectiveTimeout):
        topo_aware_allreduce(comm, [np.ones(16) for _ in range(8)])
    assert comm.clock.category_total("fault") == comm.timeout_s
    assert comm.clock.now == comm.clock.category_total("fault")


def test_recovery_without_snapshots_is_fatal():
    from repro.errors import FaultError

    trainer = DistributedTrainer(make_factory(2), 2, algorithm="rhd")
    plan = FaultPlan(
        seed="x", profile="crash", ranks=2, iterations=4, crashes=((1, 1),)
    )
    with injecting(plan):
        with pytest.raises(FaultError, match="snapshot"):
            trainer.step(4)


# --------------------------------------------------------------------------- #
# (c) inertness: disabled == zero plan == never built
# --------------------------------------------------------------------------- #
def test_ambient_injector_is_shared_null_singleton():
    assert active() is NULL_INJECTOR
    assert not NULL_INJECTOR.enabled
    assert isinstance(NULL_INJECTOR, FaultInjector)


def test_zero_plan_run_is_byte_identical_to_disabled_run():
    ranks, iters = 4, 5
    t_off = DistributedTrainer(make_factory(ranks), ranks, algorithm="rhd")
    s_off = t_off.step(iters)

    t_zero = DistributedTrainer(make_factory(ranks), ranks, algorithm="rhd")
    with injecting(zero_plan(ranks, iters)) as fi:
        s_zero = t_zero.step(iters)

    assert s_off.losses == s_zero.losses
    assert s_off.comm_time_s == s_zero.comm_time_s
    assert t_off.comm.clock.breakdown() == t_zero.comm.clock.breakdown()
    assert np.array_equal(
        t_off.packers[0].pack_data(), t_zero.packers[0].pack_data()
    )
    assert fi.retries == 0 and not fi.injected


def test_zero_plan_hw_charges_are_byte_identical():
    from repro.hw.dma import DMAEngine
    from repro.hw.rlc import RegisterComm

    buf = np.arange(4096, dtype=np.float32)

    def drive():
        dma = DMAEngine()
        rlc = RegisterComm()
        got = dma.get(buf)
        dma.put(got, np.empty_like(buf))
        rlc.charge_p2p(2048, n_concurrent=8)
        rlc.charge_broadcast(4096, n_concurrent=8)
        return dma.clock.breakdown(), rlc.clock.breakdown(), got

    off_dma, off_rlc, off_data = drive()
    with injecting(zero_plan()):
        on_dma, on_rlc, on_data = drive()
    assert off_dma == on_dma
    assert off_rlc == on_rlc
    assert np.array_equal(off_data, on_data)


def test_straggler_slows_collective_but_keeps_data():
    p = 4
    rng = np.random.default_rng(3)
    inputs = [rng.normal(size=129) for _ in range(p)]
    clean = [b.copy() for b in inputs]
    base_comm = make_fuzz_comm(p)
    rhd_allreduce(base_comm, clean, average=False)

    plan = FaultPlan(
        seed="x", profile="degrade", ranks=p, iterations=1,
        stragglers={2: 3.0},
    )
    slowed = [b.copy() for b in inputs]
    slow_comm = make_fuzz_comm(p)
    with injecting(plan) as fi:
        rhd_allreduce(slow_comm, slowed, average=False)
    assert slow_comm.clock.now > base_comm.clock.now
    assert fi.injected["straggler"] >= 1
    for a, b in zip(clean, slowed):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# (b') crash between bucket launches (overlap-aware path)
# --------------------------------------------------------------------------- #
def test_crash_between_bucket_launches_recovers_bitwise(tmp_path):
    """A rank dying after some buckets of an iteration already launched
    must discard the in-flight queue (no partially-reduced gradients leak)
    and recover to weights bit-identical to a fault-free reference."""
    ranks, iterations, crash_iter = 4, 6, 3

    trainer = DistributedTrainer(
        make_factory(ranks),
        ranks,
        algorithm="rhd",
        snapshot_prefix=str(tmp_path / "snap"),
        snapshot_every=2,
        bucket_mb=1e-4,  # ~100-byte buckets -> several per iteration
        backward_s=1.0,
    )
    assert trainer.packers[0].n_buckets >= 2

    # Kill rank 2 on the SECOND bucket launch of iteration `crash_iter`:
    # bucket 0's allreduce has already completed and sits in the queue.
    real = trainer._collective
    state = {"calls": 0, "armed": True}

    def chaotic(comm, buffers, average=False):
        if state["armed"] and trainer.global_iter == crash_iter:
            state["calls"] += 1
            if state["calls"] == 2:
                state["armed"] = False
                assert trainer._queue is not None
                assert len(trainer._queue.pending) == 1
                comm.failed_ranks = frozenset({2})
        return real(comm, buffers, average=average)

    trainer._collective = chaotic
    trainer.step(iterations)

    assert not state["armed"], "crash never triggered"
    assert trainer._queue is None, "in-flight bucket queue leaked past recovery"
    assert trainer.recoveries == [(2, (0, 1, 3))]
    assert trainer.replicas_in_sync()

    # Fault-free FUSED reference replaying the same shrink schedule: the
    # recovered bucketed run must land on bit-identical weights.
    ref = DistributedTrainer(make_factory(ranks), ranks, algorithm="rhd")
    done = 0
    for resume, survivors in trainer.recoveries:
        if resume > done:
            ref.step(resume - done)
            done = resume
        ref.shrink_to(list(survivors))
    ref.step(iterations - done)
    assert np.array_equal(
        trainer.packers[0].pack_data(), ref.packers[0].pack_data()
    ), "bucketed crash recovery diverged from the fault-free reference"
