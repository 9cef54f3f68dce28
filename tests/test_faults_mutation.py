"""Mutation smoke tests: prove the chaos suite has teeth.

Each test plants a deliberate bug (a "mutant") in the fault plane via
monkeypatching and asserts that the corresponding chaos-suite invariant
*fails*. If a mutant survives — the invariant still passes — the suite has
a blind spot and this file turns red.

Two mutants break retry accounting (time not charged; retries not
counted), two break the renumber-rebuild recovery procedure (survivor set
computed wrong; rewind of the survivors' data sources forgotten).
"""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, charge_transient, injecting
from repro.faults.plan import FaultPlan, seed_string
from repro.faults.session import run_chaos
from repro.frame.layers.data import DataLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.softmax import SoftmaxWithLossLayer
from repro.frame.net import Net
from repro.hw.clock import SimClock
from repro.utils.rng import seeded_rng


class SeekableShardSource:
    def __init__(self, batches):
        self.batches = list(batches)
        self.i = 0
        self.sample_shape = batches[0][0].shape[1:]

    def next_batch(self, batch_size):
        images, labels = self.batches[self.i % len(self.batches)]
        self.i += 1
        return images, labels

    def seek(self, n_batches, batch_size):
        self.i = n_batches


def make_factory(n_workers, per_worker=3, dim=5, classes=3, steps=8):
    rng = np.random.default_rng(0)
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
        net.add(InnerProductLayer("ip", classes, rng=seeded_rng(7)), ["data"], ["logits"])
        net.add(SoftmaxWithLossLayer("loss"), ["logits", "label"], ["loss"])
        return net

    return factory


# --------------------------------------------------------------------------- #
# the invariants the suite relies on, in callable form
# --------------------------------------------------------------------------- #
def _retry_count_invariant():
    """Retries observed == retries counted == per-kind injection counter."""
    plan = FaultPlan.from_seed(seed_string("transient", 0), ranks=2)
    fi = FaultInjector(plan)
    total = 0
    for _ in range(100):
        k, _extra = fi.transient("comm", 1e-3)
        total += k
    assert total > 0
    assert fi.retries == total == fi.injected["link_retry"]


def _retry_time_invariant():
    """Every injected retry charges its retry time to the clock."""
    plan = FaultPlan(
        seed="always", profile="transient", ranks=1, iterations=1, comm_rate=0.9
    )
    clock = SimClock()
    with injecting(plan) as fi:
        for _ in range(50):
            charge_transient("comm", clock, 1e-3, track="comm")
    assert fi.retries > 0
    assert clock.now == fi.retry_s > 0


def _crash_suite_checks(tmp_path, seed=seed_string("crash", 0)):
    """The recovery assertions from tests/test_faults_chaos.py, verbatim."""
    ranks, iterations = 4, 7
    report = run_chaos(
        make_factory(ranks),
        ranks=ranks,
        iterations=iterations,
        seed=seed,
        snapshot_every=2,
        snapshot_dir=str(tmp_path),
    )
    assert report.surviving_ranks == ranks - 1
    assert report.rank_rebuilds == 1
    assert report.weights_match
    return report


def test_invariants_pass_unmutated(tmp_path):
    _retry_count_invariant()
    _retry_time_invariant()
    _crash_suite_checks(tmp_path)


# --------------------------------------------------------------------------- #
# retry-accounting mutants
# --------------------------------------------------------------------------- #
def test_suite_catches_uncharged_retries(monkeypatch):
    """Mutant: retries fire but their backoff time is never charged."""
    orig = FaultInjector.transient

    def mutant(self, site, base_s):
        k, _extra = orig(self, site, base_s)
        return k, 0.0

    monkeypatch.setattr(FaultInjector, "transient", mutant)
    with pytest.raises(AssertionError):
        _retry_time_invariant()


def test_suite_catches_uncounted_retries(monkeypatch):
    """Mutant: retries charge time but the counters are never bumped."""
    from repro.faults.plan import SITE_KINDS

    orig = FaultInjector.transient

    def mutant(self, site, base_s):
        k, extra = orig(self, site, base_s)
        self.retries -= k
        self.injected[SITE_KINDS[site]] -= k
        return k, extra

    monkeypatch.setattr(FaultInjector, "transient", mutant)
    with pytest.raises(AssertionError):
        _retry_count_invariant()


# --------------------------------------------------------------------------- #
# renumber-rebuild mutants
# --------------------------------------------------------------------------- #
def test_suite_catches_wrong_survivor_set(monkeypatch, tmp_path):
    """Mutant: the rebuild drops a healthy rank along with the dead one."""
    import repro.parallel.trainer as trainer_mod
    from repro.faults.recovery import survivor_indices as orig

    monkeypatch.setattr(
        trainer_mod,
        "survivor_indices",
        lambda active, dead: orig(active, dead)[:-1],
    )
    with pytest.raises(AssertionError):
        _crash_suite_checks(tmp_path)


def test_suite_catches_missing_source_rewind(monkeypatch, tmp_path):
    """Mutant: the rebuild renumbers ranks but forgets to rewind the
    survivors' data sources to the resume iteration, so the recovered run
    trains on the wrong batches and diverges from the reference."""
    import repro.parallel.trainer as trainer_mod

    monkeypatch.setattr(
        trainer_mod, "rewind_net_sources", lambda net, iteration: 0
    )
    with pytest.raises(AssertionError):
        _crash_suite_checks(tmp_path)
