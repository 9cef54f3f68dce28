"""Unit tests for the fault plane: plans, seeds, injector plumbing.

Covers the seed-string replay spec, the stateless transient decision, the
profile-specific plan sampling, and the ambient injector's install /
null-object contract (the same pattern the tracer pins).
"""

import numpy as np
import pytest

from repro.errors import (
    CollectiveTimeout,
    FaultError,
    ReproError,
    SnapshotMismatchError,
)
from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    NullInjector,
    active,
    charge_transient,
    injecting,
    suspended,
)
from repro.faults.plan import (
    BASE_SEED,
    PROFILES,
    TRANSIENT_SITES,
    FaultPlan,
    parse_seed_string,
    seed_string,
)
from repro.hw.clock import SimClock
from repro.testing.pytest_plugin import conformance_seeds


def zero_plan(ranks: int = 1, iterations: int = 1) -> FaultPlan:
    """An enabled-but-empty plan: every rate 0, no crashes."""
    return FaultPlan(seed="none", profile="transient", ranks=ranks, iterations=iterations)


class TestSeedStrings:
    def test_roundtrip(self):
        s = seed_string("chaos", 3)
        assert s == "chaos:0x5caffe:3"
        assert parse_seed_string(s) == ("chaos", BASE_SEED, 3)

    def test_custom_base_seed(self):
        assert parse_seed_string(seed_string("crash", 7, 0xBEEF)) == (
            "crash",
            0xBEEF,
            7,
        )

    @pytest.mark.parametrize("bad", ["", "chaos", "chaos:3", "chaos:xyz:3"])
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError, match="malformed|invalid literal"):
            parse_seed_string(bad)

    def test_unknown_profile_rejected_by_from_seed(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultPlan.from_seed("meteor:0x5caffe:0", ranks=4)

    def test_conformance_seeds_cover_all_profiles(self):
        seeds = conformance_seeds(n_per_profile=2)
        assert len(seeds) == 2 * len(PROFILES)
        assert {parse_seed_string(s)[0] for s in seeds} == set(PROFILES)


class TestFaultPlan:
    def test_from_seed_is_deterministic(self):
        a = FaultPlan.from_seed("chaos:0x5caffe:5", ranks=8, iterations=10)
        b = FaultPlan.from_seed("chaos:0x5caffe:5", ranks=8, iterations=10)
        assert a == b

    def test_different_indices_differ(self):
        plans = {
            FaultPlan.from_seed(seed_string("transient", i), ranks=4).comm_rate
            for i in range(8)
        }
        assert len(plans) > 1

    def test_profile_shapes(self):
        t = FaultPlan.from_seed(seed_string("transient", 0), ranks=4, iterations=5)
        assert t.comm_rate > 0
        assert not t.crashes and t.mesh_factor == 1.0 and not t.stragglers

        d = FaultPlan.from_seed(seed_string("degrade", 0), ranks=4, iterations=5)
        assert d.mesh_factor > 1.0 and d.stragglers
        assert d.comm_rate == 0 and not d.crashes

        c = FaultPlan.from_seed(seed_string("crash", 0), ranks=4, iterations=5)
        assert len(c.crashes) == 1

        x = FaultPlan.from_seed(seed_string("chaos", 0), ranks=4, iterations=5)
        assert x.comm_rate > 0 and x.mesh_factor > 1.0 and x.crashes

    def test_crash_never_at_iteration_zero(self):
        for i in range(20):
            plan = FaultPlan.from_seed(seed_string("crash", i), ranks=8, iterations=6)
            for it, rank in plan.crashes:
                assert it >= 1
                assert 0 <= rank < 8

    def test_transient_decision_is_stateless(self):
        plan = FaultPlan.from_seed(seed_string("transient", 1), ranks=4)
        for site in TRANSIENT_SITES:
            ks = [plan.transient_faults(site, n) for n in range(200)]
            assert ks == [plan.transient_faults(site, n) for n in range(200)]
            assert any(k > 0 for k in ks), f"no {site} fault in 200 invocations"
            assert max(ks) <= plan.max_retries

    def test_zero_rate_never_faults(self):
        plan = zero_plan(4, 5)
        assert all(
            plan.transient_faults(site, n) == 0
            for site in TRANSIENT_SITES
            for n in range(50)
        )

    def test_retry_overhead_arithmetic(self):
        plan = zero_plan()
        assert plan.retry_overhead_s(1.0, 0) == 0.0
        # Two retries: 2x base + backoff_base * (1 + 2).
        expected = 2.0 + plan.backoff_base_s * 3
        assert plan.retry_overhead_s(1.0, 2) == pytest.approx(expected)

    def test_crash_queries(self):
        plan = FaultPlan(
            seed="x", profile="crash", ranks=4, iterations=8, crashes=((3, 1),)
        )
        assert plan.crashed_by(2) == frozenset()
        assert plan.crashed_by(3) == {1} == plan.crashed_by(7)

    def test_straggler_factor_floor(self):
        plan = FaultPlan(
            seed="x", profile="degrade", ranks=4, iterations=1,
            stragglers={2: 3.0},
        )
        assert plan.straggler_factor(2) == 3.0
        assert plan.straggler_factor(0) == 1.0

    def test_describe_mentions_the_mix(self):
        plan = FaultPlan.from_seed(seed_string("chaos", 0), ranks=4, iterations=5)
        text = plan.describe()
        assert "profile=chaos" in text and "crashes=" in text


class TestAmbientInjector:
    def test_disabled_by_default(self):
        fi = active()
        assert fi is NULL_INJECTOR
        assert not fi.enabled

    def test_null_injector_raises_on_use(self):
        for call in (
            lambda: NULL_INJECTOR.transient("comm", 1.0),
            lambda: NULL_INJECTOR.mesh_degrade(),
            lambda: NULL_INJECTOR.comm_scale(0, 1),
            lambda: NULL_INJECTOR.failed_ranks(),
        ):
            with pytest.raises(RuntimeError, match="injector.enabled"):
                call()

    def test_injecting_installs_and_restores(self):
        plan = zero_plan(2, 2)
        with injecting(plan) as fi:
            assert active() is fi
            assert fi.enabled
            with suspended():
                assert active() is NULL_INJECTOR
            assert active() is fi
        assert active() is NULL_INJECTOR

    def test_injector_counts_transients(self):
        plan = FaultPlan.from_seed(seed_string("transient", 0), ranks=2)
        fi = FaultInjector(plan)
        total = 0
        for _ in range(100):
            k, extra = fi.transient("comm", 1e-3)
            total += k
            assert (extra > 0) == (k > 0)
        assert fi.retries == total == fi.injected["link_retry"]
        assert total > 0

    def test_injector_keeps_fault_time_totals(self):
        plan = FaultPlan.from_seed(seed_string("transient", 0), ranks=2)
        fi = FaultInjector(plan)
        retry_s = 0.0
        for _ in range(100):
            retry_s += fi.transient("comm", 1e-3)[1]
        fi.note_slow(0.25)
        fi.note_slow(0.5)
        fi.note_timeout(1e-3)
        assert fi.retry_s == retry_s > 0
        assert (fi.slow_s, fi.injected["straggler"]) == (0.75, 2)
        assert (fi.timeouts, fi.timeout_s) == (1, 1e-3)

    def test_rank_map_translation(self):
        plan = FaultPlan(
            seed="x", profile="degrade", ranks=4, iterations=1,
            stragglers={3: 2.0},
        )
        fi = FaultInjector(plan)
        assert fi.comm_scale(0, 3) == 2.0
        # After a shrink dropping external rank 1, logical 2 is external 3.
        fi.set_rank_map([0, 2, 3])
        assert fi.comm_scale(0, 2) == 2.0
        assert fi.comm_scale(0, 1) == 1.0

    def test_charge_transient_noop_when_disabled(self):
        clock = SimClock()
        assert charge_transient("comm", clock, 1.0, track="comm") == 0
        assert clock.now == 0.0

    def test_zero_retry_charge_leaves_no_fault_category(self):
        """An invocation that does not fault charges no fault time."""
        clock = SimClock()
        with injecting(zero_plan()) as fi:
            assert charge_transient("comm", clock, 1e-3, track="comm") == 0
        assert clock.now == 0.0
        assert fi.retry_s == 0.0

    def test_charge_transient_charges_fault_category(self):
        """A faulted invocation charges exactly the injector's retry time."""
        plan = FaultPlan(
            seed="always", profile="transient", ranks=1, iterations=1,
            comm_rate=0.999,
        )
        clock = SimClock()
        with injecting(plan) as fi:
            k = charge_transient("comm", clock, 1e-3, track="comm")
        assert k > 0
        assert fi.retry_s == clock.now > 0


class TestErrorTypes:
    def test_hierarchy(self):
        assert issubclass(FaultError, ReproError)
        assert issubclass(CollectiveTimeout, FaultError)
        assert issubclass(SnapshotMismatchError, ReproError)

    def test_collective_timeout_carries_ranks(self):
        exc = CollectiveTimeout("dead", ranks=frozenset({2, 5}))
        assert exc.ranks == {2, 5}


class TestSnapshotValidation:
    def _solver(self):
        from repro.frame.layers.data import DataLayer
        from repro.frame.layers.inner_product import InnerProductLayer
        from repro.frame.layers.softmax import SoftmaxWithLossLayer
        from repro.frame.net import Net
        from repro.frame.solver import SGDSolver
        from repro.io.dataset import SyntheticImageNet
        from repro.utils.rng import seeded_rng

        net = Net("tiny")
        src = SyntheticImageNet(num_classes=3, sample_shape=(6,), noise=0.1, seed=4)
        net.add(DataLayer("data", src, 4), bottoms=[], tops=["data", "label"])
        net.add(InnerProductLayer("ip", 3, rng=seeded_rng(1)), ["data"], ["logits"])
        net.add(SoftmaxWithLossLayer("loss"), ["logits", "label"], ["loss"])
        return SGDSolver(net, base_lr=0.05, momentum=0.9)

    def test_mismatched_path_iteration_raises(self, tmp_path):
        import shutil

        from repro.frame.snapshot import load_solver, save_solver, snapshot_path

        solver = self._solver()
        solver.iter = 3
        good = snapshot_path(str(tmp_path / "m"), 3)
        save_solver(solver, good)
        load_solver(solver, good)  # matching path: fine
        bad = snapshot_path(str(tmp_path / "m"), 7)
        shutil.copy(good, bad)
        with pytest.raises(SnapshotMismatchError, match="claims iteration 7"):
            load_solver(solver, bad)

    def test_unnamed_path_skips_validation(self, tmp_path):
        from repro.frame.snapshot import load_solver, save_solver

        solver = self._solver()
        solver.iter = 5
        path = str(tmp_path / "whatever.npz")
        save_solver(solver, path)
        load_solver(solver, path)
        assert solver.iter == 5

    def test_load_clears_stale_velocity(self, tmp_path):
        from repro.frame.snapshot import load_solver, save_solver, snapshot_path

        solver = self._solver()
        path = snapshot_path(str(tmp_path / "m"), 0)
        save_solver(solver, path)  # iteration 0: no velocities stored
        solver.step(2)  # accumulate momentum
        assert solver._velocity
        load_solver(solver, path)
        assert not solver._velocity
        assert solver.iter == 0
