"""The conformance harness must be able to *fail*: mutation smoke tests.

A checker that never fires is indistinguishable from no checker, so these
tests feed the differential fuzzer and the invariant battery deliberately
broken plans/collectives and assert each corruption is caught, plus pin
the seed-string reproduction contract.
"""

import numpy as np
import pytest

from repro.kernels.gemm import SWGemmPlan
from repro.kernels.plan import PlanCost
from repro.testing import differential
from repro.testing.differential import (
    max_ulp_diff,
    parse_seed_string,
    run_collective_case,
    run_kernel_case,
    seed_string,
)
from repro.testing.invariants import (
    InvariantViolation,
    check_cost_sane,
    check_dma_conserved,
    check_monotone,
)
from repro.testing.references import ref_allreduce, ref_gemm
from repro.testing.registry import CollectiveSpec, KernelSpec


def _gemm_spec(run):
    return KernelSpec(
        name="mutant_gemm",
        sample=lambda rng: {"m": 5, "n": 6, "k": 7},
        build=lambda cfg: SWGemmPlan(cfg["m"], cfg["n"], cfg["k"]),
        run=run,
        min_dma_bytes=lambda cfg: float(
            4 * (cfg["m"] * cfg["k"] + cfg["k"] * cfg["n"] + cfg["m"] * cfg["n"])
        ),
        time_monotone=False,
    )


class TestDifferentialCatchesBrokenKernels:
    def test_healthy_mutant_baseline_passes(self):
        def run(plan, cfg, rng):
            a = rng.normal(size=(cfg["m"], cfg["k"]))
            b = rng.normal(size=(cfg["k"], cfg["n"]))
            return [("run", a @ b, ref_gemm(a, b))]

        report = run_kernel_case(_gemm_spec(run), index=0)
        assert report.ok, str(report)

    def test_single_element_corruption_is_caught(self):
        # The classic blocked-kernel bug: one fringe element wrong.
        def run(plan, cfg, rng):
            a = rng.normal(size=(cfg["m"], cfg["k"]))
            b = rng.normal(size=(cfg["k"], cfg["n"]))
            out = a @ b
            out[-1, -1] += 1e-3
            return [("run", out, ref_gemm(a, b))]

        report = run_kernel_case(_gemm_spec(run), index=0)
        assert not report.ok
        assert any("run:" in f for f in report.failures)
        assert report.max_ulp > 1e6  # a real mismatch, not round-off

    def test_dropped_k_block_is_caught(self):
        # Simulates a blocked GEMM that forgets the last contraction panel.
        def run(plan, cfg, rng):
            a = rng.normal(size=(cfg["m"], cfg["k"]))
            b = rng.normal(size=(cfg["k"], cfg["n"]))
            return [("run", a[:, :-1] @ b[:-1, :], ref_gemm(a, b))]

        report = run_kernel_case(_gemm_spec(run), index=3)
        assert not report.ok

    def test_shape_mismatch_is_caught(self):
        def run(plan, cfg, rng):
            a = rng.normal(size=(cfg["m"], cfg["k"]))
            b = rng.normal(size=(cfg["k"], cfg["n"]))
            return [("run", (a @ b).T, ref_gemm(a, b))]

        report = run_kernel_case(_gemm_spec(run), index=0)
        assert not report.ok
        assert any("shape" in f for f in report.failures)

    def test_crashing_plan_is_reported_not_raised(self):
        def run(plan, cfg, rng):
            raise RuntimeError("kernel exploded")

        report = run_kernel_case(_gemm_spec(run), index=0)
        assert not report.ok
        assert any("kernel exploded" in f for f in report.failures)


class TestInvariantsCatchBrokenCosts:
    def test_negative_component_rejected(self):
        with pytest.raises(InvariantViolation, match="negative"):
            check_cost_sane(PlanCost(compute_s=-1.0, dma_s=1.0))

    def test_zero_total_time_rejected(self):
        with pytest.raises(InvariantViolation, match="must be > 0"):
            check_cost_sane(PlanCost())

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantViolation, match="not finite"):
            check_cost_sane(PlanCost(compute_s=float("nan"), dma_s=1.0))

    def test_unconserved_dma_rejected(self):
        cost = PlanCost(dma_s=1.0, dma_bytes=10.0)
        with pytest.raises(InvariantViolation, match="conserved"):
            check_dma_conserved(cost, min_bytes=100.0)

    def test_shrinking_work_rejected(self):
        small = PlanCost(compute_s=1.0, flops=100.0, dma_bytes=10.0)
        big = PlanCost(compute_s=2.0, flops=50.0, dma_bytes=20.0)
        with pytest.raises(InvariantViolation, match="flops decreased"):
            check_monotone(small, big)

    def test_shrinking_time_rejected(self):
        small = PlanCost(compute_s=2.0, flops=100.0, dma_bytes=10.0)
        big = PlanCost(compute_s=1.0, flops=200.0, dma_bytes=20.0)
        with pytest.raises(InvariantViolation, match="time decreased"):
            check_monotone(small, big)

    def test_broken_cost_model_fails_the_fuzzer(self):
        # End to end: a plan whose cost model "forgets" its DMA traffic is
        # rejected by the same path the registry specs run through.
        class ZeroTrafficGemm(SWGemmPlan):
            def cost(self):
                real = super().cost()
                return PlanCost(
                    compute_s=real.compute_s, dma_s=real.dma_s,
                    rlc_s=real.rlc_s, overhead_s=real.overhead_s,
                    flops=real.flops, dma_bytes=0.0,
                )

        spec = KernelSpec(
            name="mutant_zero_traffic",
            sample=lambda rng: {"m": 16, "n": 16, "k": 16},
            build=lambda cfg: ZeroTrafficGemm(cfg["m"], cfg["n"], cfg["k"]),
            run=None,
            min_dma_bytes=lambda cfg: float(4 * 3 * 16 * 16),
            time_monotone=False,
        )
        report = run_kernel_case(spec, index=0)
        assert not report.ok
        assert any("conserved" in f for f in report.failures)

    def test_walk_that_drops_the_last_panel_fails_the_fuzzer(self):
        # The last contraction block's B panel goes missing from the walk
        # (the transfer before the final C write), so the walk moves fewer
        # bytes than the plan prices.
        class DroppedPanelGemm(SWGemmPlan):
            def tile_walk(self):
                walk = list(super().tile_walk())
                return walk[:-2] + walk[-1:]

        spec = KernelSpec(
            name="mutant_dropped_panel",
            sample=lambda rng: {"m": 16, "n": 16, "k": 16},
            build=lambda cfg: DroppedPanelGemm(cfg["m"], cfg["n"], cfg["k"]),
            run=None,
            time_monotone=False,
            walk="exact",
        )
        report = run_kernel_case(spec, index=0)
        assert not report.ok
        assert any("tile walk moves" in f for f in report.failures)


class TestDifferentialCatchesBrokenCollectives:
    @staticmethod
    def _spec(execute):
        return CollectiveSpec(
            name="mutant_allreduce",
            execute=execute,
            reference=lambda inputs, cfg: ref_allreduce(inputs, average=cfg["average"]),
        )

    def test_corrupted_rank_is_caught(self):
        from repro.simmpi.collectives.rhd import rhd_allreduce

        def execute(comm, inputs, cfg):
            bufs = [b.copy() for b in inputs]
            result = rhd_allreduce(comm, bufs, average=cfg["average"])
            bufs[-1][0] += 1e-6  # one rank disagrees by one element
            return bufs, result

        # Sweep a few seeds: every drawn config must catch the corruption
        # (p == 1 included: the lone rank still diverges from the sum).
        for i in range(5):
            report = run_collective_case(self._spec(execute), index=i)
            assert not report.ok, str(report)

    def test_dropped_reduction_is_caught(self):
        def execute(comm, inputs, cfg):
            return [b.copy() for b in inputs], None  # "allreduce" that no-ops

        for i in range(5):
            report = run_collective_case(self._spec(execute), index=i)
            if report.config["p"] == 1 and not report.config["average"]:
                continue  # identity is correct for a single rank
            assert not report.ok, str(report)


class TestSeedStrings:
    def test_round_trip(self):
        s = seed_string("conv_implicit", 17)
        assert parse_seed_string(s) == ("conv_implicit", differential.BASE_SEED, 17)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed seed string"):
            parse_seed_string("not-a-seed")

    def test_unknown_spec_rejected(self):
        with pytest.raises(KeyError, match="not a registered"):
            differential.reproduce("no_such_kernel:0x5caffe:0")

    def test_different_indices_draw_different_configs(self):
        reports = differential.fuzz_kernel("gemm", n_configs=10)
        configs = {tuple(sorted(r.config.items())) for r in reports}
        assert len(configs) > 1


class TestUlpMetric:
    def test_identical_is_zero(self):
        x = np.linspace(-3, 3, 50)
        assert max_ulp_diff(x, x) == 0.0

    def test_one_ulp_is_one(self):
        x = np.array([1.0])
        y = np.nextafter(x, np.inf)
        assert max_ulp_diff(x, y) == pytest.approx(1.0)

    def test_shape_mismatch_is_infinite(self):
        assert max_ulp_diff(np.zeros(3), np.zeros(4)) == float("inf")
