"""Microbatch-schedule walker tests (:mod:`repro.pipeline.schedule`).

Pins the schedule definitions (fill-drain op order, 1F1B warmup depths),
the walk rules (stage serialism, transfer dependencies, per-direction
link serialism), the exact GPipe bubble fraction on uniform stages, the
what-if scaling hooks, the stored op and transfer order that trace
emission walks, and the validation/deadlock guards.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

import pytest

from repro.pipeline.schedule import emit_pipeline_trace, simulate_pipeline, stage_orders
from repro.trace.scaling import CostScaling, scaling
from repro.trace.tracer import Tracer


class TestStageOrders:
    def test_fill_drain_runs_forwards_then_reversed_backwards(self):
        orders = stage_orders("fill_drain", 2, 3)
        for ops in orders:
            assert ops == [("F", 0), ("F", 1), ("F", 2),
                           ("B", 2), ("B", 1), ("B", 0)]

    def test_1f1b_warmup_depth_depends_on_stage(self):
        orders = stage_orders("1f1b", 3, 4)
        # Last stage: no warmup, strict alternation.
        assert orders[2] == [("F", 0), ("B", 0), ("F", 1), ("B", 1),
                             ("F", 2), ("B", 2), ("F", 3), ("B", 3)]
        # First stage: S - 1 = 2 warmup forwards.
        assert orders[0][:2] == [("F", 0), ("F", 1)]
        assert orders[0][2:4] == [("F", 2), ("B", 0)]

    @pytest.mark.parametrize("schedule", ["fill_drain", "1f1b"])
    @pytest.mark.parametrize("S,M", [(1, 1), (2, 4), (4, 2), (5, 8)])
    def test_every_microbatch_runs_once_each_way(self, schedule, S, M):
        for ops in stage_orders(schedule, S, M):
            assert sorted(m for k, m in ops if k == "F") == list(range(M))
            assert sorted(m for k, m in ops if k == "B") == list(range(M))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            stage_orders("zigzag", 2, 2)
        with pytest.raises(ValueError):
            stage_orders("1f1b", 0, 2)
        with pytest.raises(ValueError):
            stage_orders("1f1b", 2, 0)


class TestWalk:
    def test_gpipe_bubble_formula_uniform_stages(self):
        S, M = 4, 8
        t = simulate_pipeline([1.0] * S, [1.0] * S, n_microbatches=M,
                              schedule="fill_drain")
        assert t.bubble_frac == (S - 1) / (M + S - 1)
        assert t.makespan_s == 2.0 * (M + S - 1)

    def test_1f1b_matches_fill_drain_makespan_on_uniform_stages(self):
        kw = dict(n_microbatches=8)
        fd = simulate_pipeline([1.0] * 4, [1.0] * 4, schedule="fill_drain", **kw)
        ob = simulate_pipeline([1.0] * 4, [1.0] * 4, schedule="1f1b", **kw)
        assert ob.makespan_s == fd.makespan_s
        assert ob.bubble_frac == fd.bubble_frac

    def test_single_stage_has_no_bubble(self):
        t = simulate_pipeline([2.0], [3.0], n_microbatches=5)
        assert t.bubble_frac == 0.0
        assert t.makespan_s == 25.0
        assert t.xfers == ()

    def test_stage_ops_never_overlap(self):
        t = simulate_pipeline([0.7, 1.3, 0.4], [1.1, 0.6, 0.9],
                              n_microbatches=6, schedule="1f1b")
        for s in range(t.n_stages):
            ops = sorted((o for o in t.ops if o.stage == s),
                         key=lambda o: o.start_s)
            for a, b in zip(ops, ops[1:]):
                assert b.start_s >= a.end_s

    def test_forward_waits_for_upstream_transfer(self):
        t = simulate_pipeline([1.0, 1.0], [1.0, 1.0], n_microbatches=2,
                              fwd_xfer_s=[0.5], bwd_xfer_s=[0.5],
                              schedule="fill_drain")
        for op in t.ops:
            if op.kind == "F" and op.stage == 1:
                (x,) = [x for x in t.xfers
                        if x.kind == "fwd" and x.microbatch == op.microbatch]
                assert op.start_s >= x.end_s

    def test_backward_waits_for_downstream_gradient(self):
        t = simulate_pipeline([1.0, 1.0], [1.0, 1.0], n_microbatches=2,
                              fwd_xfer_s=[0.25], bwd_xfer_s=[0.25])
        for op in t.ops:
            if op.kind == "B" and op.stage == 0:
                (x,) = [x for x in t.xfers
                        if x.kind == "bwd" and x.microbatch == op.microbatch]
                assert op.start_s >= x.end_s

    def test_links_are_serial_per_direction(self):
        t = simulate_pipeline([0.1, 2.0], [0.1, 2.0], n_microbatches=4,
                              fwd_xfer_s=[1.0], bwd_xfer_s=[1.0],
                              schedule="fill_drain")
        for kind in ("fwd", "bwd"):
            xs = sorted((x for x in t.xfers if x.kind == kind),
                        key=lambda x: x.start_s)
            for a, b in zip(xs, xs[1:]):
                assert b.start_s >= a.end_s
            # The fast producer outruns the slow link: some transfers queue.
            if kind == "fwd":
                assert any(x.start_s > x.ready_s for x in xs)

    def test_transfers_start_at_producer_end_when_link_is_free(self):
        t = simulate_pipeline([1.0, 1.0], [1.0, 1.0], n_microbatches=1,
                              fwd_xfer_s=[0.5], bwd_xfer_s=[0.5])
        for x in t.xfers:
            assert x.start_s == x.ready_s

    @pytest.mark.parametrize("schedule", ["fill_drain", "1f1b"])
    def test_makespan_and_gaps_match_a_brute_force_scan(self, schedule):
        t = simulate_pipeline([1.0, 2.5, 0.5, 1.25], [1.5, 1.0, 2.0, 0.75],
                              n_microbatches=6, schedule=schedule,
                              fwd_xfer_s=[0.25, 0.5, 0.125],
                              bwd_xfer_s=[0.5, 0.25, 0.375])
        ends = [op.end_s for op in t.ops] + [x.end_s for x in t.xfers]
        assert t.makespan_s == max(ends)
        for s in range(t.n_stages):
            ops = [op for op in t.ops if op.stage == s]
            cuts = sorted({0.0, t.makespan_s, *(o.start_s for o in ops),
                           *(o.end_s for o in ops)})
            idle: list[list[float]] = []  # maximal uncovered [start, end]
            for a, b in zip(cuts, cuts[1:]):
                if any(o.start_s <= a and b <= o.end_s for o in ops):
                    continue
                if idle and idle[-1][1] == a:
                    idle[-1][1] = b
                else:
                    idle.append([a, b])
            assert t.stage_gaps()[s] == [(a, b - a) for a, b in idle]
        # The cached makespan is no field: equality and hashing ignore it.
        fresh = dataclasses.replace(t)
        assert fresh == t and hash(fresh) == hash(t)

    def test_stage_gaps_partition_the_makespan(self):
        t = simulate_pipeline([1.0, 2.0, 0.5], [1.5, 1.0, 2.0],
                              n_microbatches=4, schedule="1f1b")
        for s in range(t.n_stages):
            gap = sum(d for _, d in t.stage_gaps()[s])
            assert gap + t.stage_busy_s[s] == pytest.approx(t.makespan_s)


class TestStoredOrder:
    """``ops`` by (stage, start), ``xfers`` by (kind, src, start): the order
    :func:`emit_pipeline_trace` walks without sorting again."""

    @pytest.mark.parametrize("schedule", ["fill_drain", "1f1b"])
    @pytest.mark.parametrize("S", [1, 2, 3, 8])
    @pytest.mark.parametrize("M", [1, 4, 17])
    def test_walk_stores_and_emits_in_order(self, schedule, S, M):
        t = simulate_pipeline(
            [0.5 + 0.25 * (s % 3) for s in range(S)],
            [1.0 + 0.375 * ((2 * s) % 3) for s in range(S)],
            n_microbatches=M, schedule=schedule,
            fwd_xfer_s=[0.125 + 0.0625 * (i % 2) for i in range(S - 1)],
            bwd_xfer_s=[0.3 - 0.05 * (i % 3) for i in range(S - 1)],
        )
        assert len(t.ops) == 2 * S * M and len(t.xfers) == 2 * (S - 1) * M
        assert list(t.ops) == sorted(t.ops, key=attrgetter("stage", "start_s"))
        assert list(t.xfers) == sorted(t.xfers, key=attrgetter("kind", "src", "start_s"))
        tr = Tracer()
        emit_pipeline_trace(tr, t, origin_s=0.5)
        stages = [(s.track, s.name, s.start_s) for s in tr.spans
                  if s.cat in ("stage_fwd", "stage_bwd")]
        assert stages == [(f"pipeline/stage{o.stage}", f"{o.kind}{o.microbatch}",
                           0.5 + o.start_s) for o in t.ops]
        xfers = [(s.args["src"], s.args["microbatch"], s.start_s) for s in tr.spans
                 if s.cat == "activation_xfer"]
        assert xfers == [(x.src, x.microbatch, 0.5 + x.start_s) for x in t.xfers]


class TestValidationAndMetrics:
    def test_mismatched_stage_arrays_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            simulate_pipeline([1.0, 1.0], [1.0], n_microbatches=1)

    def test_wrong_boundary_array_length_rejected(self):
        with pytest.raises(ValueError, match="boundary arrays"):
            simulate_pipeline([1.0, 1.0], [1.0, 1.0], n_microbatches=1,
                              fwd_xfer_s=[0.1, 0.2])


class TestScalingHooks:
    def test_stage_factor_scales_compute(self):
        base = simulate_pipeline([1.0] * 3, [1.0] * 3, n_microbatches=4)
        with scaling(CostScaling({"stage": 2.0})):
            doubled = simulate_pipeline([1.0] * 3, [1.0] * 3, n_microbatches=4)
        assert doubled.makespan_s == pytest.approx(2.0 * base.makespan_s)
        assert doubled.bubble_frac == pytest.approx(base.bubble_frac)

    def test_p2p_factor_scales_transfers_only(self):
        kw = dict(n_microbatches=2, fwd_xfer_s=[1.0], bwd_xfer_s=[1.0])
        base = simulate_pipeline([1.0, 1.0], [1.0, 1.0], **kw)
        with scaling(CostScaling({"p2p": 10.0})):
            slow = simulate_pipeline([1.0, 1.0], [1.0, 1.0], **kw)
        assert slow.makespan_s > base.makespan_s
        assert all(x.dur_s == 10.0 for x in slow.xfers)
        assert all(o.dur_s == 1.0 for o in slow.ops)
