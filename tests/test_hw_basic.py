"""Unit tests for the SW26010 hardware model basics: specs and clock."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.clock import SerialResource, SimClock
from repro.hw.spec import E5_2680V3_SPEC, K40M_SPEC, KNL_SPEC, SW26010_SPEC, SW_PARAMS
from repro.trace.tracer import Tracer


class TestSpecs:
    def test_table1_rows_match_paper(self):
        assert SW26010_SPEC.release_year == 2014
        assert SW26010_SPEC.peak_double == pytest.approx(3.02e12)
        assert K40M_SPEC.peak_single == pytest.approx(4.29e12)
        assert K40M_SPEC.peak_double == pytest.approx(1.43e12)
        assert KNL_SPEC.mem_bandwidth == pytest.approx(475e9)
        assert E5_2680V3_SPEC.mem_bandwidth == pytest.approx(68e9)

    def test_sw_params_geometry(self):
        assert SW_PARAMS.n_cpes_per_cg == 64
        assert SW_PARAMS.ldm_bytes == 64 * 1024
        assert SW_PARAMS.n_core_groups == 4

    def test_core_groups_reach_table1_peak(self):
        # Four core groups, each a CPE cluster plus its MPE: ~3.016 TFlops.
        per_cg = SW_PARAMS.cg_cpe_peak_flops + SW_PARAMS.cg_mpe_peak_flops
        assert SW_PARAMS.n_core_groups == 4
        assert SW_PARAMS.n_core_groups * per_cg == pytest.approx(
            SW26010_SPEC.peak_double, rel=0.01
        )

    def test_cpe_peak_is_cluster_fraction(self):
        assert SW_PARAMS.cpe_peak_flops == pytest.approx(742.4e9 / 64)

    def test_flop_per_byte_matches_paper(self):
        # Principle 3: 742.4 GFlops / 28 GB/s = 26.5
        assert SW_PARAMS.flop_per_byte == pytest.approx(26.5, rel=0.01)

    def test_machine_balance_ordering(self):
        # SW26010's flop/byte is far above K40m's and KNL's (paper: 26.5
        # vs 14.90 and 14.56).
        assert (
            SW_PARAMS.flop_per_byte
            > K40M_SPEC.flop_per_byte_single
            > KNL_SPEC.flop_per_byte_single
        )


class TestSimClock:
    def test_advance_accumulates(self):
        clk = SimClock()
        clk.advance(1.5)
        clk.advance(0.5)
        assert clk.now == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        clk = SimClock()
        with pytest.raises(ValueError):
            clk.advance(-1.0)

    def test_sections_categorize(self):
        clk = SimClock()
        with clk.section("dma"):
            clk.advance(1.0)
            with clk.section("compute"):
                clk.advance(2.0)
            clk.advance(0.5)
        clk.advance(0.25)
        assert clk.category_total("dma") == pytest.approx(1.5)
        assert clk.category_total("compute") == pytest.approx(2.0)
        assert clk.category_total("other") == pytest.approx(0.25)
        assert clk.now == pytest.approx(3.75)

    def test_explicit_category_overrides_section(self):
        clk = SimClock()
        with clk.section("dma"):
            clk.advance(1.0, category="rlc")
        assert clk.category_total("rlc") == pytest.approx(1.0)
        assert clk.category_total("dma") == 0.0

    def test_reset(self):
        clk = SimClock()
        clk.advance(1.0)
        clk.reset()
        assert clk.now == 0.0
        assert clk.breakdown() == {}


#: Non-negative finite seconds, wide enough that ``start + dur`` rounds.
seconds = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestSerialResource:
    @settings(max_examples=200, deadline=None)
    @given(
        windows=st.lists(st.tuples(seconds, seconds), min_size=1, max_size=20),
        origin=seconds,
    )
    def test_windows_are_causal_and_serial(self, windows, origin):
        res = SerialResource(origin)
        prev_end = origin
        for ready, dur in windows:
            w = res.reserve(ready, dur)
            assert w.ready_s == ready and w.dur_s == dur
            assert w.start_s >= ready  # never before its work exists
            assert w.start_s >= prev_end  # one window at a time
            assert res.free_s == w.end_s
            prev_end = w.end_s

    @settings(max_examples=300, deadline=None)
    @given(windows=st.lists(st.tuples(seconds, seconds), min_size=1, max_size=20),
           barrier=seconds)
    def test_hidden_share_is_clamped_to_the_window(self, windows, barrier):
        res = SerialResource()
        for ready, dur in windows:
            w = res.reserve(ready, dur)
            hidden = w.hidden_before(barrier)
            assert 0.0 <= hidden <= w.dur_s
            assert w.dur_s - hidden >= 0.0
            if barrier >= w.end_s and w.end_s - w.start_s >= w.dur_s:
                # Fully hidden: exposes exactly zero, also when end_s -
                # start_s lands one ulp above dur_s.
                assert w.dur_s - hidden == 0.0
            if barrier <= w.start_s:  # fully exposed
                assert hidden == 0.0

    def test_emit_floors_splits_and_chains(self):
        tr = Tracer()
        res = SerialResource()
        launch = tr.instant_event("launch", "collective_launch", track="comm/launch",
                                  start=0.0)
        a = res.emit(tr, res.reserve(0.0, 2.0), "a", "collective_service",
                     track="comm/fabric", args={"tag": "a"}, barrier_s=1.5,
                     launch=launch)
        b = res.emit(tr, res.reserve(1.0, 1.0), "b", "collective_service",
                     track="comm/fabric", args={})
        assert (a.start_s, a.dur_s) == (0.0, 2.0)
        assert a.args == {"tag": "a", "ready_s": 0.0, "hidden_s": 1.5, "exposed_s": 0.5}
        assert (b.start_s, b.args) == (2.0, {"ready_s": 1.0})
        assert tr.edges == [(launch, a, "dep"), (a, b, "dep")]
        assert res.last_span is b
