"""Unit tests for the tracer core (:mod:`repro.trace.tracer`).

Pins the three invariants the instrumentation relies on: span nesting
(a ``span()`` block covers everything emitted inside it), per-track clock
monotonicity (cursors only ratchet forward), and the disabled tracer being
a true no-op (the ambient default, restored after every ``tracing`` block).
"""

from __future__ import annotations

import pytest

from repro.errors import SpanValidationError
from repro.trace.tracer import (
    NULL_TRACER,
    NullTracer,
    SPAN_CATEGORIES,
    Tracer,
    active,
    emit_cost_spans,
    install,
    suspended,
    tracing,
)


@pytest.fixture()
def tr():
    return Tracer()


class TestEmission:
    def test_cursor_driven_spans_are_sequential(self, tr):
        a = tr.emit("a", "cpe_compute", track="cpe", dur=1.0)
        b = tr.emit("b", "cpe_compute", track="cpe", dur=2.0)
        assert a.start_s == 0.0 and a.end_s == 1.0
        assert b.start_s == 1.0 and b.end_s == 3.0
        assert tr.cursor("cpe") == 3.0

    def test_tracks_are_independent(self, tr):
        tr.emit("a", "cpe_compute", track="cpe", dur=5.0)
        b = tr.emit("b", "dma_transfer", track="dma", dur=1.0)
        assert b.start_s == 0.0
        assert tr.cursor("dma") == 1.0
        assert tr.end_time() == 5.0

    def test_clock_driven_start_is_pinned(self, tr):
        s = tr.emit("x", "dma_transfer", track="dma", start=4.5, dur=0.5)
        assert s.start_s == 4.5
        assert tr.cursor("dma") == 5.0

    def test_negative_duration_rejected(self, tr):
        with pytest.raises(ValueError):
            tr.emit("bad", "cpe_compute", dur=-1.0)

    def test_instant_event(self, tr):
        s = tr.instant_event("launch", "collective_launch", track="collective",
                             args={"nbytes": 64})
        assert s.instant and s.dur_s == 0.0
        assert s.args == {"nbytes": 64}

    def test_queries(self, tr):
        tr.emit("a", "cpe_compute", track="cpe", dur=1.0)
        tr.emit("b", "dma_transfer", track="dma", dur=1.0)
        tr.emit("c", "dma_transfer", track="dma", dur=1.0)
        assert len(tr) == 3
        assert [s.name for s in tr.spans if s.cat == "dma_transfer"] == ["b", "c"]
        assert sorted({s.track for s in tr.spans}) == ["cpe", "dma"]


class TestMonotonicity:
    """The per-track cursor never moves backwards."""

    def test_early_pinned_span_does_not_rewind_cursor(self, tr):
        tr.emit("late", "dma_transfer", track="dma", start=10.0, dur=1.0)
        tr.emit("early", "dma_transfer", track="dma", start=2.0, dur=1.0)
        assert tr.cursor("dma") == 11.0
        follow = tr.emit("next", "dma_transfer", track="dma", dur=1.0)
        assert follow.start_s == 11.0

    def test_cursor_monotone_over_mixed_emission(self, tr):
        seen = []
        for i, start in enumerate([None, 3.0, 1.0, None, 0.5]):
            tr.emit(f"s{i}", "cpe_compute", track="cpe", start=start, dur=0.25)
            seen.append(tr.cursor("cpe"))
        assert seen == sorted(seen)


class TestNesting:
    def test_span_covers_children_on_same_track(self, tr):
        with tr.span("outer", "solver_iter", track="work"):
            tr.emit("c1", "cpe_compute", track="work", dur=1.0)
            tr.emit("c2", "cpe_compute", track="work", dur=2.0)
        outer = tr.spans[-1]
        assert outer.name == "outer"
        assert outer.start_s == 0.0 and outer.dur_s == 3.0
        for child in tr.spans[:-1]:
            assert outer.start_s <= child.start_s
            assert child.end_s <= outer.end_s

    def test_span_covers_descendant_tracks(self, tr):
        with tr.span("iter", "solver_iter", track="rank0"):
            tr.emit("k", "cpe_compute", track="rank0/cpe", dur=4.0)
        outer = tr.spans[-1]
        assert outer.track == "rank0" and outer.dur_s == 4.0

    def test_nested_spans_nest(self, tr):
        with tr.span("outer", "solver_iter", track="t"):
            with tr.span("inner", "layer_fwd", track="t"):
                tr.emit("leaf", "cpe_compute", track="t", dur=1.0)
        inner = next(s for s in tr.spans if s.name == "inner")
        outer = next(s for s in tr.spans if s.name == "outer")
        assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s

    def test_explicit_duration_ratchets_cursor(self, tr):
        with tr.span("fixed", "solver_iter", track="t", dur=7.0):
            pass
        assert tr.cursor("t") == 7.0


class TestContext:
    def test_context_prefixes_tracks(self, tr):
        with tr.context("rank3"):
            s = tr.emit("x", "cpe_compute", track="cpe", dur=1.0)
        assert s.track == "rank3/cpe"

    def test_contexts_nest_and_unwind(self, tr):
        with tr.context("rank0"):
            with tr.context("cg1"):
                assert tr.resolve("dma") == "rank0/cg1/dma"
            assert tr.resolve("dma") == "rank0/dma"
        assert tr.resolve("dma") == "dma"

    def test_leading_slash_is_absolute(self, tr):
        with tr.context("rank0"):
            assert tr.resolve("/global") == "global"


class TestDisabledTracer:
    def test_default_ambient_tracer_is_null(self):
        assert active() is NULL_TRACER
        assert not active().enabled

    def test_null_tracer_emit_raises(self):
        with pytest.raises(RuntimeError):
            NULL_TRACER.emit("x", "cpe_compute")

    def test_null_tracer_contexts_are_noops(self):
        with NULL_TRACER.context("rank0"):
            with NULL_TRACER.span("s", "solver_iter"):
                pass
        assert len(NULL_TRACER.spans) == 0

    def test_emit_cost_spans_noop_when_disabled(self):
        class Cost:
            compute_s = dma_s = rlc_s = total_s = 1.0
            overhead_s = 0.0
            flops = dma_bytes = 0
        assert emit_cost_spans(NULL_TRACER, "conv", Cost()) is None
        assert len(NULL_TRACER.spans) == 0

    def test_tracing_installs_and_restores(self):
        assert active() is NULL_TRACER
        with tracing() as tr:
            assert active() is tr and tr.enabled
            with suspended():
                assert active() is NULL_TRACER
            assert active() is tr
        assert active() is NULL_TRACER

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert active() is NULL_TRACER

    def test_install_returns_previous(self):
        tr = Tracer()
        prev = install(tr)
        try:
            assert prev is NULL_TRACER
            assert active() is tr
        finally:
            install(prev)

    def test_null_tracer_is_a_tracer(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert isinstance(NULL_TRACER, Tracer)


class TestCostSpans:
    def test_components_pinned_at_parent_start(self, tr):
        class Cost:
            compute_s = 3.0
            dma_s = 2.0
            rlc_s = 0.0
            overhead_s = 0.5
            total_s = 3.5  # max(compute, dma, rlc) + overhead
            flops = 1000
            dma_bytes = 4096

        tr.emit("warmup", "layer_fwd", track="layers", dur=1.0)
        parent = emit_cost_spans(tr, "conv1", Cost(), cat="layer_fwd")
        assert parent.start_s == 1.0 and parent.dur_s == 3.5
        cpe = next(s for s in tr.spans if s.track == "cpe")
        dma = next(s for s in tr.spans if s.track == "dma")
        # Overlapping components visualize total = max(...) + overhead.
        assert cpe.start_s == dma.start_s == parent.start_s
        assert cpe.dur_s == 3.0 and dma.dur_s == 2.0
        # rlc_s == 0 emits nothing.
        assert not [s for s in tr.spans if s.track == "rlc"]

    def test_categories_are_the_documented_taxonomy(self):
        for cat in ("dma_transfer", "rlc_exchange", "cpe_compute",
                    "collective_step", "layer_fwd", "layer_bwd", "solver_iter"):
            assert cat in SPAN_CATEGORIES


class TestSpanValidation:
    """Spans are validated at record time with a typed error."""

    def test_nan_duration_rejected(self, tr):
        with pytest.raises(SpanValidationError):
            tr.emit("bad", "cpe_compute", dur=float("nan"))

    def test_infinite_duration_rejected(self, tr):
        with pytest.raises(SpanValidationError):
            tr.emit("bad", "cpe_compute", dur=float("inf"))

    def test_nan_start_rejected(self, tr):
        with pytest.raises(SpanValidationError):
            tr.emit("bad", "cpe_compute", start=float("nan"), dur=1.0)

    def test_end_before_start_rejected_as_value_error_too(self, tr):
        """SpanValidationError subclasses ValueError (compat with callers
        that catch the generic type)."""
        with pytest.raises(ValueError):
            tr.emit("bad", "cpe_compute", dur=-0.5)
        assert issubclass(SpanValidationError, ValueError)

    def test_rejected_span_is_not_recorded(self, tr):
        with pytest.raises(SpanValidationError):
            tr.emit("bad", "cpe_compute", dur=float("nan"))
        assert len(tr.spans) == 0


class TestSpanRecord:
    """Spans are immutable records; callers compare them by identity."""

    def test_assigning_a_field_raises(self, tr):
        span = tr.emit("a", "cpe_compute", dur=1.0)
        with pytest.raises(AttributeError):
            span.dur_s = 2.0
        assert span.dur_s == 1.0

    def test_args_are_copied_at_emit(self, tr):
        args = {"bytes": 64}
        span = tr.emit("a", "dma_transfer", dur=1.0, args=args)
        args["bytes"] = 128
        args["extra"] = True
        assert span.args == {"bytes": 64}


class TestEdges:
    def test_edge_records_in_order(self, tr):
        a = tr.emit("a", "cpe_compute", track="cpe", dur=1.0)
        b = tr.emit("b", "collective_step", track="coll", start=1.0, dur=1.0)
        tr.edge(a, b)
        assert tr.edges == [(a, b, "dep")]

    def test_bad_edge_kind_rejected(self, tr):
        a = tr.emit("a", "cpe_compute", track="cpe", dur=1.0)
        b = tr.emit("b", "cpe_compute", track="cpe", dur=1.0)
        with pytest.raises(SpanValidationError):
            tr.edge(a, b, kind="follows")

    def test_null_tracer_edge_raises(self, tr):
        a = tr.emit("a", "cpe_compute", track="cpe", dur=1.0)
        b = tr.emit("b", "cpe_compute", track="cpe", dur=1.0)
        with pytest.raises(RuntimeError):
            NULL_TRACER.edge(a, b)

    def test_cost_span_components_attach_as_members(self, tr):
        class Cost:
            compute_s = 3.0
            dma_s = 2.0
            rlc_s = 0.0
            overhead_s = 0.5
            total_s = 3.5
            flops = 1000
            dma_bytes = 4096

        parent = emit_cost_spans(tr, "conv1", Cost(), cat="layer_fwd")
        kinds = {(s.name, d.name, k) for s, d, k in tr.edges}
        assert ("conv1", "conv1", "member") in kinds
        assert all(k == "member" and d is parent for _, d, k in tr.edges)


class TestTimelineEdgeCases:
    """Zero-duration and fully-overlapping spans on one track."""

    def test_zero_duration_span_does_not_nest_followers(self, tr):
        from repro.trace.timeline import render_timeline

        tr.emit("zero", "layer_fwd", track="layers", start=1.0, dur=0.0)
        tr.emit("after", "layer_fwd", track="layers", start=1.0, dur=2.0)
        lines = render_timeline(tr).splitlines()
        after = next(l for l in lines if "after" in l)
        # "after" renders un-indented: a zero-duration span contains nothing.
        assert "] after" in after

    def test_identical_intervals_render_as_siblings(self, tr):
        from repro.trace.timeline import render_timeline

        tr.emit("first", "collective_step", track="coll", start=0.0, dur=2.0)
        tr.emit("twin", "collective_step", track="coll", start=0.0, dur=2.0)
        lines = render_timeline(tr).splitlines()
        twin = next(l for l in lines if "twin" in l)
        first = next(l for l in lines if "first" in l)
        # Same indentation: a concurrent duplicate, not containment.
        assert twin.index("twin") == first.index("first")

    def test_containment_still_indents(self, tr):
        from repro.trace.timeline import render_timeline

        tr.emit("outer", "layer_fwd", track="layers", start=0.0, dur=4.0)
        tr.emit("inner", "cpe_compute", track="layers", start=1.0, dur=1.0)
        lines = render_timeline(tr).splitlines()
        inner = next(l for l in lines if "inner" in l)
        assert "]   inner" in inner

    def test_highlight_marks_on_path_spans(self, tr):
        from repro.trace.timeline import render_timeline

        a = tr.emit("a", "cpe_compute", track="cpe", dur=1.0)
        tr.emit("b", "cpe_compute", track="cpe", dur=1.0)
        lines = render_timeline(tr, highlight=[a]).splitlines()
        line_a = next(l for l in lines if "] a <" in l)
        line_b = next(l for l in lines if "] b <" in l)
        assert line_a.startswith("* ")
        assert line_b.startswith("  ")

    def test_highlight_matches_identity_not_equal_fields(self, tr):
        from repro.trace.timeline import render_timeline

        a = tr.emit("a", "cpe_compute", track="cpe", start=0.0, dur=1.0)
        twin = tr.emit("a", "cpe_compute", track="cpe", start=0.0, dur=1.0)
        assert twin == a and twin is not a
        lines = render_timeline(tr, highlight=[a]).splitlines()
        rows = [l for l in lines if "] a <" in l]
        assert len(rows) == 2
        assert rows[0].startswith("* ")
        assert rows[1].startswith("  ")
