"""Unit tests for the repro.metrics counter registry and histogram."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.metrics.registry import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_accumulates(self):
        c = Counter()
        c.inc(3)
        c.inc(0.5)
        assert c.value == 3.5

    def test_monotonic_rejects_negative(self):
        c = Counter()
        with pytest.raises(ValueError, match=">= 0"):
            c.inc(-1)
        assert c.value == 0.0

    def test_rejects_nan(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(float("nan"))


class TestHistogram:
    @pytest.mark.parametrize("q", [0, 1, 25, 50, 73.5, 95, 99, 100])
    @pytest.mark.parametrize("n", [1, 2, 5, 100, 997])
    def test_percentile_matches_numpy_linear(self, q, n):
        rng = np.random.default_rng(n)
        h = Histogram()
        samples = rng.normal(size=n)
        for s in samples:
            h.observe(s)
        assert h.percentile(q) == pytest.approx(
            float(np.percentile(samples, q, method="linear")), rel=1e-12, abs=1e-12
        )

    def test_percentile_validates(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.percentile(5)  # empty
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3 and h.sum == 6.0 and h.mean == 2.0
        assert h.min == 1.0 and h.max == 3.0


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        mx = MetricsRegistry()
        mx.count("dma.bytes", 100, dir="get")
        mx.count("dma.bytes", 50, dir="get")
        mx.count("dma.bytes", 30, dir="put")
        assert mx.snapshot()["dma.bytes"] == [
            {"labels": {"dir": "get"}, "kind": "counter", "value": 150.0},
            {"labels": {"dir": "put"}, "kind": "counter", "value": 30.0},
        ]

    def test_snapshot_is_json_serializable(self):
        mx = MetricsRegistry()
        mx.count("dma.bytes", 10, dir="get", rank="0")
        mx.count("comm.steps", 3, collective="rhd")
        snap = mx.snapshot()
        assert list(snap) == ["comm.steps", "dma.bytes"]  # sorted by name
        round_tripped = json.loads(json.dumps(snap))
        assert round_tripped == snap
        assert round_tripped["dma.bytes"][0]["labels"] == {"dir": "get", "rank": "0"}
        assert round_tripped["comm.steps"][0]["value"] == 3
