"""Labelled counters for the ``metrics`` report, and an exact histogram.

:class:`MetricsRegistry` holds named, labelled :class:`Counter` sums
(``dma.bytes`` with ``dir="model", rank="0"``, ``comm.steps`` with
``collective="rhd"``, ...). :func:`~repro.metrics.session.collect_training_step`
builds one per report from what the run returns, and its
:meth:`~MetricsRegistry.snapshot` is the report's ``counters`` block. No
registry is ambient and no simulator hook writes to one: the hook sites
record what happened as trace spans (:mod:`repro.trace`), and the fault
injector keeps the fault totals.

:class:`Histogram` keeps every sample and answers exact percentile
queries; the serving report computes its latency percentiles with it.
"""

from __future__ import annotations

import math
from typing import Any, Mapping


def _freeze_labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically non-decreasing sum."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = float(amount)
        if amount < 0 or math.isnan(amount):
            raise ValueError(f"counter increments must be >= 0, got {amount!r}")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Full-sample histogram with exact percentile queries.

    Samples are kept verbatim (simulated workloads emit thousands, not
    billions, of observations); :meth:`percentile` matches
    ``numpy.percentile(..., method="linear")`` exactly, which the unit
    tests pin against NumPy.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.samples else 0.0

    @property
    def min(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if not self.samples:
            raise ValueError("percentile of an empty histogram")
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = q / 100 * (len(data) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return data[lo]
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac


class MetricsRegistry:
    """Labelled counters keyed by ``(name, labels)``; see the module docstring."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Counter] = {}

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment the counter ``(name, labels)`` by ``amount`` (>= 0)."""
        key = (name, _freeze_labels(labels))
        counter = self._metrics.get(key)
        if counter is None:
            counter = self._metrics[key] = Counter()
        counter.inc(amount)

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-able dump: ``{name: [{labels, kind, value}, ...]}``."""
        out: dict[str, list[dict[str, Any]]] = {}
        for (name, labels), inst in sorted(self._metrics.items()):
            entry = {"labels": dict(labels)}
            entry.update(inst.as_dict())
            out.setdefault(name, []).append(entry)
        return out
