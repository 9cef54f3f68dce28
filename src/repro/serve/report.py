"""Serving reports: per-request latency accounting and SLO attainment.

Every request that enters the engine leaves a :class:`RequestRecord` with
its latency split into the three phases ``docs/serving.md`` defines:

* ``queue_s`` — waiting for the engine to finish earlier batches (the
  server was busy when the request arrived);
* ``batch_s`` — waiting for the batch to form once the server was free
  (the dynamic-batching delay, bounded by ``max_wait_s``);
* ``compute_s`` — the dispatched batch's forward time (shared by every
  request in the batch).

The :class:`ServeReport` aggregates them into p50/p95/p99 latency
percentiles (reusing the exact linear-interpolation percentile the metrics
histograms pin against NumPy), throughput, *goodput* (within-SLO
completions per second), and SLO attainment over all offered requests —
shed requests count as SLO misses, never as successes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.metrics.registry import Histogram
from repro.utils.tables import Table
from repro.utils.units import format_time

#: Version tag of the JSON document ``python -m repro serve --json`` emits.
SERVE_SCHEMA = "repro-serve/1"


class RequestRecord(NamedTuple):
    """One request's fate: either a latency split or a shed marker."""

    rid: int
    arrival_s: float
    shed: bool = False
    queue_s: float = 0.0
    batch_s: float = 0.0
    compute_s: float = 0.0
    batch_id: int = -1
    batch_size: int = 0

    @property
    def latency_s(self) -> float:
        return self.queue_s + self.batch_s + self.compute_s


def _percentile(samples: list[float], q: float) -> float:
    """NumPy-linear percentile via the metrics histogram (0.0 when empty)."""
    if not samples:
        return 0.0
    h = Histogram()
    for s in samples:
        h.observe(s)
    return h.percentile(q)


@dataclass
class ServeReport:
    """Everything one serving session measured."""

    model: str
    arrivals: str
    n_requests: int
    max_batch: int
    max_wait_s: float
    queue_bound: int
    slo_s: float
    makespan_s: float
    n_batches: int
    records: list[RequestRecord] = field(default_factory=list)
    fault_seed: str | None = None

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if not r.shed]

    @property
    def n_shed(self) -> int:
        return sum(1 for r in self.records if r.shed)

    @property
    def n_completed(self) -> int:
        return len(self.records) - self.n_shed

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        return self.n_completed / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def n_within_slo(self) -> int:
        return sum(1 for r in self.completed if r.latency_s <= self.slo_s)

    @property
    def goodput_rps(self) -> float:
        """Within-SLO completions per simulated second."""
        return self.n_within_slo / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests served within the SLO."""
        return self.n_within_slo / self.n_requests if self.n_requests else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.n_completed / self.n_batches if self.n_batches else 0.0

    def latency_percentile(self, q: float) -> float:
        return _percentile([r.latency_s for r in self.completed], q)

    def phase_means(self) -> dict[str, float]:
        """Mean queue/batch/compute seconds over completed requests."""
        done = self.completed
        n = len(done) or 1
        return {
            "queue_s": sum(r.queue_s for r in done) / n,
            "batch_s": sum(r.batch_s for r in done) / n,
            "compute_s": sum(r.compute_s for r in done) / n,
        }

    # ------------------------------------------------------------------ #
    # serialization / rendering
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": SERVE_SCHEMA,
            "model": self.model,
            "arrivals": self.arrivals,
            "fault_seed": self.fault_seed,
            "config": {
                "max_batch": self.max_batch,
                "max_wait_s": self.max_wait_s,
                "queue_bound": self.queue_bound,
                "slo_s": self.slo_s,
            },
            "n_requests": self.n_requests,
            "n_completed": self.n_completed,
            "n_shed": self.n_shed,
            "n_batches": self.n_batches,
            "mean_batch_size": self.mean_batch_size,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "slo_attainment": self.slo_attainment,
            "latency_s": {
                "p50": self.latency_percentile(50),
                "p95": self.latency_percentile(95),
                "p99": self.latency_percentile(99),
            },
            "phase_means_s": self.phase_means(),
        }

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    def render(self) -> str:
        """Terminal rendering: headline, percentile table, phase split."""
        head = (
            f"served {self.n_completed}/{self.n_requests} request(s) of "
            f"{self.model!r} in {format_time(self.makespan_s)} simulated "
            f"({self.n_batches} batch(es), mean size "
            f"{self.mean_batch_size:.2f}, {self.n_shed} shed)"
        )
        if self.fault_seed:
            head += f"\nfaults: {self.fault_seed}"
        table = Table(
            headers=("metric", "value"),
            title=f"latency vs SLO {format_time(self.slo_s)} ({self.arrivals})",
        )
        for q in (50, 95, 99):
            table.add_row(f"p{q} latency", format_time(self.latency_percentile(q)))
        phases = self.phase_means()
        table.add_row("mean queue wait", format_time(phases["queue_s"]))
        table.add_row("mean batch wait", format_time(phases["batch_s"]))
        table.add_row("mean compute", format_time(phases["compute_s"]))
        table.add_row("throughput", f"{self.throughput_rps:.2f} req/s")
        table.add_row("goodput (within SLO)", f"{self.goodput_rps:.2f} req/s")
        table.add_row("SLO attainment", f"{100 * self.slo_attainment:.1f}%")
        return "\n".join([head, "", table.render()])
