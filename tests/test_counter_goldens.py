"""Goldens for the two commands that print run counters.

``tests/golden/metrics_step.json`` pins the full ``repro-metrics/1``
documents of :func:`~repro.metrics.session.collect_training_step` (the
``metrics`` command), counters block included: LeNet B=16 at 1, 2, 4 and
8 ranks over 1-3 iterations and both placement schemes, plus AlexNet
B=64 on 4 ranks. The 2-rank and single-supernode cases pin that a
``comm.bytes`` link entry exists only when some step used that link.

``tests/golden/chaos_reports.json`` pins every
:class:`~repro.faults.session.ChaosReport` field (floats as ``repr``) of
the ``chaos`` run ``chaos:0x5caffe:3`` on LeNet with 4 ranks and 6
iterations. Its plan fires link retries, stragglers and a rank crash, so
``fault_time_s`` sums non-zero retry, straggler and timeout seconds.
Its float32 losses depend on how many threads split each BLAS reduction,
so the tests run under one BLAS thread (``tests/__init__.py``), and so
does the regeneration.

Regenerate both with ``PYTHONPATH=src python -m tests.test_counter_goldens``.
"""

from __future__ import annotations

import json
import pathlib

from repro.faults.session import run_chaos
from repro.frame.model_zoo import alexnet, lenet
from repro.metrics.session import collect_training_step

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
METRICS_GOLDEN = GOLDEN_DIR / "metrics_step.json"
CHAOS_GOLDEN = GOLDEN_DIR / "chaos_reports.json"

#: name -> (builder, batch, collect_training_step keyword arguments)
METRICS_CASES = {
    "lenet-r1-i1": (lenet.build, 16, dict(ranks=1, iterations=1)),
    "lenet-r2-q1-i1": (
        lenet.build, 16, dict(ranks=2, iterations=1, nodes_per_supernode=1)
    ),
    "lenet-r4-q4-i1": (
        lenet.build, 16, dict(ranks=4, iterations=1, nodes_per_supernode=4)
    ),
    "lenet-r4-i2-improved": (lenet.build, 16, dict(ranks=4, iterations=2)),
    "lenet-r4-i2-original": (
        lenet.build, 16, dict(ranks=4, iterations=2, scheme="original")
    ),
    "lenet-r8-i3-improved": (lenet.build, 16, dict(ranks=8, iterations=3)),
    "lenet-r8-i3-original": (
        lenet.build, 16, dict(ranks=8, iterations=3, scheme="original")
    ),
    "alexnet-r4-i1": (alexnet.build, 64, dict(ranks=4, iterations=1)),
}

CHAOS_SEED = "chaos:0x5caffe:3"


def _render(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def metrics_documents() -> str:
    """Every :data:`METRICS_CASES` report as one JSON document."""
    return _render(
        {
            name: collect_training_step(
                build(batch_size=batch), **session
            ).to_json_dict()
            for name, (build, batch, session) in METRICS_CASES.items()
        }
    )


def chaos_report() -> str:
    """The :data:`CHAOS_SEED` report's fields, floats as ``repr``."""
    report = run_chaos(
        lambda rank: lenet.build(batch_size=16),
        ranks=4,
        iterations=6,
        seed=CHAOS_SEED,
        verify=False,
    )
    return _render(
        {
            "seed": report.seed,
            "plan": report.plan.describe(),
            "ranks": report.ranks,
            "iterations": report.iterations,
            "surviving_ranks": report.surviving_ranks,
            "injected": dict(report.injected),
            "retries": report.retries,
            "rank_rebuilds": report.rank_rebuilds,
            "timeouts": report.timeouts,
            "fault_time_s": repr(report.fault_time_s),
            "total_time_s": repr(report.total_time_s),
            "losses": [repr(loss) for loss in report.losses],
            "recoveries": [
                [resume, list(survivors)] for resume, survivors in report.recoveries
            ],
            "weights_match": report.weights_match,
        }
    )


def test_metrics_documents_match_golden():
    assert METRICS_GOLDEN.is_file(), (
        f"golden file missing: {METRICS_GOLDEN}; regenerate with "
        "`python -m tests.test_counter_goldens`"
    )
    assert metrics_documents() == METRICS_GOLDEN.read_text()


def test_chaos_report_matches_golden():
    assert CHAOS_GOLDEN.is_file(), (
        f"golden file missing: {CHAOS_GOLDEN}; regenerate with "
        "`python -m tests.test_counter_goldens`"
    )
    assert chaos_report() == CHAOS_GOLDEN.read_text()


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    METRICS_GOLDEN.write_text(metrics_documents())
    CHAOS_GOLDEN.write_text(chaos_report())
    print(f"wrote {METRICS_GOLDEN} and {CHAOS_GOLDEN}")
