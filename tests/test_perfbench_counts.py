"""The wall-clock benchmark's machine-independent counts, pinned exactly.

Host times vary from machine to machine, but how many nets a benchmark
child builds, how many GEMM plans and core groups it constructs, how many
prices, collectives and trace spans it makes do not. Each test runs one
traced child of one ``perfbench`` workload for one round (``spawn`` in
``perfbench/run.py``, loaded by path) and requires every operation to
pass and every count to equal its pinned value. A change that makes the
program do more or less of this work fails here, in tier 1.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

#: Per-layer counts of one traced child at seed 5, round 1. Every plan
#: prices against one shared core group per parameter set, and no workload
#: runs a plan's executed data path, so each child builds one core group.
#: The paper pass builds each of its 8 (net, batch) pairs once and prices
#: it on all three devices (``repro.perf.layer_cost.net_record``).
COUNTS = {
    "paper_tables": {
        "frame.builds": 8,
        "hw.core_groups": 1,
        "kernels.gemm_plans": 424,
        "kernels.selects": 613,
        "kernels.select_distinct": 332,
        "perf.prices": 24,
    },
    "train_exec": {
        "frame.builds": 6,
        "hw.core_groups": 1,
        "kernels.gemm_plans": 155,
        "kernels.selects": 10,
        "kernels.select_distinct": 5,
        "perf.prices": 25,
        # The data-parallel trainer's bucket allreduces. The topology-aware
        # entry executes the RHD schedule itself, so each call counts once.
        "simmpi.collectives": 18,
    },
    "trace_timelines": {
        "frame.builds": 4,
        "hw.core_groups": 1,
        "kernels.gemm_plans": 88,
        "kernels.selects": 104,
        "kernels.select_distinct": 59,
        "perf.prices": 5,
        "serve.requests": 24000,
        "serve.cost_misses": 2,
        "serve.cost_lookups": 3911,
        "trace.spans": 81402,
    },
}


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_child_counts(workload):
    child = _run_module().spawn(workload, 5, 0, True, rounds=1)
    assert child["failed"] == 0, child["failures"]
    counts = {name: child["layers"].get(name, 0.0) for name in COUNTS[workload]}
    assert counts == COUNTS[workload]
