"""Every stored ``train_exec`` training stream replays bit for bit.

``perfbench/refs/train_exec.json`` holds the final-weight digests of eight
seeded LeNet data streams; a benchmark run (and its ``--self-check``)
replays only the streams its seed draws. This test replays all eight
through the benchmark's own trainers: the 4-rank data-parallel digest and
the single-worker baseline digest must equal the stored ones, and both
pipeline schedules must equal the baseline bitwise.

The digests hold for single-threaded BLAS, so each stream runs in a child
interpreter started with the benchmark's thread pins (``run.THREAD_PINS``);
``python tests/test_train_exec_streams.py <stream>`` is that child. The
eight streams take about half a minute, so they run only with
``REPRO_HEAVY=1``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))
ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SCHEDULES = ("1f1b", "fill_drain")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay(stream: int) -> dict:
    """Train one stream with all three trainers: both digests and the failed checks."""
    workloads = _load("workloads")
    dp, problems = workloads.train_dp(stream)
    baseline, more = workloads.train_baseline(stream)
    problems += more
    for schedule in SCHEDULES:
        problems += [
            f"{schedule}: {p}"
            for p in workloads.train_pipeline(stream, schedule, baseline)
        ]
    return {
        "dp": dp,
        "baseline": workloads.digest(baseline.params),
        "problems": problems,
    }


@pytest.mark.skipif(not HEAVY, reason="set REPRO_HEAVY=1 to replay all streams")
@pytest.mark.parametrize("stream", range(_load("workloads").N_STREAMS))
def test_stream_replays_bitwise(stream):
    env = dict(os.environ, **_load("run").THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, __file__, str(stream)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(child.stdout.splitlines()[-1])
    ref = json.loads((PERFBENCH / "refs" / "train_exec.json").read_text())[str(stream)]
    assert got["problems"] == []
    assert got["dp"] == ref["dp"]
    assert got["baseline"] == ref["baseline"]


if __name__ == "__main__":
    print(json.dumps(replay(int(sys.argv[1]))))
