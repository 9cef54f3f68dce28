#!/usr/bin/env python3
"""Wall-clock benchmark of the simulator: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check   # every workload briefly + perturbed refs
    python3 perfbench/run.py --write-refs   # regenerate the stored references

Every workload (see ``workloads.py``) runs in fresh child processes, one
after another, until ``--seconds`` are spent (at least two children). A
child sets the workload up once and runs a fixed number of rounds of named
operations, timing each operation; an operation of one name does the same
work in every round and child of a run.

With ``--trace 0`` the children run untraced and report the end-to-end
metrics:

* ``setup_s`` -- child start to first timed operation, median over
  ``SETUP_SAMPLES`` children (children that only set up fill the count);
* ``host_s`` -- seconds of one round: per operation, the median of its
  repeats in the run, summed over the round's operations;
* ``peak_rss_mb`` -- peak resident memory, median over the timed children.

Both times are read at a reference machine speed. Other tenants of a
shared machine slow a core down by up to half, for seconds to many
minutes at a time, longer than a run lasts. So a child times a fixed
calibration loop (``child.calibrate``) after its set-up and after every
operation, and each time is scaled by ``REFERENCE_CALIB_S`` over the
calibration taken next to it (for an operation, the mean of the two that
bracket it). On a two-core VM this halved the spread of ``host_s`` over
runs minutes apart. Per-layer times are raw.

With ``--trace 1`` every second child wraps the program's layers
(``layers.py``) and the per-layer metrics are medians over those children;
the untraced children in between give ``bench.trace_overhead_pct``.

Children pin the BLAS/OpenMP pools to one thread: it removes spread on a
small machine and fixes the float reduction order the bitwise references
depend on.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric's median, quartiles and sample count, and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper_tables", "train_exec", "trace_timelines")

END_TO_END = {"setup_s": "s", "host_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "frame.build_s": "s",
    "frame.builds": "count",
    "frame.param_mb": "MB",
    "frame.exec_s": "s",
    "frame.solver_s": "s",
    "kernels.select_s": "s",
    "kernels.selects": "count",
    "kernels.select_distinct_ratio": "ratio",
    "kernels.gemm_plan_s": "s",
    "kernels.gemm_plans": "count",
    "hw.core_group_s": "s",
    "hw.core_groups": "count",
    "perf.price_s": "s",
    "perf.prices": "count",
    "perf.paper_err_pct": "%",
    "perf.paper_err_sw_pct": "%",
    "parallel.model_s": "s",
    "parallel.step_s": "s",
    "simmpi.collective_s": "s",
    "simmpi.collectives": "count",
    "simmpi.collective_mb": "MB",
    "simmpi.p2p_s": "s",
    "pipeline.train_s": "s",
    "pipeline.schedule_s": "s",
    "pipeline.partition_s": "s",
    "io.data_s": "s",
    "serve.engine_s": "s",
    "serve.requests": "count",
    "serve.cost_hit_ratio": "ratio",
    "trace.record_s": "s",
    "trace.spans": "count",
    "trace.critpath_s": "s",
    "trace.whatif_s": "s",
    "bench.trace_overhead_pct": "%",
    "bench.unattributed_s": "s",
}

MIN_CHILDREN = 2
#: Set-ups measured per run; children that only set up make up the count.
SETUP_SAMPLES = 7
#: The calibration loop's time on an otherwise idle 2.1 GHz Xeon core;
#: end-to-end times are reported at this speed.
REFERENCE_CALIB_S = 0.015
CHILD_TIMEOUT_S = 150.0
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(
    workload: str,
    seed: int,
    child: int,
    traced: bool,
    *,
    rounds: int | None = None,
    perturb: bool = False,
) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--child", str(child), "--traced", str(int(traced)),
    ]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if perturb:
        cmd.append("--perturb")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} child exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def scaled_ops(child: dict) -> dict[str, list[float]]:
    """Each operation's times at the reference speed, by operation name."""
    calib = child["calib_s"]
    out: dict[str, list[float]] = {}
    for i, (name, seconds) in enumerate(child["ops"]):
        speed = 2 * REFERENCE_CALIB_S / (calib[i] + calib[i + 1])
        out.setdefault(name, []).append(seconds * speed)
    return out


def round_s(children: list[dict]) -> float:
    """Seconds of one round at the reference speed, from median repeats."""
    repeats: dict[str, list[float]] = {}
    for child in children:
        for name, times in scaled_ops(child).items():
            repeats.setdefault(name, []).extend(times)
    return sum(statistics.median(times) for times in repeats.values())


def layer_metrics(child: dict) -> dict[str, float]:
    """Every per-layer metric of one traced child (0 where a layer is idle)."""
    layers = child["layers"]
    out = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    selects = layers.get("kernels.selects", 0.0)
    out["kernels.select_distinct_ratio"] = (
        layers.get("kernels.select_distinct", 0.0) / selects if selects else 0.0
    )
    lookups = layers.get("serve.cost_lookups", 0.0)
    out["serve.cost_hit_ratio"] = (
        1.0 - layers.get("serve.cost_misses", 0.0) / lookups if lookups else 0.0
    )
    out.update(child["extra"])
    out["bench.unattributed_s"] = child["unattributed_s"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(children: list[dict], trace: bool) -> dict[str, tuple[float, list[float]]]:
    """``{metric: (value, per-child samples)}`` for the chosen metric set."""
    plain = [c for c in children if "layers" not in c and c["ops"]]
    if not trace:
        setups = [
            c["setup_s"] * REFERENCE_CALIB_S / c["calib_s"][0]
            for c in children if "layers" not in c
        ]
        rss = [c["peak_rss_mb"] for c in plain]
        return {
            "setup_s": (statistics.median(setups), setups),
            "host_s": (round_s(plain), [round_s([c]) for c in plain]),
            "peak_rss_mb": (statistics.median(rss), rss),
        }
    traced = [c for c in children if "layers" in c]
    per_child = [layer_metrics(c) for c in traced]
    out = {}
    for name in PER_LAYER:
        samples = [m[name] for m in per_child]
        out[name] = (statistics.median(samples), samples)
    overhead = 100.0 * (round_s(traced) / round_s(plain) - 1.0)
    out["bench.trace_overhead_pct"] = (overhead, [overhead])
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Spawn children for ``seconds``, then top up the set-up samples."""
    start = time.monotonic()
    children: list[dict] = []
    while True:
        traced = trace and len(children) % 2 == 1
        children.append(spawn(workload, seed, len(children), traced))
        elapsed = time.monotonic() - start
        # Stop once another child of the same length would overrun.
        if len(children) >= MIN_CHILDREN and elapsed * (1 + 1 / len(children)) > seconds:
            break
    while len(children) < SETUP_SAMPLES:
        children.append(spawn(workload, seed, len(children), False, rounds=0))
    return children


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload for ``seconds``; print the table and the result."""
    start = time.monotonic()
    children = measure(workload, seed, seconds, trace)
    samples = summarise(children, trace)
    units = PER_LAYER if trace else END_TO_END
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    n_traced = sum("layers" in c for c in children)
    print(
        f"{workload} seed={seed}: {len(children)} children "
        f"({n_traced} traced) in {time.monotonic() - start:.1f} s"
    )
    print("per-child median and quartiles over n children:")
    print(
        f"{'metric':32s} {'value':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
        f"{'n':>3s}  unit"
    )
    metrics = {}
    for name, unit in units.items():
        value, per_child = samples[name]
        q1, median, q3 = quartiles(per_child)
        print(
            f"{name:32s} {value:12.6g} {median:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{len(per_child):3d}  {unit}"
        )
        metrics[name] = {"value": value, "unit": unit}
    print(f"{'error_rate':32s} {failed / attempted:12.6g}  ({failed} of {attempted} operations failed)")
    for child in children:
        for message in child["failures"]:
            print(f"FAILED: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def self_check() -> int:
    """Run every workload briefly; check names, units and that checks can fail."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {declared}")
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        children = [
            spawn(workload, 0, 0, False, rounds=1),
            spawn(workload, 0, 1, True, rounds=1),
        ]
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            samples = summarise(children, trace)
            missing = [n for n in units if n not in samples]
            if missing:
                problems.append(f"{workload}: no samples for {missing}")
        failed = [m for c in children for m in c["failures"]]
        if failed:
            problems.append(f"{workload}: checks failed: {failed}")
        perturbed = spawn(workload, 0, 2, False, rounds=1, perturb=True)
        if perturbed["failed"] == 0:
            problems.append(f"{workload}: a perturbed reference went unnoticed")
        print(
            f"{workload}: {sum(c['attempted'] for c in children)} operations passed; "
            f"with one reference perturbed, error_rate = "
            f"{perturbed['failed']}/{perturbed['attempted']}"
        )
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def write_refs() -> int:
    code = "import workloads; workloads.write_references()"
    return subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=_env(), timeout=900
    ).returncode


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.write_refs:
        return write_refs()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
