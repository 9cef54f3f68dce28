"""One benchmark child: set a workload up, run its rounds, print one JSON line.

Started by ``run.py`` in a fresh interpreter with the BLAS/OpenMP thread
pools pinned to one thread. ``--spawned`` is the parent's monotonic clock
just before the spawn, so ``setup_s`` covers interpreter start, imports
and the workload's set-up. Every operation of every round is timed on its
own (``ops``, in the order run); ``--rounds 0`` measures set-up alone.
With ``--traced 1`` the child wraps the program's layers (see
``layers.py``) before the set-up and reports per-layer totals.

Right after the set-up and after every operation the child times a fixed
calibration loop (``calib_s``), so each operation is bracketed by two
readings of how fast the shared machine runs at that moment.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import time


def calibrate() -> float:
    """Seconds one fixed loop of heap, dict and string work takes.

    The program's host time is mostly interpreted Python of this kind, so
    the loop slows down together with it when other tenants of the machine
    compete for the core.
    """
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, str]] = {}
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 512] = (i, str(i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--perturb", action="store_true",
                        help="alter one stored reference; checks must fail")
    args = parser.parse_args()

    from workloads import WORKLOADS

    clock = None
    if args.traced:
        from layers import LayerClock

        clock = LayerClock()
        clock.install()
    workload = WORKLOADS[args.workload](args.seed, args.child, args.perturb)
    rounds = workload.rounds if args.rounds is None else args.rounds

    setup_layers = clock.snapshot() if clock else {}
    setup_s = time.monotonic() - args.spawned
    calib_s = [calibrate()]
    ops: list[tuple[str, float]] = []
    failures: list[str] = []
    for index in range(rounds):
        for name, operation in workload.operations(index):
            # Every operation starts from a collected heap, so it does not
            # pay for its predecessors' garbage.
            gc.collect()
            t0 = time.perf_counter()
            try:
                problems = operation()
            except Exception as exc:  # an operation that raises has failed
                problems = [f"raised {exc!r}"]
            ops.append((name, time.perf_counter() - t0))
            calib_s.append(calibrate())
            failures += [f"round {index} {name}: {p}" for p in problems[:1]]

    result = {
        "setup_s": setup_s,
        "ops": ops,
        "calib_s": calib_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "extra": workload.extra,
    }
    if clock is not None:
        layers = clock.snapshot()
        timed_self_s = sum(
            v - setup_layers.get(k, 0.0) for k, v in layers.items() if k.endswith("_s")
        )
        result["layers"] = layers
        result["unattributed_s"] = sum(t for _, t in ops) - timed_self_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
