"""Extension: data-parallel vs pipeline vs hybrid at scale.

The paper's own scaling data (figs. 10/11) shows data-parallel VGG going
communication-bound: the gradient payload is the full model, and even the
bucketed-overlap extension only hides part of it. This harness prices the
alternatives head-to-head at n ∈ {4, 16, 64} nodes under the same
weak-scaling frame and the same calibrated cost curves:

* **DP (fused)** — the paper's synchronous SGD, one full-model allreduce;
* **DP (bucketed)** — the PR-5 overlap-aware baseline (32 MB buckets);
* **pipeline** — pure pipeline, ``S = n`` stages (capped at the layer
  count), boundary activations only, no gradient allreduce;
* **hybrid** — ``S = 4`` stages × ``R = n/4`` replicas, per-stage-group
  bucketed allreduces overlapped with the drain.

The table reports iteration seconds and the exposed-communication
fraction. The committed expectation (pinned by
``tests/test_harness_goldens.py``):
hybrid VGG-16 at 16 nodes exposes a *lower* comm fraction than the
bucketed DP baseline, and beats fused DP end-to-end — while pure
pipeline at large S is throttled by stage imbalance (the fattest conv
layer bounds the bottleneck stage), which is exactly why hybrid exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.frame.model_zoo import vgg
from repro.parallel.ssgd import SSGDIterationModel
from repro.perf.layer_cost import net_iteration_time
from repro.pipeline.model import PipelineIterationModel
from repro.pipeline.partition import plan_stages
from repro.utils.tables import Table

NODE_COUNTS = (4, 16, 64)
#: Hybrid stage depth (replicas make up the rest of the allocation).
HYBRID_STAGES = 4
MICROBATCHES = 16
BUCKET_MB = 32.0
SUB_BATCH = 8


@dataclass(frozen=True)
class ComparePoint:
    """One (mode, node-count) sample of the comparison.

    ``n_nodes`` is the requested allocation; ``n_stages * replicas`` is
    what the mode actually uses (pure pipeline caps stages at the layer
    count, so it may underfill large allocations — that *is* the
    scaling-limit finding).
    """

    mode: str
    n_nodes: int
    n_stages: int
    replicas: int
    iteration_s: float
    comm_fraction: float
    bubble_frac: float


@lru_cache(maxsize=1)
def _vgg_inputs():
    net = vgg.build_vgg16(batch_size=SUB_BATCH)
    return net, net_iteration_time(net, "sw26010"), float(net.param_bytes())


def generate(
    net=None,
    *,
    node_counts: tuple[int, ...] = NODE_COUNTS,
    n_microbatches: int = MICROBATCHES,
    hybrid_stages: int = HYBRID_STAGES,
    bucket_mb: float = BUCKET_MB,
) -> list[ComparePoint]:
    """All comparison samples (``net=None`` builds the VGG-16 config)."""
    if net is None:
        net, compute_s, model_bytes = _vgg_inputs()
    else:
        compute_s = net_iteration_time(net, "sw26010")
        model_bytes = float(net.param_bytes())
    dp_fused = SSGDIterationModel(compute_s=compute_s, model_bytes=model_bytes)
    dp_bucketed = SSGDIterationModel(
        compute_s=compute_s, model_bytes=model_bytes, bucket_mb=bucket_mb
    )
    points: list[ComparePoint] = []
    for n in node_counts:
        for mode, model in (("dp-fused", dp_fused), ("dp-bucketed", dp_bucketed)):
            bd = model.breakdown(n)
            points.append(
                ComparePoint(mode, n, 1, n, bd.total_s, bd.comm_fraction, 0.0)
            )
        pure_stages = min(n, len(net.layers))
        for mode, stages, replicas in (
            ("pipeline", pure_stages, 1),
            ("hybrid", min(hybrid_stages, n), n // min(hybrid_stages, n)),
        ):
            plan = plan_stages(net, stages)
            model = PipelineIterationModel(
                plan,
                n_microbatches=n_microbatches,
                replicas=replicas,
                bucket_mb=bucket_mb,
            )
            bd = model.breakdown()
            points.append(
                ComparePoint(
                    mode,
                    n,
                    stages,
                    replicas,
                    bd.total_s,
                    bd.comm_fraction,
                    bd.bubble_frac,
                )
            )
    return points


def render(points: list[ComparePoint] | None = None) -> str:
    points = points if points is not None else generate()
    modes = ("dp-fused", "dp-bucketed", "pipeline", "hybrid")
    table = Table(
        headers=["nodes"]
        + [h for m in modes for h in (f"{m} (s)", f"{m} comm%")],
        title=(
            f"Extension: DP vs pipeline vs hybrid, VGG-16 B={SUB_BATCH}, "
            f"M={MICROBATCHES} (SxR in notes)"
        ),
    )
    node_counts = sorted({p.n_nodes for p in points})
    for n in node_counts:
        row: list[object] = [n]
        for mode in modes:
            candidates = [p for p in points if p.mode == mode and p.n_nodes == n]
            if not candidates:
                row.extend(["-", "-"])
                continue
            (pt,) = candidates
            row.append(round(pt.iteration_s, 3))
            row.append(round(100.0 * pt.comm_fraction, 1))
        table.add_row(*row)
    notes = [
        "",
        "notes:",
    ]
    for p in points:
        if p.mode in ("pipeline", "hybrid"):
            notes.append(
                f"  {p.mode} @ {p.n_nodes} nodes: S={p.n_stages} x "
                f"R={p.replicas}, bubble {100 * p.bubble_frac:.1f}%"
            )
    return table.render() + "\n".join(notes)
