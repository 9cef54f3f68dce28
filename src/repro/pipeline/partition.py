"""Stage partitioning: split a net into S balanced contiguous stages.

A pipeline stage is a contiguous run of layers (the layer list is already
topologically ordered, so contiguous splits are always executable). The
partitioners minimize the *bottleneck* stage cost — the pipeline's steady
state runs at the speed of its slowest stage, so max-stage-cost is the
quantity that bounds throughput:

* :func:`partition_greedy` — the obvious baseline: walk the layers,
  cutting whenever the running stage reaches the ideal ``total / S``
  share. Fast, but can be arbitrarily unlucky around one huge layer.
* :func:`partition_dp` — exact: the classic linear-partition dynamic
  program over prefix sums, ``O(L^2 * S)``, minimizing the maximum stage
  cost (ties broken toward earlier cuts, so results are deterministic).

:func:`plan_stages` runs either on a real :class:`~repro.frame.net.Net`
(costs from :func:`~repro.perf.layer_cost.net_layer_timings`) and derives
the *cut sets*: for each boundary, the blobs produced before it and
consumed at-or-after it — exactly the tensors a pipeline must transfer
downstream (and whose gradients flow back). A blob consumed several
stages later (e.g. the label, produced by the data layer and consumed by
the loss) appears in every intermediate cut: it is relayed stage to
stage, as a real pipeline would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frame.net import Net
from repro.perf.layer_cost import net_layer_timings


@dataclass(frozen=True)
class StagePlan:
    """One partition of a net into pipeline stages.

    ``boundaries`` has ``S + 1`` entries: stage ``s`` owns layers
    ``[boundaries[s], boundaries[s + 1])``. ``cut_blobs[i]`` names the
    blobs crossing boundary ``i`` (between stages ``i`` and ``i + 1``),
    and ``cut_bytes[i]`` their total payload.
    """

    net_name: str
    boundaries: tuple[int, ...]
    stage_fwd_s: tuple[float, ...]
    stage_bwd_s: tuple[float, ...]
    cut_blobs: tuple[tuple[str, ...], ...]
    cut_bytes: tuple[float, ...]
    #: Per-stage learnable-parameter bytes (the hybrid mode's per-group
    #: allreduce payloads).
    stage_param_bytes: tuple[float, ...]
    method: str = "dp"

    @property
    def n_stages(self) -> int:
        return len(self.boundaries) - 1

    @property
    def stage_cost_s(self) -> tuple[float, ...]:
        """Per-stage forward+backward seconds (the balance objective)."""
        return tuple(f + b for f, b in zip(self.stage_fwd_s, self.stage_bwd_s))

    @property
    def stage_imbalance(self) -> float:
        """``max / mean - 1``: 0 for a perfectly balanced split."""
        costs = self.stage_cost_s
        mean = sum(costs) / len(costs)
        if mean <= 0:
            return 0.0
        return max(costs) / mean - 1.0

    def layer_range(self, stage: int) -> range:
        """Layer indices of one stage."""
        return range(self.boundaries[stage], self.boundaries[stage + 1])


def _validate(costs: list[float], n_stages: int) -> None:
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if n_stages > len(costs):
        raise ValueError(
            f"cannot split {len(costs)} layers into {n_stages} stages "
            "(every stage needs at least one layer)"
        )


def partition_greedy(costs: list[float], n_stages: int) -> tuple[int, ...]:
    """Greedy baseline: cut when the running stage reaches ``total / S``.

    Later stages are guaranteed at least one layer each (the cut point is
    clamped so the tail never starves), but the bottleneck can overshoot
    the optimum when a single layer dominates.
    """
    _validate(costs, n_stages)
    total = float(sum(costs))
    target = total / n_stages
    bounds = [0]
    acc = 0.0
    i = 0
    n = len(costs)
    for s in range(n_stages - 1):
        # Leave enough layers for the remaining stages.
        last_allowed = n - (n_stages - 1 - s)
        acc = 0.0
        while i < last_allowed:
            acc += costs[i]
            i += 1
            if acc >= target:
                break
        bounds.append(i)
    bounds.append(n)
    return tuple(bounds)


def partition_dp(costs: list[float], n_stages: int) -> tuple[int, ...]:
    """Exact linear partition: minimize the maximum stage cost.

    ``dp[s][j]`` = best bottleneck splitting the first ``j`` layers into
    ``s`` stages; reconstruction prefers the earliest feasible cut so the
    result is deterministic.
    """
    _validate(costs, n_stages)
    n = len(costs)
    prefix = [0.0]
    for c in costs:
        prefix.append(prefix[-1] + float(c))

    def seg(i: int, j: int) -> float:
        return prefix[j] - prefix[i]

    inf = float("inf")
    dp = [[inf] * (n + 1) for _ in range(n_stages + 1)]
    cut = [[0] * (n + 1) for _ in range(n_stages + 1)]
    dp[0][0] = 0.0
    for s in range(1, n_stages + 1):
        for j in range(s, n + 1):
            best, best_k = inf, s - 1
            for k in range(s - 1, j):
                cand = max(dp[s - 1][k], seg(k, j))
                if cand < best:
                    best, best_k = cand, k
            dp[s][j] = best
            cut[s][j] = best_k
    bounds = [n]
    j = n
    for s in range(n_stages, 0, -1):
        j = cut[s][j]
        bounds.append(j)
    bounds.reverse()
    return tuple(bounds)


PARTITIONERS = {"dp": partition_dp, "greedy": partition_greedy}


def boundary_blobs(net: Net, split: int) -> tuple[str, ...]:
    """Blobs produced by layers before ``split`` and consumed at/after it.

    This is the complete set of tensors a pipeline cut at ``split`` must
    move downstream: every bottom a later layer reads that an earlier
    layer produced is in it, by construction — there is no other way data
    crosses the cut (tops are never overwritten, so no aliasing).
    """
    if not 0 < split < len(net.layers):
        raise ValueError(
            f"split must be inside the layer list (0 < split < "
            f"{len(net.layers)}), got {split}"
        )
    produced: set[str] = set()
    for layer in net.layers[:split]:
        produced.update(net._tops[layer.name])
    crossing: set[str] = set()
    for layer in net.layers[split:]:
        crossing.update(b for b in net._bottoms[layer.name] if b in produced)
    return tuple(sorted(crossing))


def _blob_bytes(net: Net, name: str) -> float:
    blob = net.blobs[name]
    return float(blob.count * np.dtype(blob.dtype).itemsize)


def plan_stages(
    net: Net,
    n_stages: int,
    *,
    method: str = "dp",
    device: str = "sw26010",
) -> StagePlan:
    """Partition ``net`` into ``n_stages`` balanced stages.

    Costs come from the per-layer device model (forward + backward);
    boundary cut sets and payload bytes come from the blob graph (shapes
    are known at construction time, so no forward pass is needed).
    """
    try:
        partitioner = PARTITIONERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; use {sorted(PARTITIONERS)}")
    timings = net_layer_timings(net, device)
    costs = [t.total_s for t in timings]
    bounds = partitioner(costs, n_stages)
    stage_fwd = tuple(
        sum(timings[i].forward_s for i in range(bounds[s], bounds[s + 1]))
        for s in range(n_stages)
    )
    stage_bwd = tuple(
        sum(timings[i].backward_s for i in range(bounds[s], bounds[s + 1]))
        for s in range(n_stages)
    )
    cut_blobs = tuple(
        boundary_blobs(net, bounds[s + 1]) for s in range(n_stages - 1)
    )
    cut_bytes = tuple(
        sum(_blob_bytes(net, name) for name in blobs) for blobs in cut_blobs
    )
    stage_param_bytes = tuple(
        float(
            sum(
                p.count * np.dtype(p.dtype).itemsize
                for i in range(bounds[s], bounds[s + 1])
                for p in net.layers[i].params
            )
        )
        for s in range(n_stages)
    )
    return StagePlan(
        net_name=net.name,
        boundaries=bounds,
        stage_fwd_s=stage_fwd,
        stage_bwd_s=stage_bwd,
        cut_blobs=cut_blobs,
        cut_bytes=cut_bytes,
        stage_param_bytes=stage_param_bytes,
        method=method,
    )
