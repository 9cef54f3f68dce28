"""Single-node multi-threading over the four core groups (Algorithm 1).

swCaffe starts one pthread per CG; each runs forward/backward on a quarter
of the node's sub-mini-batch, synchronizing with a handshake
(initiation-confirmation semaphore in shared memory) — the paper's
``simple_sync()``. CG0 then sums the four gradient copies to form the
node-local average.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.spec import SW_PARAMS

#: One ``simple_sync`` handshake across the 4 CGs (semaphore store + spin
#: in shared memory, microsecond scale).
SIMPLE_SYNC_S = 2e-6
#: ``pthread_create``/``join`` of the 4 CG threads, once per iteration.
THREAD_SPAWN_S = 5e-5


@dataclass(frozen=True)
class NodeIterationTime:
    """Breakdown of one node-local training iteration."""

    compute_s: float
    sync_s: float
    local_reduce_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.sync_s + self.local_reduce_s


def node_iteration_time(compute_s: float, model_bytes: float) -> NodeIterationTime:
    """Time Algorithm 1's node-local portion.

    The four symmetric CG threads each compute for ``compute_s``, are
    spawned and joined once and meet at one ``simple_sync``. CG0 then sums
    the four gradient copies: a streaming reduction that reads 4 copies and
    writes 1 through DMA at the saturated per-CG bandwidth.
    """
    if model_bytes < 0:
        raise ValueError("model_bytes must be non-negative")
    return NodeIterationTime(
        compute_s=float(compute_s),
        sync_s=THREAD_SPAWN_S + SIMPLE_SYNC_S,
        local_reduce_s=5.0 * model_bytes / SW_PARAMS.dma_peak_bw,
    )
