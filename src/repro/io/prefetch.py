"""Prefetch pipeline: the per-worker I/O thread (Sec. V-B).

Each worker runs an I/O thread that fetches the *next* mini-batch while the
current one is computed. Per steady-state iteration, the exposed I/O time
is therefore ``max(0, read_time - compute_time)``; without prefetching the
two serialize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.io.disk import DiskArrayModel, StripingPolicy


@dataclass
class PrefetchPipeline:
    """Steady-state overlap model of I/O and compute."""

    disk: DiskArrayModel
    policy: StripingPolicy
    enabled: bool = True

    def read_time(self, n_processes: int, bytes_per_process: float) -> float:
        """Raw mini-batch read time under the pipeline's striping policy."""
        return self.disk.read_time(n_processes, bytes_per_process, self.policy)

    def iteration_io_time(
        self, n_processes: int, bytes_per_process: float, compute_time: float
    ) -> float:
        """Exposed (non-overlapped) I/O time of one training iteration."""
        if compute_time < 0:
            raise ValueError("compute_time must be non-negative")
        t_read = self.read_time(n_processes, bytes_per_process)
        if not self.enabled:
            return t_read
        return max(0.0, t_read - compute_time)
