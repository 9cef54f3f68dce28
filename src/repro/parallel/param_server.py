"""Parameter-server synchronization — the baseline the paper rejects.

Sec. V-A: "The parameter server scheme is unable to sufficiently exploit
the bandwidth potential ... since the processor has only one network port,
thus, receiving gradients simultaneously from a large number of workers
could potentially become a bottleneck." This module makes that argument
executable:

* :class:`ParameterServerModel` — the timing model: the model is sharded
  over S servers; each iteration every worker pushes its gradient shard to
  each server and pulls fresh parameters back. Each server's single NIC
  serializes its (p - s)/s incoming and outgoing transfers, which is the
  ingestion bottleneck the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.cost_model import SW_COLLECTIVE_NETWORK


@dataclass
class ParameterServerModel:
    """Timing model for sharded synchronous parameter-server sync.

    Parameters
    ----------
    model_bytes:
        Total gradient/parameter payload.
    n_servers:
        Server count (each holds ``model_bytes / n_servers``).

    Every message rides the calibrated collective curve, one NIC per node
    (the SW26010 reality).
    """

    model_bytes: float
    n_servers: int = 8

    def sync_time(self, n_workers: int) -> float:
        """One iteration's push + pull time.

        Every worker sends each server its shard (and later pulls it
        back). A server's NIC serializes its ``n_workers`` incoming shard
        messages, then its ``n_workers`` outgoing ones; workers' sends to
        *different* servers proceed in parallel, so the slowest server
        paces the phase.
        """
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        if n_workers == 1:
            return 0.0
        shard = self.model_bytes / self.n_servers
        per_msg = SW_COLLECTIVE_NETWORK.ptp_time(shard)
        # Ingest: n_workers shard messages serialized at one server NIC.
        push = n_workers * per_msg
        pull = n_workers * per_msg
        return push + pull
