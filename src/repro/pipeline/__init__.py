"""Pipeline/hybrid model parallelism on the simulated cluster.

swCaffe's data-parallel scaling (figs. 10/11) goes communication-bound at
large node counts: the gradient allreduce payload is the full model, and
the bucketed overlap only hides part of it. Pipeline parallelism
attacks the remainder by splitting the net into stages that exchange
*boundary activations* (kilobytes to megabytes) instead of full gradients
(hundreds of megabytes), at the price of fill/drain bubbles.

The subsystem follows the package's data/time split:

* :mod:`repro.pipeline.partition` — balanced contiguous stage splits
  from the per-layer SW26010 cost model (greedy baseline + DP-optimal);
* :mod:`repro.pipeline.schedule` — microbatch schedules (GPipe
  fill-drain and 1F1B) as a deterministic event walk, with bubble
  accounting and trace emission the critical-path profiler validates
  bitwise;
* :mod:`repro.pipeline.model` — the iteration timing model (pipeline and
  hybrid stage×replica modes), sharing allreduce pricing with the
  data-parallel model via :mod:`repro.parallel.comm_cost` and pricing
  boundary transfers on the same collective curve;
* :mod:`repro.pipeline.trainer` — the executable trainer: stage-sliced
  forward/backward with boundary tensors moved through the priced
  :class:`~repro.simmpi.p2p.P2PTransport`, gradient accumulation
  bit-identical to a single-rank :class:`~repro.frame.solver.SGDSolver`
  at the same effective batch.
"""

from repro.pipeline.partition import StagePlan, partition_dp, partition_greedy, plan_stages
from repro.pipeline.schedule import (
    PipelineTimeline,
    emit_pipeline_trace,
    simulate_pipeline,
    stage_orders,
)
from repro.pipeline.model import PipelineIterationModel
from repro.pipeline.trainer import PipelineTrainer

__all__ = [
    "StagePlan",
    "partition_dp",
    "partition_greedy",
    "plan_stages",
    "PipelineTimeline",
    "emit_pipeline_trace",
    "simulate_pipeline",
    "stage_orders",
    "PipelineIterationModel",
    "PipelineTrainer",
]
