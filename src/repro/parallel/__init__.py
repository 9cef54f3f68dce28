"""Multi-node scaling of swCaffe (paper Sec. V).

* :mod:`repro.parallel.threads` — Algorithm 1's single-node side: four
  pthreads (one per core group), the ``simple_sync`` semaphore barrier, and
  CG0's local gradient average, timed by ``node_iteration_time``;
* :mod:`repro.parallel.packing` — gradient packing: all layer gradients are
  fused into one buffer so the allreduce and the CPE-cluster summation run
  at full bandwidth;
* :mod:`repro.parallel.ssgd` — the synchronous-SGD iteration timing model
  (compute + local average + allreduce + update + exposed I/O);
* :mod:`repro.parallel.trainer` — a functional distributed trainer over
  simulated workers (real data, real collectives, replica consistency);
* :mod:`repro.parallel.scaling` — the Fig. 10/11 sweep: speedups and
  communication fractions from 2 to 1024 nodes.
"""

from repro.parallel.packing import BucketedPacker, GradientPacker
from repro.parallel.ssgd import SSGDIterationModel
from repro.parallel.trainer import DistributedTrainer
from repro.parallel.param_server import ParameterServerModel
from repro.parallel.scaling import ScalingStudy, ScalingPoint

__all__ = [
    "GradientPacker",
    "BucketedPacker",
    "SSGDIterationModel",
    "DistributedTrainer",
    "ParameterServerModel",
    "ScalingStudy",
    "ScalingPoint",
]
